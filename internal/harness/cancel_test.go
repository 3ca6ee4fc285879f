package harness

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapContextCancelMidMatrix cancels a running matrix at several
// worker counts and asserts the three cancellation guarantees: the
// completed cells form a prefix of the matrix, that prefix is
// byte-identical to an uncancelled run, and the error carries
// context.Canceled alongside zero cell errors.
func TestMapContextCancelMidMatrix(t *testing.T) {
	cells := Spec{Variants: []string{"a", "b"}, Rounds: 32}.Cells()
	serial, err := Map(Config{BaseSeed: 13, Workers: 1}, cells, func(c Cell) int64 {
		return c.Seed
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		var progressed []int
		out, err := MapContext(ctx, Config{
			BaseSeed: 13,
			Workers:  workers,
			Progress: func(p Progress) { progressed = append(progressed, p.Cell.Index) },
		}, cells, func(c Cell) int64 {
			if started.Add(1) == 10 {
				cancel()
			}
			time.Sleep(time.Millisecond) // give other workers time to observe
			return c.Seed
		})
		cancel()

		if err == nil {
			t.Fatalf("workers=%d: no error after cancellation", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error %v does not wrap context.Canceled", workers, err)
		}
		if ces := Errs(err); len(ces) != 0 {
			t.Fatalf("workers=%d: unexpected cell errors %v", workers, ces)
		}
		if len(out) != len(cells) {
			t.Fatalf("workers=%d: result length %d, want full matrix %d", workers, len(out), len(cells))
		}
		done := len(progressed)
		if done == 0 || done >= len(cells) {
			t.Fatalf("workers=%d: %d cells completed, expected a strict subset", workers, done)
		}
		// Completed cells are exactly the matrix prefix [0, done): cells
		// are claimed in index order and claiming stops on cancellation.
		seen := map[int]bool{}
		for _, idx := range progressed {
			seen[idx] = true
		}
		for i := 0; i < done; i++ {
			if !seen[i] {
				t.Fatalf("workers=%d: %d cells done but index %d missing (not a prefix)", workers, done, i)
			}
		}
		// The prefix matches the uncancelled serial run; untouched slots
		// stay zero.
		for i := 0; i < done; i++ {
			if out[i] != serial[i] {
				t.Fatalf("workers=%d: slot %d = %d, serial run had %d", workers, i, out[i], serial[i])
			}
		}
		for i := done; i < len(out); i++ {
			if out[i] != 0 {
				t.Fatalf("workers=%d: unclaimed slot %d has value %d", workers, i, out[i])
			}
		}
	}
}

// TestMapContextPreCancelled: a context cancelled before the call runs
// zero cells and still returns a full-length zeroed result slice.
func TestMapContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	out, err := MapContext(ctx, Config{Workers: 4}, Spec{Rounds: 16}.Cells(), func(Cell) int {
		ran.Add(1)
		return 1
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d cells ran under a pre-cancelled context", n)
	}
	if len(out) != 16 {
		t.Fatalf("result length %d", len(out))
	}
}

// TestMapContextCancelNoGoroutineLeak: after a cancelled MapContext
// returns, every pool worker has exited.
func TestMapContextCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := MapContext(ctx, Config{Workers: 8}, Spec{Rounds: 64}.Cells(), func(c Cell) int {
			if c.Index == 5 {
				cancel()
			}
			return 0
		})
		cancel()
		if err == nil {
			t.Fatal("cancelled run returned nil error")
		}
	}
	// Allow any straggling runtime bookkeeping to settle.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestMapContextSlotsCancelKeepsPrefix is the regression test for the
// dispatch-order bug where a worker could claim a cell and then
// abandon it while waiting on an exhausted Budget under
// cancellation, letting a later-index cell that already held a slot
// complete — a hole in the documented completed-prefix invariant.
// Workers now acquire the budget before claiming, so every claimed cell
// runs and the completed cells form a prefix at any interleaving.
func TestMapContextSlotsCancelKeepsPrefix(t *testing.T) {
	cells := Spec{Rounds: 24}.Cells()
	for trial := 0; trial < 30; trial++ {
		slots := make(chan struct{}, 1) // single-slot budget: workers contend
		ctx, cancel := context.WithCancel(context.Background())
		var progressed []int
		out, err := MapContext(ctx, Config{
			BaseSeed: 9, Workers: 4, Budget: chanBudget(slots),
			Progress: func(p Progress) { progressed = append(progressed, p.Cell.Index) },
		}, cells, func(c Cell) int64 {
			if c.Index == 2 {
				cancel()
			}
			time.Sleep(time.Millisecond) // let other workers pile up on the slot
			return c.Seed
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: error %v does not wrap context.Canceled", trial, err)
		}
		done := len(progressed)
		if done == 0 || done >= len(cells) {
			t.Fatalf("trial %d: %d cells completed, expected a strict subset", trial, done)
		}
		seen := map[int]bool{}
		for _, idx := range progressed {
			seen[idx] = true
		}
		for i := 0; i < done; i++ {
			if !seen[i] {
				t.Fatalf("trial %d: %d cells done but index %d missing (not a prefix)", trial, done, i)
			}
		}
		for i := range out {
			if !seen[i] && out[i] != 0 {
				t.Fatalf("trial %d: abandoned slot %d holds value %d", trial, i, out[i])
			}
		}
		if len(slots) != 0 {
			t.Fatalf("trial %d: %d slots leaked", trial, len(slots))
		}
	}
}

// TestMapContextSlotsExhaustedCancelRunsNothing: with the whole budget
// held elsewhere, a cancelled run abandons before claiming any cell.
func TestMapContextSlotsExhaustedCancelRunsNothing(t *testing.T) {
	slots := make(chan struct{}, 1)
	slots <- struct{}{} // budget fully consumed by "another job"
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	var ran atomic.Int64
	_, err := MapContext(ctx, Config{Workers: 4, Budget: chanBudget(slots)}, Spec{Rounds: 16}.Cells(), func(Cell) int {
		ran.Add(1)
		return 1
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d cells ran with the budget exhausted", n)
	}
	if len(slots) != 1 {
		t.Fatalf("foreign slot count %d, want the 1 we put in", len(slots))
	}
}

// TestMapContextPanicPlusCancel: cell errors and the context error are
// joined; Errs still extracts the cell errors.
func TestMapContextPanicPlusCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cells := Spec{Rounds: 32}.Cells()
	_, err := MapContext(ctx, Config{Workers: 2}, cells, func(c Cell) int {
		if c.Index == 3 {
			panic("boom")
		}
		if c.Index == 6 {
			cancel()
		}
		return 0
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	ces := Errs(err)
	if len(ces) != 1 || ces[0].Cell.Index != 3 {
		t.Fatalf("cell errors %v, want the single panic at index 3", ces)
	}
}

// TestMapContextCompleteRunHasNoError: an uncancelled MapContext behaves
// exactly like Map.
func TestMapContextCompleteRunHasNoError(t *testing.T) {
	out, err := MapContext(context.Background(), Config{BaseSeed: 5, Workers: 3},
		Spec{Rounds: 12}.Cells(), func(c Cell) int64 { return c.Seed })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v == 0 {
			t.Fatalf("slot %d empty", i)
		}
	}
}
