package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPrefillResumesWithoutReexecution pins the preemption-resume
// contract: a run given the Sink payloads of an earlier partial run
// injects them instead of re-executing, and the merged results are
// byte-identical to an uninterrupted run.
func TestPrefillResumesWithoutReexecution(t *testing.T) {
	cells := make([]Cell, 9)
	for i := range cells {
		cells[i] = Cell{Scenario: "prefill", Round: i}
	}
	fn := func(c Cell) int { return int(c.Seed % 1000) }

	// Uninterrupted reference run, capturing every cell's Sink payload.
	saved := map[int][]byte{}
	var mu sync.Mutex
	full, err := Map(Config{Workers: 2, ExecHooks: ExecHooks{Sink: func(i int, b []byte) {
		mu.Lock()
		saved[i] = append([]byte(nil), b...)
		mu.Unlock()
	}}}, cells, fn)
	if err != nil {
		t.Fatal(err)
	}

	// Resume with a non-contiguous subset saved (two runs: [0,3) and
	// [5,7)); only the gaps may execute.
	partial := map[int][]byte{}
	for _, i := range []int{0, 1, 2, 5, 6} {
		partial[i] = saved[i]
	}
	var executed atomic.Int64
	resumed, err := Map(Config{Workers: 2, ExecHooks: ExecHooks{Prefill: partial}},
		cells, func(c Cell) int {
			executed.Add(1)
			return fn(c)
		})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(resumed), fmt.Sprint(full); got != want {
		t.Fatalf("resumed run differs: %s vs %s", got, want)
	}
	if n := executed.Load(); n != 4 {
		t.Fatalf("resumed run executed %d cells, want only the 4 unsaved ones", n)
	}

	// Full prefill: nothing executes at all.
	executed.Store(0)
	again, err := Map(Config{ExecHooks: ExecHooks{Prefill: saved}},
		cells, func(c Cell) int {
			executed.Add(1)
			return fn(c)
		})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(again), fmt.Sprint(full); got != want {
		t.Fatalf("fully prefilled run differs: %s vs %s", got, want)
	}
	if n := executed.Load(); n != 0 {
		t.Fatalf("fully prefilled run executed %d cells, want 0", n)
	}
}

// TestPrefillOutOfRangeIgnored: saved indices beyond the matrix are
// dropped, not injected.
func TestPrefillOutOfRangeIgnored(t *testing.T) {
	cells := make([]Cell, 3)
	for i := range cells {
		cells[i] = Cell{Round: i}
	}
	bogus, _ := json.Marshal(999)
	out, err := Map(Config{ExecHooks: ExecHooks{Prefill: map[int][]byte{7: bogus, -1: bogus}}},
		cells, func(c Cell) int { return c.Index })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestCellQuotaBoundsConcurrency: with a CellQuota of capacity 1, at
// most one cell is in flight even when Workers and Slots allow more.
func TestCellQuotaBoundsConcurrency(t *testing.T) {
	quota := make(chan struct{}, 1)
	var inflight, peak atomic.Int64
	cells := make([]Cell, 16)
	for i := range cells {
		cells[i] = Cell{Round: i}
	}
	_, err := Map(Config{Workers: 8, Slots: make(chan struct{}, 8), ExecHooks: ExecHooks{CellQuota: quota}},
		cells, func(c Cell) int {
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			defer inflight.Add(-1)
			return int(c.Seed)
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("peak in-flight %d under a 1-cell quota", p)
	}
	if len(quota) != 0 {
		t.Fatalf("%d quota slots leaked", len(quota))
	}
}

// TestCellQuotaCancelReleasesBudget: cancelling while blocked on the
// quota abandons cleanly — the global slot is released, the completed
// cells form a prefix, and no budget slot leaks.
func TestCellQuotaCancelReleasesBudget(t *testing.T) {
	quota := make(chan struct{}, 1)
	quota <- struct{}{} // exhausted before the run starts
	slots := make(chan struct{}, 4)
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	cells := make([]Cell, 4)
	go func() {
		_, err := MapContext(ctx, Config{Workers: 2, Slots: slots, ExecHooks: ExecHooks{CellQuota: quota}},
			cells, func(c Cell) int { return 0 })
		done <- err
	}()
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if len(slots) != 0 {
		t.Fatalf("%d global slots leaked by workers abandoned on the quota", len(slots))
	}
	if len(quota) != 1 {
		t.Fatalf("quota occupancy %d, want the pre-filled 1", len(quota))
	}
}
