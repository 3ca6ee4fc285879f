package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eurosys23/ice/internal/obs"
)

func TestSpecCellsCrossProduct(t *testing.T) {
	s := Spec{
		Devices:   []string{"Pixel3", "P20"},
		Scenarios: []string{"S-A", "S-B"},
		Schemes:   []string{"LRU+CFS", "Ice"},
		Rounds:    3,
	}
	cells := s.Cells()
	if len(cells) != s.Size() || len(cells) != 2*2*2*3 {
		t.Fatalf("got %d cells, Size()=%d", len(cells), s.Size())
	}
	// Rounds of one configuration are adjacent (reduce relies on this).
	for i := 0; i < len(cells); i += 3 {
		base := cells[i]
		for r := 1; r < 3; r++ {
			c := cells[i+r]
			if c.Device != base.Device || c.Scenario != base.Scenario || c.Scheme != base.Scheme || c.Round != r {
				t.Fatalf("rounds not adjacent at %d: %+v vs %+v", i+r, c, base)
			}
		}
	}
	// Empty axes collapse to a single coordinate.
	if n := (Spec{Variants: []string{"a", "b"}}).Size(); n != 2 {
		t.Fatalf("single-axis size %d", n)
	}
}

func TestDeriveSeedDistinctAndStable(t *testing.T) {
	seen := map[int64]Cell{}
	cells := Spec{
		Devices:   []string{"Pixel3", "P20"},
		Scenarios: []string{"S-A", "S-B", "S-C", "S-D"},
		Schemes:   []string{"LRU+CFS", "UCSG", "Acclaim", "Ice"},
		Rounds:    10,
	}.Cells()
	for _, c := range cells {
		s := DeriveSeed(42, c)
		if s <= 0 {
			t.Fatalf("non-positive seed %d for %s", s, c)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %s and %s", prev, c)
		}
		seen[s] = c
		if s != DeriveSeed(42, c) {
			t.Fatalf("seed not stable for %s", c)
		}
	}
	// Different base seeds shift the whole matrix.
	if DeriveSeed(1, cells[0]) == DeriveSeed(2, cells[0]) {
		t.Fatal("base seed ignored")
	}
	// The ambiguity "ab"+"c" vs "a"+"bc" must not collide.
	a := Cell{Device: "ab", Scheme: "c"}
	b := Cell{Device: "a", Scheme: "bc"}
	if DeriveSeed(1, a) == DeriveSeed(1, b) {
		t.Fatal("coordinate concatenation ambiguity")
	}
}

func TestMapOrderAndStamping(t *testing.T) {
	cells := Spec{Variants: []string{"a", "b", "c"}, Rounds: 4}.Cells()
	out, err := Map(Config{BaseSeed: 7, Workers: 3}, cells, func(c Cell) string {
		if c.Seed != DeriveSeed(7, c) {
			t.Errorf("cell %d seed not stamped", c.Index)
		}
		return fmt.Sprintf("%s/%d", c.Variant, c.Round)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a/0", "a/1", "a/2", "a/3",
		"b/0", "b/1", "b/2", "b/3",
		"c/0", "c/1", "c/2", "c/3",
	}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("slot %d = %q, want %q", i, out[i], w)
		}
	}
}

// TestMapBoundedConcurrency asserts the acceptance criterion directly:
// never more than Workers cells in flight.
func TestMapBoundedConcurrency(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var inFlight, peak atomic.Int64
		cells := Spec{Rounds: 40}.Cells()
		_, err := Map(Config{Workers: workers}, cells, func(Cell) int {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > int64(workers) {
			t.Fatalf("workers=%d but %d cells were in flight", workers, p)
		}
	}
}

func TestMapPanicBecomesCellError(t *testing.T) {
	cells := Spec{Variants: []string{"ok", "boom", "ok2", "boom2"}}.Cells()
	out, err := Map(Config{Workers: 2}, cells, func(c Cell) int {
		if strings.HasPrefix(c.Variant, "boom") {
			panic("exploded on " + c.Variant)
		}
		return 1
	})
	if err == nil {
		t.Fatal("no error for panicking cells")
	}
	// Healthy cells still ran; failed slots are zero.
	if out[0] != 1 || out[2] != 1 || out[1] != 0 || out[3] != 0 {
		t.Fatalf("result slots wrong: %v", out)
	}
	ces := Errs(err)
	if len(ces) != 2 {
		t.Fatalf("%d cell errors, want 2: %v", len(ces), err)
	}
	// Errors arrive in matrix order with coordinates and stack attached.
	if ces[0].Cell.Variant != "boom" || ces[1].Cell.Variant != "boom2" {
		t.Fatalf("error order wrong: %v", err)
	}
	if !strings.Contains(ces[0].Error(), "exploded on boom") {
		t.Fatalf("error message lost the panic value: %v", ces[0])
	}
	if len(ces[0].Stack) == 0 {
		t.Fatal("no stack captured")
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatal("errors.As failed to find a *CellError")
	}
}

func TestMapProgress(t *testing.T) {
	cells := Spec{Rounds: 10}.Cells()
	var events []Progress
	_, err := Map(Config{Workers: 4, Progress: func(p Progress) {
		events = append(events, p) // serialised by the harness
	}}, cells, func(Cell) int {
		time.Sleep(time.Millisecond)
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 10 {
		t.Fatalf("%d progress events", len(events))
	}
	for i, p := range events {
		if p.Completed != i+1 || p.Total != 10 {
			t.Fatalf("event %d: completed=%d total=%d", i, p.Completed, p.Total)
		}
		if p.CellTime <= 0 {
			t.Fatalf("event %d: no per-cell timing", i)
		}
	}
	last := events[len(events)-1]
	if last.ETA != 0 {
		t.Fatalf("final ETA %v, want 0", last.ETA)
	}
	if events[4].ETA <= 0 {
		t.Fatalf("mid-run ETA %v, want > 0", events[4].ETA)
	}
}

// TestMapDeterministicAcrossWorkers is the engine-level half of the
// byte-identical guarantee: the result slice does not depend on the
// worker count.
func TestMapDeterministicAcrossWorkers(t *testing.T) {
	cells := Spec{
		Scenarios: []string{"S-A", "S-B"},
		Schemes:   []string{"x", "y", "z"},
		Rounds:    5,
	}.Cells()
	run := func(workers int) []int64 {
		out, err := Map(Config{BaseSeed: 99, Workers: workers}, cells, func(c Cell) int64 {
			return c.Seed % 1009
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d diverged at slot %d", w, i)
			}
		}
	}
}

func TestAggAndCounter(t *testing.T) {
	var a Agg
	for _, x := range []float64{1, 2, 3, 4} {
		a.Add(x)
	}
	if a.Mean() != 2.5 || a.N() != 4 {
		t.Fatalf("mean %v n %d", a.Mean(), a.N())
	}
	if p := a.Percentile(100); p != 4 {
		t.Fatalf("p100 %v", p)
	}
	var zero Agg
	if zero.Mean() != 0 {
		t.Fatal("empty mean not 0")
	}
	var c Counter
	c.Add(10)
	c.Add(20)
	if c.Sum() != 30 || c.Mean() != 15 {
		t.Fatalf("sum %d mean %d", c.Sum(), c.Mean())
	}
	var zc Counter
	if zc.Mean() != 0 {
		t.Fatal("empty counter mean not 0")
	}
}

// TestMapNoSharedStateRaces exercises the pool under -race: all workers
// hammer the progress callback and the output slice concurrently.
func TestMapNoSharedStateRaces(t *testing.T) {
	cells := Spec{Rounds: 64}.Cells()
	var mu sync.Mutex
	total := 0
	out, err := Map(Config{Workers: 8, Progress: func(p Progress) { total = p.Completed }},
		cells, func(c Cell) int { return c.Round * 2 })
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if total != 64 {
		t.Fatalf("progress saw %d completions", total)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

func TestSnapshotAgg(t *testing.T) {
	snap := func(reclaim, refault uint64) obs.Snapshot {
		r := obs.NewRegistry()
		r.Counter("mm.reclaim.pages").Add(reclaim)
		r.Counter("mm.refault.pages").Add(refault)
		return r.Snapshot()
	}
	var s SnapshotAgg
	if s.N() != 0 || s.Sum("mm.reclaim.pages") != 0 || s.Mean("x") != 0 {
		t.Fatal("zero-value SnapshotAgg not empty")
	}
	if len(s.MeanCounters()) != 0 {
		t.Fatal("zero-value MeanCounters not empty")
	}
	s.Add(snap(10, 4))
	s.Add(snap(21, 5))
	if s.N() != 2 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Sum("mm.reclaim.pages") != 31 {
		t.Fatalf("sum %d", s.Sum("mm.reclaim.pages"))
	}
	// Integer mean: identical arithmetic to Counter.Mean (31/2 = 15).
	var c Counter
	c.Add(10)
	c.Add(21)
	if s.Mean("mm.reclaim.pages") != c.Mean() || s.Mean("mm.reclaim.pages") != 15 {
		t.Fatalf("mean %d, Counter.Mean %d", s.Mean("mm.reclaim.pages"), c.Mean())
	}
	m := s.MeanCounters()
	if m["mm.reclaim.pages"] != 15 || m["mm.refault.pages"] != 4 {
		t.Fatalf("MeanCounters %v", m)
	}
}

// TestRangeRestrictsExecution: Config.Range runs only the in-range
// cells, reports ErrRangePartial, and the Sink receives exactly the
// in-range results as their JSON marshalling.
func TestRangeRestrictsExecution(t *testing.T) {
	cells := Spec{Variants: []string{"a", "b"}, Rounds: 6}.Cells() // 12 cells
	serial, err := Map(Config{BaseSeed: 3, Workers: 1}, cells, func(c Cell) int64 { return c.Seed })
	if err != nil {
		t.Fatal(err)
	}

	sunk := map[int][]byte{}
	var ran atomic.Int64
	cfg := Config{BaseSeed: 3, Workers: 2}
	cfg.Range = Cells(4, 9)
	cfg.Sink = func(i int, b []byte) { sunk[i] = append([]byte(nil), b...) }
	out, err := Map(cfg, cells, func(c Cell) int64 {
		ran.Add(1)
		return c.Seed
	})
	if !errors.Is(err, ErrRangePartial) {
		t.Fatalf("error %v does not wrap ErrRangePartial", err)
	}
	if n := ran.Load(); n != 5 {
		t.Fatalf("%d cells ran, want 5", n)
	}
	for i := range out {
		if i >= 4 && i < 9 {
			if out[i] != serial[i] {
				t.Fatalf("slot %d = %d, want %d", i, out[i], serial[i])
			}
			want, _ := json.Marshal(serial[i])
			if string(sunk[i]) != string(want) {
				t.Fatalf("sink[%d] = %q, want %q", i, sunk[i], want)
			}
		} else {
			if out[i] != 0 {
				t.Fatalf("out-of-range slot %d holds %d", i, out[i])
			}
			if _, ok := sunk[i]; ok {
				t.Fatalf("sink saw out-of-range index %d", i)
			}
		}
	}
}

// TestRangeFullMatrixIsNotPartial: a Range covering the whole matrix
// behaves exactly like a plain run — no ErrRangePartial.
func TestRangeFullMatrixIsNotPartial(t *testing.T) {
	cells := Spec{Rounds: 8}.Cells()
	cfg := Config{BaseSeed: 1, Workers: 2}
	cfg.Range = Cells(0, len(cells))
	if _, err := Map(cfg, cells, func(c Cell) int64 { return c.Seed }); err != nil {
		t.Fatalf("full-range run errored: %v", err)
	}
}

// TestRangeOutsideMatrixRefused: a Range that is empty or not within
// the matrix is refused with ErrBadRange before any cell runs.
func TestRangeOutsideMatrixRefused(t *testing.T) {
	cells := Spec{Rounds: 4}.Cells()
	for _, r := range []*Range{Cells(0, 5), Cells(4, 6), Cells(-1, 2), Cells(2, 2), Cells(3, 1)} {
		var ran atomic.Int64
		cfg := Config{Workers: 2}
		cfg.Range = r
		_, err := Map(cfg, cells, func(c Cell) int {
			ran.Add(1)
			return c.Index
		})
		if !errors.Is(err, ErrBadRange) {
			t.Errorf("range %+v: error %v, want ErrBadRange", *r, err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("range %+v: %d cells ran before the refusal", *r, n)
		}
	}
}

// execRangeLocally simulates a remote worker: it re-runs the same
// matrix under a Range restriction and returns the Sink payloads in
// index order — exactly what LeaseQueue.Complete expects.
func execRangeLocally(cfg Config, cells []Cell, r Range, fn func(Cell) int64) ([][]byte, error) {
	collected := make([][]byte, r.Len())
	wcfg := cfg
	wcfg.ExecHooks = ExecHooks{
		Range: Cells(r.From, r.To),
		Sink: func(i int, b []byte) {
			collected[i-r.From] = append([]byte(nil), b...)
		},
	}
	if _, err := Map(wcfg, cells, fn); err != nil && !errors.Is(err, ErrRangePartial) {
		return nil, err
	}
	return collected, nil
}
