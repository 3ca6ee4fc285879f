package sched

import (
	"testing"

	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sim"
)

// TestTickNoAllocs pins the steady-state scheduling round at zero
// allocations: with the candidate queue and the engine's event heap
// warmed up, ticking must not touch the heap at all. This is
// one of the three hot paths the PR's optimisation pass covers; a
// regression here silently costs every simulated millisecond.
func TestTickNoAllocs(t *testing.T) {
	eng, s, tb := newSched(2)
	for i := 0; i < 4; i++ {
		task := appTask(tb, "spin", 0)
		s.Register(task)
		s.Post(task, &proc.Work{CPU: sim.Hour})
	}
	// Warm-up: grow the candidate queue and the event heap to their
	// steady-state capacities.
	eng.RunFor(100 * sim.Millisecond)
	allocs := testing.AllocsPerRun(200, func() {
		eng.RunFor(Quantum)
	})
	if allocs != 0 {
		t.Fatalf("steady-state tick allocated %.1f objects per quantum, want 0", allocs)
	}
}

// TestBurnNoAllocs is TestTickNoAllocs for burn rounds: two CPU-bound
// tasks on four cores always have a core each, so a RunFor applies its
// rounds at once. It must allocate nothing and dispatch a handful of
// events per simulated second, where one tick per quantum would
// dispatch 1,000.
func TestBurnNoAllocs(t *testing.T) {
	eng, s, tb := newSched(4)
	for i := 0; i < 2; i++ {
		task := appTask(tb, "spin", 0)
		s.Register(task)
		s.Post(task, &proc.Work{CPU: sim.Hour})
	}
	// Warm-up: grow the per-second busy series past what the measured
	// runs fill, then start it over.
	eng.RunFor(300 * sim.Second)
	s.ResetStats()
	events := eng.Dispatched()
	eng.RunFor(sim.Second)
	if n := eng.Dispatched() - events; n > 3 {
		t.Fatalf("RunFor(1 s) dispatched %d events, want at most 3", n)
	}
	allocs := testing.AllocsPerRun(200, func() {
		eng.RunFor(sim.Second)
	})
	if allocs != 0 {
		t.Fatalf("burning a second allocated %.1f objects, want 0", allocs)
	}
}
