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
