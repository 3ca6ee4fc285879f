package sched

import (
	"testing"

	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sim"
)

// TestTickNoAllocs pins the steady-state scheduling round at zero
// allocations: with the candidate queue and the engine's event heap
// warmed up, ticking must not touch the heap at all. Bare Step calls
// run one round each and burn none, so this measures a stepped round
// (TestBurnNoAllocs measures burned ones). This is one of the three
// hot paths the optimisation pass covers; a regression here silently
// costs every simulated millisecond.
func TestTickNoAllocs(t *testing.T) {
	eng, s, tb := newSched(2)
	for i := 0; i < 4; i++ {
		task := appTask(tb, "spin", 0)
		s.Register(task)
		s.Post(task, &proc.Work{CPU: sim.Hour})
	}
	// Warm-up: grow the candidate queue and the event heap to their
	// steady-state capacities.
	for i := 0; i < 100; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(200, func() {
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state tick allocated %.1f objects per quantum, want 0", allocs)
	}
	if now := eng.Now(); now != 300*Quantum {
		t.Fatalf("301 steps reached %v, want one round per step", now)
	}
}

// TestBurnNoAllocs is TestTickNoAllocs for burn rounds: two CPU-bound
// tasks on four cores always have a core each, so a RunFor applies its
// rounds at once, in closed form. It must allocate nothing and
// dispatch a handful of events per simulated second, where one tick
// per quantum would dispatch 1,000.
func TestBurnNoAllocs(t *testing.T) { burnSecond(t, 4, 2) }

// TestBurnOversubscribedNoAllocs is TestBurnNoAllocs with four
// CPU-bound tasks on two cores, so each burned round selects two of
// them.
func TestBurnOversubscribedNoAllocs(t *testing.T) { burnSecond(t, 2, 4) }

// burnSecond runs n CPU-bound tasks on cores cores and pins a burned
// simulated second at most 3 dispatched events and no allocation.
func burnSecond(t *testing.T, cores, n int) {
	eng, s, tb := newSched(cores)
	for i := 0; i < n; i++ {
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
	if busy := s.Stats().TotalBusy(); busy != sim.Time(min(cores, n))*sim.Second {
		t.Fatalf("a burned second kept the cores busy for %v, want %d s", busy, min(cores, n))
	}
	allocs := testing.AllocsPerRun(200, func() {
		eng.RunFor(sim.Second)
	})
	if allocs != 0 {
		t.Fatalf("burning a second allocated %.1f objects, want 0", allocs)
	}
}
