package sched

import (
	"reflect"
	"testing"

	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/trace"
)

// TestRunUntilStopsBurnAtHorizon pins the horizon: a task with an hour of
// work burns no round past RunUntil's target, and the next RunUntil
// resumes with no quantum lost or doubled.
func TestRunUntilStopsBurnAtHorizon(t *testing.T) {
	eng, s, tb := newSched(2)
	task := appTask(tb, "spin", 0)
	s.Register(task)
	s.Post(task, &proc.Work{CPU: sim.Hour})
	// Rounds at 0, 1, …, 10 ms fall within 10.5 ms.
	eng.RunUntil(10*Quantum + Quantum/2)
	if task.CPUTime != 11*Quantum {
		t.Fatalf("CPUTime after RunUntil(10.5 ms) = %v, want 11 quanta", task.CPUTime)
	}
	eng.RunUntil(20*Quantum + Quantum/2)
	if task.CPUTime != 21*Quantum {
		t.Fatalf("CPUTime after RunUntil(20.5 ms) = %v, want 21 quanta", task.CPUTime)
	}
	if got := eng.Dispatched(); got > 4 {
		t.Fatalf("%d events dispatched for two calm bursts", got)
	}
	// A bare Step has no horizon: it runs one round and burns none.
	eng.Step()
	if task.CPUTime != 22*Quantum {
		t.Fatalf("CPUTime after one Step = %v, want 22 quanta", task.CPUTime)
	}
}

// burnWorld is one simulation built from a fuzz input: a scheduler, its
// tasks and trace, and every outside action already queued as an event.
type burnWorld struct {
	eng   *sim.Engine
	s     *Scheduler
	tasks []*proc.Task
	tr    *trace.Buffer
}

// fuzzBytes reads a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzWeights spans the weights tasks draw; at 1 << 22 a quantum adds no
// vruntime at all.
var fuzzWeights = []int{proc.DefaultWeight, 512, 2048, 3121, 15, 88761, 1 << 22}

// buildBurnWorld builds the same world from the same input every time.
//
// Layout: cores, task count, policy flags; per task a weight and the
// size of its first item; then 4-byte actions (op, task, time, size)
// until the input ends. Action times are multiples of a quarter quantum,
// so one in four lands on a quantum boundary of the rounds that start at
// zero.
func buildBurnWorld(data []byte) *burnWorld {
	in := fuzzBytes(data)
	eng := sim.NewEngine(1)
	s := New(eng, 1+in.next()%4)
	tr := trace.NewBuffer(1 << 13)
	s.SetTrace(tr)
	w := &burnWorld{eng: eng, s: s, tr: tr}

	// mode is simulation state only events change; the weight and speed
	// functions read it, as UCSG's read the foreground UID.
	mode := false
	nTasks := 1 + in.next()%6
	flags := in.next()
	if flags&1 != 0 {
		s.SetWeightFn(func(t *proc.Task) int {
			if mode && t.TID%2 == 0 {
				return 3 * t.Weight
			}
			return t.Weight
		})
	}
	if flags&2 != 0 {
		s.SetSpeedFn(func(t *proc.Task) float64 {
			switch {
			case t.TID%3 == 0 && mode:
				return 1.3
			case t.TID%3 == 0:
				return 0.45
			case t.TID%5 == 0:
				return 0.02 // a 20 µs budget
			}
			return 1
		})
	}

	tb := proc.NewTable()
	for i := 0; i < nTasks; i++ {
		// Task 0 is a service: it cannot be frozen, and its CPU has a
		// class of its own.
		kind := proc.KindApp
		if i == 0 {
			kind = proc.KindService
		}
		p := tb.NewProcess("p", tb.AllocUID(), kind, 900)
		t := tb.NewTask(p, "t", fuzzWeights[in.next()%len(fuzzWeights)])
		s.Register(t)
		s.Post(t, &proc.Work{CPU: sim.Time(1+in.next()) * 97 * sim.Microsecond})
		w.tasks = append(w.tasks, t)
	}

	for len(in) > 0 {
		op, t := in.next()%10, w.tasks[in.next()%nTasks]
		at := sim.Time(in.next()) * Quantum / 4
		size := sim.Time(in.next())
		p := t.Proc
		var act func()
		switch op {
		case 0: // an item that finishes mid-quantum
			act = func() { s.Post(t, &proc.Work{CPU: (1 + size) * 37 * sim.Microsecond}) }
		case 1: // an item whose OnDone re-posts, up to size%3 times
			reposts := int(size % 3)
			var again func(_, _ sim.Time)
			again = func(_, _ sim.Time) {
				if reposts > 0 {
					reposts--
					s.Post(t, &proc.Work{CPU: (1 + size) * 19 * sim.Microsecond, OnDone: again})
				}
			}
			act = func() { s.Post(t, &proc.Work{CPU: (1 + size) * 53 * sim.Microsecond, OnDone: again}) }
		case 2: // a Setup that stalls
			act = func() {
				s.Post(t, &proc.Work{CPU: 2 * Quantum, Setup: func() (sim.Time, sim.Time) {
					return size * 13 * sim.Microsecond, 0
				}})
			}
		case 3: // a Setup that blocks on I/O
			act = func() {
				s.Post(t, &proc.Work{CPU: 3 * Quantum, Setup: func() (sim.Time, sim.Time) {
					return 0, eng.Now() + (1+size)*97*sim.Microsecond
				}})
			}
		case 4:
			act = func() { p.Freeze(eng.Now()) }
		case 5: // a thaw, woken once the latency has passed or left for a post to wake
			act = func() {
				lat := (size % 4) * Quantum / 2
				if p.Thaw(eng.Now(), lat) && size&4 == 0 {
					eng.After(lat, func() { s.Wake(p) })
				}
			}
		case 6:
			act = func() { mode = !mode }
		case 7:
			act = func() { s.SetForegroundUID(p.UID) }
		case 8:
			act = s.ResetStats
		case 9: // a short item whose OnDone posts to another task, then a long one
			other := w.tasks[int(size)%nTasks]
			act = func() {
				s.Post(t, &proc.Work{CPU: (1 + size) * 41 * sim.Microsecond, OnDone: func(_, _ sim.Time) {
					s.Post(other, &proc.Work{CPU: (1 + size) * 37 * sim.Microsecond})
				}})
				s.Post(t, &proc.Work{CPU: 5 * Quantum})
			}
		}
		eng.At(at, act)
	}
	return w
}

// FuzzBurnMatchesStep runs each input's world twice: with Drain, which
// lets the scheduler burn rounds, and with bare Step calls, which never
// do. Both must end in the same state, counters and trace.
func FuzzBurnMatchesStep(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 200})                    // one task, one core
	f.Add([]byte{3, 1, 0, 0, 90, 1, 255})             // fewer tasks than cores
	f.Add([]byte{0, 3, 0, 0, 50, 1, 60, 2, 70, 3, 9}) // more tasks than cores
	f.Add([]byte{3, 3, 3, 0, 120, 1, 40, 2, 200, 6, 250,
		6, 0, 20, 0, 6, 0, 41, 0}) // weight and speed policies that a timer flips, at a boundary
	f.Add([]byte{2, 2, 0, 0, 100, 1, 100, 2, 30,
		0, 1, 8, 5, 1, 2, 9, 7}) // mid-quantum finishes and re-posting OnDones
	f.Add([]byte{2, 2, 0, 0, 100, 1, 100, 2, 30,
		2, 1, 12, 40, 3, 2, 13, 9}) // Setups that stall and block on I/O
	f.Add([]byte{3, 3, 0, 0, 255, 1, 255, 2, 255, 3, 255,
		4, 1, 16, 0, 5, 1, 40, 1, 4, 2, 41, 0, 5, 2, 80, 3}) // freezes and thaws with Wake
	f.Add([]byte{1, 2, 2, 5, 200, 0, 200, 1, 150,
		7, 1, 8, 0, 8, 0, 20, 0, 7, 0, 44, 0}) // foreground switches and a stats reset
	f.Add([]byte{1, 2, 0, 0, 255, 0, 255, 0, 0, 0, 2, 80, 9}) // a sleeper that wakes after a burn, lifted to the burned minimum
	f.Add([]byte{1, 1, 0, 0, 0, 0, 255,
		4, 1, 1, 0, 0, 0, 2, 255, 5, 1, 48, 4, 9, 0, 51, 1}) // a long-frozen task a post wakes, lifted in the first burn round
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 160 {
			return
		}
		burned, stepped := buildBurnWorld(data), buildBurnWorld(data)
		burned.eng.Drain(1 << 24)
		for stepped.eng.Step() {
		}
		if a, b := burned.eng.Now(), stepped.eng.Now(); a != b {
			t.Fatalf("final clock %v, stepping %v", a, b)
		}
		for i, ta := range burned.tasks {
			tb := stepped.tasks[i]
			if ta.VRuntime != tb.VRuntime || ta.CPUTime != tb.CPUTime {
				t.Fatalf("task %d: VRuntime %d CPUTime %v, stepping %d %v",
					i, ta.VRuntime, ta.CPUTime, tb.VRuntime, tb.CPUTime)
			}
		}
		if a, b := burned.s.Stats(), stepped.s.Stats(); !reflect.DeepEqual(a, b) {
			t.Fatalf("Stats %+v, stepping %+v", a, b)
		}
		if a, b := burned.eng.Obs().Snapshot(), stepped.eng.Obs().Snapshot(); !reflect.DeepEqual(a, b) {
			t.Fatalf("instruments %+v, stepping %+v", a, b)
		}
		if burned.tr.Recorded != stepped.tr.Recorded || !reflect.DeepEqual(burned.tr.Events(), stepped.tr.Events()) {
			t.Fatalf("trace of %d events differs from stepping's %d", burned.tr.Recorded, stepped.tr.Recorded)
		}
	})
}
