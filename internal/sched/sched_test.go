package sched

import (
	"testing"

	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sim"
)

func newSched(cores int) (*sim.Engine, *Scheduler, *proc.Table) {
	eng := sim.NewEngine(1)
	return eng, New(eng, cores), proc.NewTable()
}

func appTask(tb *proc.Table, name string, weight int) *proc.Task {
	p := tb.NewProcess(name, tb.AllocUID(), proc.KindApp, 900)
	return tb.NewTask(p, "main", weight)
}

func TestSingleTaskRunsToCompletion(t *testing.T) {
	eng, s, tb := newSched(1)
	task := appTask(tb, "a", 0)
	s.Register(task)
	done := false
	s.Post(task, &proc.Work{CPU: 3 * sim.Millisecond, OnDone: func(_, _ sim.Time) { done = true }})
	eng.RunFor(10 * sim.Millisecond)
	if !done {
		t.Fatal("work did not complete")
	}
	if task.CPUTime != 3*sim.Millisecond {
		t.Fatalf("CPUTime %v", task.CPUTime)
	}
}

func TestFairSharingByWeight(t *testing.T) {
	eng, s, tb := newSched(1)
	heavy := appTask(tb, "heavy", 2*proc.DefaultWeight)
	light := appTask(tb, "light", proc.DefaultWeight)
	s.Register(heavy)
	s.Register(light)
	// Saturate both.
	for i := 0; i < 60; i++ {
		s.Post(heavy, &proc.Work{CPU: 10 * sim.Millisecond})
		s.Post(light, &proc.Work{CPU: 10 * sim.Millisecond})
	}
	eng.RunFor(300 * sim.Millisecond)
	ratio := float64(heavy.CPUTime) / float64(light.CPUTime)
	if ratio < 1.7 || ratio > 2.4 {
		t.Fatalf("weight-2 task got %.2fx CPU, want ≈2x", ratio)
	}
}

func TestMultiCoreParallelism(t *testing.T) {
	eng, s, tb := newSched(4)
	var tasks []*proc.Task
	for i := 0; i < 4; i++ {
		task := appTask(tb, "t", 0)
		s.Register(task)
		s.Post(task, &proc.Work{CPU: 50 * sim.Millisecond})
		tasks = append(tasks, task)
	}
	eng.RunFor(60 * sim.Millisecond)
	for i, task := range tasks {
		if task.CPUTime != 50*sim.Millisecond {
			t.Fatalf("task %d got %v on a 4-core system", i, task.CPUTime)
		}
	}
}

func TestSchedulerIdleWithoutWork(t *testing.T) {
	eng, s, tb := newSched(2)
	task := appTask(tb, "a", 0)
	s.Register(task)
	s.Post(task, &proc.Work{CPU: sim.Millisecond})
	eng.RunFor(10 * sim.Millisecond)
	events := eng.Dispatched()
	// With nothing runnable, the scheduler must not keep ticking.
	eng.RunFor(10 * sim.Second)
	if eng.Dispatched()-events > 2 {
		t.Fatalf("idle scheduler dispatched %d events", eng.Dispatched()-events)
	}
}

func TestFrozenTaskGetsNoCPU(t *testing.T) {
	eng, s, tb := newSched(1)
	p := tb.NewProcess("app", tb.AllocUID(), proc.KindApp, 900)
	task := tb.NewTask(p, "main", 0)
	s.Register(task)
	s.Post(task, &proc.Work{CPU: 10 * sim.Millisecond})
	p.Freeze(eng.Now())
	eng.RunFor(50 * sim.Millisecond)
	if task.CPUTime != 0 {
		t.Fatal("frozen task consumed CPU")
	}
	p.Thaw(eng.Now(), 0)
	// Thawing happens outside the scheduler's sight, so the wake-up must
	// go through Wake (as the android layer's thaw path does).
	s.Wake(p)
	eng.RunFor(50 * sim.Millisecond)
	if task.CPUTime != 10*sim.Millisecond {
		t.Fatalf("thawed task got %v", task.CPUTime)
	}
}

func TestBlockedTaskResumesAfterIO(t *testing.T) {
	eng, s, tb := newSched(1)
	task := appTask(tb, "a", 0)
	s.Register(task)
	var doneAt sim.Time
	wake := eng.Now() + 20*sim.Millisecond
	s.Post(task, &proc.Work{
		Setup:  func() (sim.Time, sim.Time) { return 0, wake },
		CPU:    2 * sim.Millisecond,
		OnDone: func(_, end sim.Time) { doneAt = end },
	})
	eng.RunFor(100 * sim.Millisecond)
	if doneAt < wake+2*sim.Millisecond {
		t.Fatalf("completed at %v, before I/O+CPU possible", doneAt)
	}
	if doneAt > wake+5*sim.Millisecond {
		t.Fatalf("completed at %v, too long after wake %v", doneAt, wake)
	}
}

func TestCPUAccountingByClass(t *testing.T) {
	eng, s, tb := newSched(2)
	kp := tb.NewProcess("kswapd", 0, proc.KindKernel, -1000)
	kt := tb.NewTask(kp, "kswapd", 0)
	ap := tb.NewProcess("app", tb.AllocUID(), proc.KindApp, 0)
	at := tb.NewTask(ap, "ui", 0)
	s.Register(kt)
	s.Register(at)
	s.SetForegroundUID(ap.UID)
	s.Post(kt, &proc.Work{CPU: 5 * sim.Millisecond})
	s.Post(at, &proc.Work{CPU: 7 * sim.Millisecond})
	eng.RunFor(50 * sim.Millisecond)
	st := s.Stats()
	if st.Busy[CPUKernel] != 5*sim.Millisecond {
		t.Fatalf("kernel busy %v", st.Busy[CPUKernel])
	}
	if st.Busy[CPUForegroundApp] != 7*sim.Millisecond {
		t.Fatalf("fg busy %v", st.Busy[CPUForegroundApp])
	}
	if st.TotalBusy() != 12*sim.Millisecond {
		t.Fatalf("total busy %v", st.TotalBusy())
	}
}

func TestUtilization(t *testing.T) {
	eng, s, tb := newSched(2)
	task := appTask(tb, "a", 0)
	s.Register(task)
	s.ResetStats()
	s.Post(task, &proc.Work{CPU: 100 * sim.Millisecond})
	eng.RunFor(100 * sim.Millisecond)
	util := s.Stats().Utilization()
	// One core busy of two for the whole window: 50 %.
	if util < 0.45 || util > 0.55 {
		t.Fatalf("utilisation %v, want ≈0.5", util)
	}
	if peak := s.Stats().PeakUtilization(); peak < util {
		t.Fatalf("peak %v below average %v", peak, util)
	}
}

func TestSpeedFnSlowsTask(t *testing.T) {
	eng, s, tb := newSched(1)
	task := appTask(tb, "slow", 0)
	s.Register(task)
	s.SetSpeedFn(func(*proc.Task) float64 { return 0.5 })
	done := sim.Time(0)
	s.Post(task, &proc.Work{CPU: 10 * sim.Millisecond, OnDone: func(_, end sim.Time) { done = end }})
	eng.RunFor(100 * sim.Millisecond)
	// At half speed, 10 ms of work needs ≈20 ms of wall time.
	if done < 19*sim.Millisecond || done > 25*sim.Millisecond {
		t.Fatalf("half-speed completion at %v, want ≈20ms", done)
	}
}

func TestWeightFnOverride(t *testing.T) {
	eng, s, tb := newSched(1)
	a := appTask(tb, "a", 0)
	b := appTask(tb, "b", 0)
	s.Register(a)
	s.Register(b)
	// Boost a 4x via policy, not task weight.
	s.SetWeightFn(func(t *proc.Task) int {
		if t == a {
			return 4 * proc.DefaultWeight
		}
		return t.Weight
	})
	for i := 0; i < 40; i++ {
		s.Post(a, &proc.Work{CPU: 10 * sim.Millisecond})
		s.Post(b, &proc.Work{CPU: 10 * sim.Millisecond})
	}
	eng.RunFor(200 * sim.Millisecond)
	ratio := float64(a.CPUTime) / float64(b.CPUTime)
	if ratio < 3.0 || ratio > 5.2 {
		t.Fatalf("boosted task CPU ratio %.2f, want ≈4", ratio)
	}
}

func TestNoDoubleExecutionPerQuantum(t *testing.T) {
	eng, s, tb := newSched(1)
	task := appTask(tb, "a", 0)
	s.Register(task)
	// OnDone reposting at the same instant must not grant extra CPU within
	// the same quantum round.
	var posts int
	var post func()
	post = func() {
		posts++
		if posts > 100 {
			return
		}
		s.Post(task, &proc.Work{CPU: sim.Millisecond, OnDone: func(_, _ sim.Time) { post() }})
	}
	post()
	eng.RunFor(10 * sim.Millisecond)
	// 10 ms of wall time on one core can grant at most ~10-11 ms of CPU.
	if task.CPUTime > 11*sim.Millisecond {
		t.Fatalf("task consumed %v CPU in 10ms of wall time", task.CPUTime)
	}
}

func TestWakeupBonusPreventsStarvation(t *testing.T) {
	eng, s, tb := newSched(1)
	hog := appTask(tb, "hog", 0)
	s.Register(hog)
	for i := 0; i < 1000; i++ {
		s.Post(hog, &proc.Work{CPU: 10 * sim.Millisecond})
	}
	eng.RunFor(2 * sim.Second)
	// A task waking after a long sleep must get CPU promptly.
	sleeper := appTask(tb, "sleeper", 0)
	s.Register(sleeper)
	var done sim.Time
	start := eng.Now()
	s.Post(sleeper, &proc.Work{CPU: sim.Millisecond, OnDone: func(_, end sim.Time) { done = end }})
	eng.RunFor(100 * sim.Millisecond)
	if done == 0 || done-start > 20*sim.Millisecond {
		t.Fatalf("sleeper waited %v for its first quantum", done-start)
	}
}

// TestDeadTaskLeavesQueue guards what a dead-task compaction of a
// separate task list once did. Launch loops kill tasks while they sit
// off the candidate queue (idle, blocked on I/O or frozen) and register
// fresh ones on every relaunch. runq is the scheduler's only record of
// tasks, so a killed task must leave it, backing array included, at the
// next tick, and the queue must stay as small as the live set however
// many tasks die.
func TestDeadTaskLeavesQueue(t *testing.T) {
	eng, s, tb := newSched(2)
	for i := 0; i < 500; i++ {
		p := tb.NewProcess("app", tb.AllocUID(), proc.KindApp, 900)
		idle := tb.NewTask(p, "idle", 0)
		busy := tb.NewTask(p, "busy", 0)
		io := tb.NewTask(p, "io", 0)
		for _, task := range []*proc.Task{idle, busy, io} {
			s.Register(task)
		}
		wake := eng.Now() + 5*sim.Millisecond
		s.Post(idle, &proc.Work{CPU: sim.Millisecond})
		s.Post(busy, &proc.Work{CPU: sim.Hour})
		s.Post(io, &proc.Work{Setup: func() (sim.Time, sim.Time) { return 0, wake }, CPU: sim.Millisecond})
		if i%2 == 1 {
			// Frozen: every task leaves the queue before the kill.
			p.Freeze(eng.Now())
		}
		eng.RunFor(3 * sim.Millisecond)
		p.Kill()
		tb.Remove(p)
		// The blocked task's pending unblock re-enqueues it after the
		// kill; the tick after that drops it.
		eng.RunFor(5 * sim.Millisecond)
		if len(s.runq) != 0 {
			t.Fatalf("cycle %d: %d tasks queued after every task died", i, len(s.runq))
		}
		for _, task := range s.runq[:cap(s.runq)] {
			if task != nil {
				t.Fatalf("cycle %d: queue's backing array still holds %s (pid %d)", i, task.Name, task.Proc.PID)
			}
		}
	}
	if c := cap(s.runq); c > 8 {
		t.Fatalf("candidate queue grew to capacity %d with at most 3 live tasks", c)
	}
}
