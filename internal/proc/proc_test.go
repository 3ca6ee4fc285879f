package proc

import (
	"testing"
	"testing/quick"

	"github.com/eurosys23/ice/internal/sim"
)

func newAppProcess(tb *Table) (*Process, *Task) {
	p := tb.NewProcess("app", tb.AllocUID(), KindApp, AdjCachedBase)
	t := tb.NewTask(p, "main", DefaultWeight)
	return p, t
}

func TestTableAllocation(t *testing.T) {
	tb := NewTable()
	uid := tb.AllocUID()
	if uid < 10000 {
		t.Fatalf("app UID %d below Android range", uid)
	}
	p1, _ := newAppProcess(tb)
	p2, _ := newAppProcess(tb)
	if p1.PID == p2.PID {
		t.Fatal("duplicate PIDs")
	}
	if tb.Lookup(p1.PID) != p1 {
		t.Fatal("Lookup failed")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestByUIDGroupsProcesses(t *testing.T) {
	tb := NewTable()
	uid := tb.AllocUID()
	main := tb.NewProcess("app", uid, KindApp, 900)
	svc := tb.NewProcess("app:svc", uid, KindApp, 900)
	if got := len(tb.ByUID(uid)); got != 2 {
		t.Fatalf("ByUID returned %d processes", got)
	}
	main.Kill()
	alive := tb.AliveByUID(uid)
	if len(alive) != 1 || alive[0] != svc {
		t.Fatalf("AliveByUID wrong: %v", alive)
	}
}

func TestFreezeThawStateMachine(t *testing.T) {
	tb := NewTable()
	p, task := newAppProcess(tb)
	task.Post(0, &Work{CPU: sim.Millisecond})
	if !task.Runnable(0) {
		t.Fatal("task with work should be runnable")
	}
	if !p.Freeze(100) {
		t.Fatal("freeze failed")
	}
	if task.Runnable(100) {
		t.Fatal("frozen task is runnable")
	}
	if p.Freeze(100) {
		t.Fatal("double freeze should report false")
	}
	if p.FrozenSince() != 100 {
		t.Fatalf("FrozenSince %v", p.FrozenSince())
	}
	if !p.Thaw(200, 40*sim.Millisecond) {
		t.Fatal("thaw failed")
	}
	if task.Runnable(210) {
		t.Fatal("task runnable during thaw latency")
	}
	if !task.Runnable(200 + 40*sim.Millisecond) {
		t.Fatal("task not runnable after thaw latency")
	}
}

func TestKernelProcessNotFreezable(t *testing.T) {
	tb := NewTable()
	k := tb.NewProcess("kswapd0", 0, KindKernel, -1000)
	if k.Freeze(0) {
		t.Fatal("kernel process was frozen")
	}
	s := tb.NewProcess("system_server", 1000, KindService, -800)
	if s.Freeze(0) {
		t.Fatal("service process was frozen")
	}
}

func TestKillStopsEverything(t *testing.T) {
	tb := NewTable()
	p, task := newAppProcess(tb)
	task.Post(0, &Work{CPU: sim.Millisecond})
	p.Kill()
	if p.Alive() {
		t.Fatal("killed process alive")
	}
	if task.Runnable(0) {
		t.Fatal("task of killed process runnable")
	}
	if task.Post(0, &Work{CPU: 1}) {
		t.Fatal("posting to a dead process succeeded")
	}
}

func TestQueueBound(t *testing.T) {
	tb := NewTable()
	_, task := newAppProcess(tb)
	task.SetMaxQueue(2)
	if !task.Post(0, &Work{CPU: 1}) || !task.Post(0, &Work{CPU: 1}) {
		t.Fatal("posts under the bound failed")
	}
	if task.Post(0, &Work{CPU: 1}) {
		t.Fatal("post over the bound succeeded")
	}
	if task.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d", task.QueueLen())
	}
}

func TestExecuteConsumesCPU(t *testing.T) {
	tb := NewTable()
	_, task := newAppProcess(tb)
	var doneAt sim.Time
	task.Post(0, &Work{
		CPU:    2500,
		OnDone: func(_, end sim.Time) { doneAt = end },
	})
	used, blocked := task.Execute(0, 1000)
	if used != 1000 || blocked != 0 {
		t.Fatalf("first quantum used=%v blocked=%v", used, blocked)
	}
	used, _ = task.Execute(1000, 1000)
	if used != 1000 {
		t.Fatalf("second quantum used=%v", used)
	}
	used, _ = task.Execute(2000, 1000)
	if used != 500 {
		t.Fatalf("final quantum used=%v, want 500", used)
	}
	if doneAt != 2500 {
		t.Fatalf("completion at %v, want 2500", doneAt)
	}
	if task.CPUTime != 2500 {
		t.Fatalf("CPUTime %v", task.CPUTime)
	}
}

func TestExecuteSetupStallAddsWork(t *testing.T) {
	tb := NewTable()
	_, task := newAppProcess(tb)
	task.Post(0, &Work{
		Setup: func() (sim.Time, sim.Time) { return 300, 0 },
		CPU:   200,
	})
	used, _ := task.Execute(0, 1000)
	if used != 500 {
		t.Fatalf("used %v, want 500 (stall+CPU)", used)
	}
}

func TestExecuteBlocksOnIO(t *testing.T) {
	tb := NewTable()
	_, task := newAppProcess(tb)
	completed := false
	task.Post(0, &Work{
		Setup:  func() (sim.Time, sim.Time) { return 0, 5000 },
		CPU:    100,
		OnDone: func(_, _ sim.Time) { completed = true },
	})
	used, blockedUntil := task.Execute(0, 1000)
	if blockedUntil != 5000 {
		t.Fatalf("blockedUntil %v", blockedUntil)
	}
	if used != 0 {
		t.Fatalf("used %v before I/O", used)
	}
	if !task.Blocked() || task.Runnable(0) {
		t.Fatal("task should be blocked")
	}
	task.Unblock()
	if !task.Runnable(5000) {
		t.Fatal("task should be runnable after unblock")
	}
	used, _ = task.Execute(5000, 1000)
	if used != 100 || !completed {
		t.Fatalf("post-IO execution used=%v completed=%v", used, completed)
	}
}

func TestExecuteMultipleItemsInOneQuantum(t *testing.T) {
	tb := NewTable()
	_, task := newAppProcess(tb)
	count := 0
	for i := 0; i < 4; i++ {
		task.Post(0, &Work{CPU: 100, OnDone: func(_, _ sim.Time) { count++ }})
	}
	used, _ := task.Execute(0, 1000)
	if used != 400 || count != 4 {
		t.Fatalf("used=%v completed=%d", used, count)
	}
}

func TestOnDoneCanRepost(t *testing.T) {
	tb := NewTable()
	_, task := newAppProcess(tb)
	runs := 0
	var post func()
	post = func() {
		task.Post(0, &Work{CPU: 100, OnDone: func(_, _ sim.Time) {
			runs++
			if runs < 3 {
				post()
			}
		}})
	}
	post()
	task.Execute(0, 10000)
	if runs != 3 {
		t.Fatalf("chained work ran %d times", runs)
	}
}

func TestRemoveProcess(t *testing.T) {
	tb := NewTable()
	p, _ := newAppProcess(tb)
	p.Kill()
	tb.Remove(p)
	if tb.Lookup(p.PID) != nil {
		t.Fatal("Remove left the PID")
	}
	if len(tb.ByUID(p.UID)) != 0 {
		t.Fatal("Remove left the UID mapping")
	}
}

func TestAllIsPIDOrdered(t *testing.T) {
	tb := NewTable()
	for i := 0; i < 10; i++ {
		newAppProcess(tb)
	}
	all := tb.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].PID >= all[i].PID {
			t.Fatal("All not PID-ordered")
		}
	}
}

func TestTotalCPUSumsTasks(t *testing.T) {
	tb := NewTable()
	p, t1 := newAppProcess(tb)
	t2 := tb.NewTask(p, "worker", DefaultWeight)
	t1.Post(0, &Work{CPU: 100})
	t2.Post(0, &Work{CPU: 200})
	t1.Execute(0, 1000)
	t2.Execute(0, 1000)
	if p.TotalCPU() != 300 {
		t.Fatalf("TotalCPU %v", p.TotalCPU())
	}
}

// Property: the freezer never leaves a task runnable while its process is
// frozen, across arbitrary freeze/thaw/post sequences.
func TestFreezerInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		tb := NewTable()
		p, task := newAppProcess(tb)
		now := sim.Time(0)
		for _, op := range ops {
			now += sim.Time(op) * sim.Millisecond
			switch op % 4 {
			case 0:
				p.Freeze(now)
			case 1:
				p.Thaw(now, 10*sim.Millisecond)
			case 2:
				task.Post(now, &Work{CPU: 100})
			case 3:
				if task.Runnable(now) {
					task.Execute(now, 1000)
				}
			}
			if p.Frozen() && task.Runnable(now) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
