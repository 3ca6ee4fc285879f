package service

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// slowSpec is a 64-round run that holds a one-worker manager's running
// slot for seconds; distinct seeds never hit the result cache.
func slowSpec(seed int64) JobSpec {
	return JobSpec{
		Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "LRU+CFS",
		DurationSec: 2, Rounds: 64, Seed: seed, Workers: 1,
	}
}

// TestLevelGauges: the queued and running gauges, global and per
// principal, follow the fair queue through submit, dispatch, a cancel
// while queued, and a cancel while running.
func TestLevelGauges(t *testing.T) {
	m := NewManager(Config{MaxWorkers: 1, MaxRunningJobs: 1})
	submit := func(seed int64, principal string) JobView {
		t.Helper()
		v, err := m.SubmitAs(JobSpec{
			Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "LRU+CFS",
			DurationSec: 2, Rounds: 64, Seed: seed, Workers: 1,
		}, principal)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	want := func(step string, running, queued, aliceRunning, bobRunning, bobQueued int64) {
		t.Helper()
		snap := m.Metrics()
		for name, v := range map[string]int64{
			"service.jobs.running":              running,
			"service.jobs.queued":               queued,
			"service.tenant.running_jobs.alice": aliceRunning,
			"service.tenant.queued_jobs.alice":  0,
			"service.tenant.running_jobs.bob":   bobRunning,
			"service.tenant.queued_jobs.bob":    bobQueued,
		} {
			if got, _ := snap.Gauge(name); got != v {
				t.Errorf("%s: %s = %d, want %d", step, name, got, v)
			}
		}
	}
	cancel := func(id string) {
		t.Helper()
		if _, err := m.Cancel(id); err != nil {
			t.Fatal(err)
		}
		waitDoneMgr(t, m, id)
	}

	a := submit(1, "alice")
	b := submit(2, "bob")
	c := submit(3, "bob")
	want("submitted", 1, 2, 1, 0, 2)
	cancel(c.ID)
	want("queued job cancelled", 1, 1, 1, 0, 1)
	cancel(a.ID)
	want("running job cancelled", 1, 0, 0, 1, 0)
	cancel(b.ID)
	want("all terminal", 0, 0, 0, 0, 0)
}

// TestQueuedJobsHoldNoGoroutine: a queued job is data only. Forty
// submissions behind one running slot add the running job's goroutines
// and nothing per queued job, and no queued job holds a context.
func TestQueuedJobsHoldNoGoroutine(t *testing.T) {
	m := NewManager(Config{MaxWorkers: 1, MaxRunningJobs: 1})
	before := runtime.NumGoroutine()
	var ids []string
	for seed := int64(1); seed <= 40; seed++ {
		v, err := m.Submit(slowSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	if added := runtime.NumGoroutine() - before; added > 8 {
		t.Errorf("40 submissions added %d goroutines, want a bound that does not grow with the queue", added)
	}
	m.mu.Lock()
	queued := m.fq.len()
	for _, j := range m.jobs {
		if j.state == StateQueued && j.cancel != nil {
			t.Errorf("queued %s holds a context", j.id)
		}
	}
	m.mu.Unlock()
	if queued != 39 {
		t.Errorf("%d jobs queued, want 39", queued)
	}
	for _, id := range ids {
		m.Cancel(id)
	}
	drainMgr(t, m)
}

// TestCancelQueuedIsSynchronous: Cancel and CancelBy on a queued job
// return with the job cancelled, its stream closed on the terminal
// event, and the queued gauges already updated; the running job is
// untouched.
func TestCancelQueuedIsSynchronous(t *testing.T) {
	m := NewManager(Config{MaxWorkers: 1, MaxRunningJobs: 1})
	submit := func(seed int64, principal string) JobView {
		t.Helper()
		v, err := m.SubmitAs(slowSpec(seed), principal)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	running := submit(1, "alice")
	a := submit(2, "alice")
	b := submit(3, "bob")
	events, _, err := m.Subscribe(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step, id string, queued, aliceQueued, bobQueued int64) {
		t.Helper()
		if v, _ := m.Get(id); v.State != StateCancelled {
			t.Errorf("%s: %s reads %q right after the cancel, want cancelled", step, id, v.State)
		}
		snap := m.Metrics()
		for name, want := range map[string]int64{
			"service.jobs.queued":               queued,
			"service.tenant.queued_jobs.alice":  aliceQueued,
			"service.tenant.queued_jobs.bob":    bobQueued,
			"service.jobs.running":              1,
			"service.tenant.running_jobs.alice": 1,
		} {
			if got, _ := snap.Gauge(name); got != want {
				t.Errorf("%s: %s = %d, want %d", step, name, got, want)
			}
		}
	}

	if ok, err := m.Cancel(a.ID); !ok || err != nil {
		t.Fatalf("Cancel: %v %v", ok, err)
	}
	check("Cancel", a.ID, 1, 0, 1)
	select {
	case ev, ok := <-events:
		if !ok || ev.State != StateCancelled {
			t.Errorf("stream after Cancel: %+v (open %v), want the cancelled event", ev, ok)
		}
		if _, open := <-events; open {
			t.Error("stream still open after the terminal event")
		}
	default:
		t.Error("no terminal event when Cancel returned")
	}
	if ok, err := m.CancelBy(b.ID, "bob"); !ok || err != nil {
		t.Fatalf("CancelBy: %v %v", ok, err)
	}
	check("CancelBy", b.ID, 0, 0, 0)
	if v, _ := m.Get(running.ID); v.State != StateRunning {
		t.Errorf("running job reads %q, want running", v.State)
	}
	m.Cancel(running.ID)
	drainMgr(t, m)
}

// TestDrainDeadlineCancelsQueued: when Drain's deadline passes while
// jobs are queued, it cancels them on the spot and the running one at
// its next cell boundary, and returns the deadline error with every job
// terminal and none of the queued ones simulated.
func TestDrainDeadlineCancelsQueued(t *testing.T) {
	m := NewManager(Config{MaxWorkers: 1, MaxRunningJobs: 1})
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		v, err := m.Submit(slowSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: %v, want the deadline error", err)
	}
	for i, id := range ids {
		v, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateCancelled {
			t.Errorf("%s: %q after drain, want cancelled", id, v.State)
		}
		if i > 0 && v.Completed != 0 {
			t.Errorf("queued %s simulated %d cells", id, v.Completed)
		}
	}
	snap := m.Metrics()
	for _, name := range []string{"service.jobs.queued", "service.jobs.running"} {
		if got, _ := snap.Gauge(name); got != 0 {
			t.Errorf("%s = %d after drain, want 0", name, got)
		}
	}
}

// batchCellsWhile calls submit, which starts an interactive job and
// returns its ID, and reports how many cells the batch job completed
// from just before the submission until the interactive job's terminal
// event, read from its in-process stream (polling would count late),
// with that event. It fails the test if the batch job is no longer
// running then: the count would bound nothing.
func batchCellsWhile(t *testing.T, m *Manager, batchID string, submit func() string) (int, StreamEvent) {
	t.Helper()
	before, err := m.Get(batchID)
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := m.Subscribe(submit())
	if err != nil {
		t.Fatal(err)
	}
	var last StreamEvent
	for ev := range events {
		last = ev
	}
	after, err := m.Get(batchID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != StateRunning {
		t.Fatalf("batch job %s before the interactive job ended; lengthen it", after.State)
	}
	return after.Completed - before.Completed, last
}

// TestInteractiveCellsTakeFreedSlots: with the default MaxRunningJobs,
// an interactive job submitted while a batch job runs starts at once
// and takes every gate slot that frees until it ends. So at most
// 2·MaxWorkers batch cells complete meanwhile: those in flight at the
// submission, and as many that may take a slot before the interactive
// workers reach the gate. The batch cells' 60 s window outlasts that
// start-up.
func TestInteractiveCellsTakeFreedSlots(t *testing.T) { interactiveTakesSlots(t, 2) }

// TestOneWorkerInteractiveKeepsItsSlot is TestInteractiveCellsTakeFreedSlots
// for a one-worker interactive job. Its worker keeps its slot between
// cells (harness.Budget.Keep): were it to release the slot and ask
// again, the gate would hand it to a waiting batch worker each time.
func TestOneWorkerInteractiveKeepsItsSlot(t *testing.T) { interactiveTakesSlots(t, 1) }

// interactiveTakesSlots runs a 6-cell interactive job of the given
// worker count while a two-worker batch job runs on a one-slot gate,
// and fails if more than 2·MaxWorkers batch cells complete meanwhile.
func interactiveTakesSlots(t *testing.T, workers int) {
	const maxWorkers = 1
	m := NewManager(Config{MaxWorkers: maxWorkers})
	batch, err := m.Submit(JobSpec{
		Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice",
		DurationSec: 60, Rounds: 40, Seed: 31, Workers: 2, Priority: PriorityBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, err := m.Get(batch.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch job completed no cell (state %s)", v.State)
		}
		time.Sleep(time.Millisecond)
	}
	n, ev := batchCellsWhile(t, m, batch.ID, func() string {
		v, err := m.Submit(JobSpec{
			Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice",
			DurationSec: 2, Rounds: 6, Seed: 37, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return v.ID
	})
	if ev.State != StateDone {
		t.Fatalf("interactive job: %s (%s)", ev.State, ev.Error)
	}
	if n > 2*maxWorkers {
		t.Errorf("%d batch cells completed while the %d-worker interactive job ran, want at most %d", n, workers, 2*maxWorkers)
	}
	m.Cancel(batch.ID)
	drainMgr(t, m)
}

// TestCellGateInteractiveFirst: each freed slot goes to the oldest
// interactive waiter even when batch workers have waited longer, and to
// the oldest batch waiter once no interactive worker waits.
func TestCellGateInteractiveFirst(t *testing.T) {
	g := newCellGate(1)
	if g.enter(classBatch, nil) != nil {
		t.Fatal("no slot for the first worker of an idle gate")
	}
	b1 := g.enter(classBatch, nil)
	b2 := g.enter(classBatch, nil)
	i1 := g.enter(classInteractive, nil)
	i2 := g.enter(classInteractive, nil)
	order := []*gateWaiter{i1, i2, b1, b2}
	for k := range order {
		g.release(nil)
		for j, w := range order {
			if w.granted != (j <= k) {
				t.Fatalf("after release %d: waiter %d of the grant order granted %v", k, j, w.granted)
			}
		}
	}
	g.release(nil)
	if g.free != 1 {
		t.Fatalf("%d slots free after every holder released, want 1", g.free)
	}
}

// TestCellGateQuotaPassOver: a worker whose principal is at its
// max-cells waits without holding a slot, a younger worker of another
// principal takes the slot it cannot use, and the waiter is granted
// once its principal releases a cell.
func TestCellGateQuotaPassOver(t *testing.T) {
	g := newCellGate(2)
	carol := &cellQuota{max: 1}
	if g.enter(classInteractive, carol) != nil {
		t.Fatal("no slot for carol's first cell")
	}
	c2 := g.enter(classInteractive, carol)
	if c2 == nil || g.free != 1 || carol.held != 1 {
		t.Fatalf("carol's second cell: waiter %v, %d free, %d held; want it waiting with a slot free", c2, g.free, carol.held)
	}
	if g.enter(classBatch, nil) != nil {
		t.Fatal("bob's batch cell waits while a slot is free")
	}
	bob := g.enter(classBatch, nil)
	g.release(nil) // bob's first cell
	if c2.granted || !bob.granted {
		t.Fatalf("freed slot: carol granted %v, bob granted %v; want bob past carol's full quota", c2.granted, bob.granted)
	}
	g.release(carol)
	if !c2.granted || carol.held != 1 || g.free != 0 {
		t.Fatalf("carol's release: granted %v, %d held, %d free", c2.granted, carol.held, g.free)
	}
}

// TestCellGateCancelLeavesNoSlot: a worker whose context ends while it
// waits leaves the gate as it found it, and so does one whose grant
// raced the cancel: the slot goes to the next waiter or back to free.
func TestCellGateCancelLeavesNoSlot(t *testing.T) {
	g := newCellGate(1)
	b := gateBudget{g: g, class: classBatch}
	if !b.Acquire(context.Background()) {
		t.Fatal("no slot on an idle gate")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if b.Acquire(ctx) {
		t.Fatal("a cancelled worker was granted a held slot")
	}
	if len(g.waiting[classBatch]) != 0 || g.free != 0 {
		t.Fatalf("cancelled waiter left %d waiters, %d free", len(g.waiting[classBatch]), g.free)
	}

	// The grant lands first, then the cancel: leave hands the slot on.
	w := g.enter(classInteractive, nil)
	next := g.enter(classBatch, nil)
	g.release(nil)
	if !w.granted {
		t.Fatal("the interactive waiter was not granted")
	}
	g.leave(w)
	if !next.granted || g.free != 0 {
		t.Fatalf("a raced grant was not handed on: next granted %v, %d free", next.granted, g.free)
	}
	g.release(nil)
	if g.free != 1 {
		t.Fatalf("%d free after the last release, want 1", g.free)
	}

	// The same race through Acquire's select, many times over.
	for trial := 0; trial < 200; trial++ {
		if !b.Acquire(context.Background()) {
			t.Fatal("no slot on an idle gate")
		}
		ctx, cancel := context.WithCancel(context.Background())
		got := make(chan bool)
		go func() { got <- b.Acquire(ctx) }()
		for queued := false; !queued; {
			g.mu.Lock()
			queued = len(g.waiting[classBatch]) == 1
			g.mu.Unlock()
			runtime.Gosched()
		}
		go cancel()
		b.Release()
		if <-got {
			b.Release()
		}
		cancel()
		g.mu.Lock()
		free, waiting := g.free, len(g.waiting[classBatch])
		g.mu.Unlock()
		if free != 1 || waiting != 0 {
			t.Fatalf("trial %d: %d free, %d waiting after the race, want 1 and 0", trial, free, waiting)
		}
	}
}

// FuzzCellGate drives seeded enter/release/keep/cancel/resolve
// sequences over both classes and three principals (no quota,
// max-cells 1 and 2) through a gate of 1–4 slots. A resolve moves a
// granted waiter to the holders, as Acquire does once it sees the
// grant; a cancel may hit a waiter whose grant has already landed, the
// race Acquire's select can lose; a keep is a holder between two cells
// (a release op with the high bit set). After every step: free plus
// held slots equal the capacity; each quota's count equals its holders
// and stays within its max; no worker waits while a slot is free and
// its quota has room; no batch worker was granted a slot while an
// interactive worker whose quota has room waits; and a holder kept its
// slot only if no waiter of its class or a higher one could take it.
func FuzzCellGate(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 4, 8, 2, 3, 1, 6})
	f.Add([]byte{2, 9, 9, 13, 13, 4, 0, 2, 6, 7, 3, 11, 2})
	f.Add([]byte{0, 1, 5, 9, 13, 17, 2, 2, 3, 3, 7, 6, 10})
	f.Add([]byte{0, 0, 4, 129, 129})       // an interactive holder keeps its slot past a batch waiter
	f.Add([]byte{0, 4, 0, 129, 3})         // a batch holder hands its slot to an interactive waiter
	f.Add([]byte{1, 8, 0, 8, 133, 129, 3}) // keeps past a waiter at its max-cells, then hands on to that principal's
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := 1 + int(ops[0]%4)
		g := newCellGate(capacity)
		quotas := []*cellQuota{nil, {max: 1}, {max: 2}}
		type worker struct {
			class int
			quota *cellQuota
			w     *gateWaiter // nil once it holds a slot
		}
		var holders, pending []*worker
		pick := func(ws []*worker, op byte) ([]*worker, *worker) {
			i := int(op>>2) % len(ws)
			wk := ws[i]
			return append(ws[:i], ws[i+1:]...), wk
		}
		for step, op := range ops[1:] {
			wasGranted := map[*worker]bool{}
			for _, wk := range pending {
				wasGranted[wk] = wk.w.granted
			}
			var newBatch bool
			switch op % 4 {
			case 0: // a worker arrives
				wk := &worker{class: int(op>>2) % numClasses, quota: quotas[int(op>>3)%len(quotas)]}
				if wk.w = g.enter(wk.class, wk.quota); wk.w == nil {
					holders = append(holders, wk)
					newBatch = wk.class == classBatch
				} else {
					pending = append(pending, wk)
				}
			case 1: // a holder finishes its cell: it releases, or with the high bit keeps
				if len(holders) > 0 {
					var wk *worker
					holders, wk = pick(holders, op)
					if op&0x80 == 0 {
						g.release(wk.quota)
						break
					}
					// Who could take the slot ahead of a fresh enter.
					ahead := false
					for _, p := range pending {
						if !p.w.granted && p.class <= wk.class && (p.quota.room() || p.quota == wk.quota) {
							ahead = true
						}
					}
					if g.keep(wk.class, wk.quota) {
						if ahead {
							t.Fatalf("step %d: a holder kept its slot past a waiter that could take it", step)
						}
						holders = append(holders, wk)
					} else if !ahead {
						t.Fatalf("step %d: a holder gave up its slot with no waiter to take it", step)
					}
				}
			case 2: // a waiting worker's context ends
				if len(pending) > 0 {
					var wk *worker
					pending, wk = pick(pending, op)
					g.leave(wk.w)
				}
			case 3: // a granted waiter sees its grant
				if len(pending) > 0 {
					i := int(op>>2) % len(pending)
					if wk := pending[i]; wk.w.granted {
						pending = append(pending[:i], pending[i+1:]...)
						wk.w = nil
						holders = append(holders, wk)
					}
				}
			}

			granted := len(holders)
			held := map[*cellQuota]int{}
			for _, wk := range holders {
				held[wk.quota]++
			}
			waiting := 0
			for _, wk := range pending {
				if wk.w.granted {
					granted++
					held[wk.quota]++
					if !wasGranted[wk] && wk.class == classBatch {
						newBatch = true
					}
				} else {
					waiting++
				}
			}
			if g.free+granted != capacity {
				t.Fatalf("step %d: %d free + %d granted != %d slots", step, g.free, granted, capacity)
			}
			if n := len(g.waiting[classInteractive]) + len(g.waiting[classBatch]); n != waiting {
				t.Fatalf("step %d: gate lists %d waiters, %d wait", step, n, waiting)
			}
			for _, q := range quotas[1:] {
				if q.held != held[q] || q.held > q.max {
					t.Fatalf("step %d: quota max %d counts %d held, %d hold it", step, q.max, q.held, held[q])
				}
			}
			for _, wk := range pending {
				if wk.w.granted || !wk.quota.room() {
					continue
				}
				if g.free > 0 {
					t.Fatalf("step %d: a worker waits with %d slots free and room in its quota", step, g.free)
				}
				if newBatch && wk.class == classInteractive {
					t.Fatalf("step %d: a batch worker was granted while an interactive worker with quota room waits", step)
				}
			}
		}
	})
}
