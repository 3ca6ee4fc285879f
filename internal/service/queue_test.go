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
