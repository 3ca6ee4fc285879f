package service

import "testing"

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
