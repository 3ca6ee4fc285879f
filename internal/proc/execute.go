package proc

import "github.com/eurosys23/ice/internal/sim"

// Execute runs the task for up to budget CPU time starting at now, working
// through its queue. It returns the CPU consumed and, if a work item's
// memory phase blocked on I/O, the absolute time the task must sleep until
// (zero otherwise). The scheduler arranges the wake-up.
func (t *Task) Execute(now sim.Time, budget sim.Time) (used sim.Time, blockedUntil sim.Time) {
	for used < budget {
		w := t.Current()
		if w == nil {
			break
		}
		if !w.setupDone {
			w.setupDone = true
			if w.Setup != nil {
				stall, blockUntil := w.Setup()
				// Synchronous stalls (fault handling, decompression, lock
				// waits, direct reclaim) burn the task's CPU time.
				w.remaining += stall
				if blockUntil > now+used {
					t.Block()
					t.CPUTime += used
					return used, blockUntil
				}
			}
		}
		run := w.remaining
		if run > budget-used {
			run = budget - used
		}
		w.remaining -= run
		used += run
		if w.remaining <= 0 {
			t.FinishCurrent()
			if w.OnDone != nil {
				w.OnDone(w.posted, now+used)
			}
		}
	}
	t.CPUTime += used
	return used, 0
}

// Burnable reports how many budget-sized quanta the in-progress item can
// absorb with none of them finishing it: k such that Execute, called k
// times with budget, would each time only run that item for the whole
// budget. It is 0 unless an item is in progress with its Setup done.
func (t *Task) Burnable(budget sim.Time) int64 {
	w := t.cur
	if w == nil || !w.setupDone || w.remaining <= budget {
		return 0
	}
	return int64((w.remaining - 1) / budget)
}

// Burn accounts k quanta of budget on the in-progress item, exactly as k
// Execute calls would when Burnable(budget) ≥ k.
func (t *Task) Burn(k int64, budget sim.Time) {
	d := sim.Time(k) * budget
	t.cur.remaining -= d
	t.CPUTime += d
}
