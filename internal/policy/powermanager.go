package policy

import (
	"sort"

	"github.com/eurosys23/ice/internal/android"
	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sim"
)

var powerManagerInfo = Info{
	Name:    "PowerManager",
	Aliases: []string{"power"},
	Desc:    "vendor duty-cycle freezing of energy-hungry BG apps (Table 5)",
	Axes:    []string{"Charging", "FreezePeriod", "ThawPeriod", "MaxTargets"},
	New:     func() Scheme { return &PowerManager{} },
}

// PowerManager models the power-oriented process freezing shipped by some
// vendors (§6.2.1, Table 5): it periodically freezes the background
// applications that consumed the most CPU (energy), on a fixed cycle with
// no memory awareness, and skips freezing entirely while the device is
// charging.
type PowerManager struct {
	// Charging disables freezing, as observed on some vendors' phones.
	Charging bool
	// FreezePeriod/ThawPeriod define the fixed duty cycle.
	FreezePeriod sim.Time
	ThawPeriod   sim.Time
	// MaxTargets is how many energy-hungry apps are frozen per cycle.
	MaxTargets int

	sys     *android.System
	frozen  map[int]bool
	lastCPU map[int]sim.Time
}

// Name implements Scheme.
func (*PowerManager) Name() string { return "PowerManager" }

// Attach implements Scheme.
func (p *PowerManager) Attach(sys *android.System) {
	if p.FreezePeriod <= 0 {
		p.FreezePeriod = 20 * sim.Second
	}
	if p.ThawPeriod <= 0 {
		p.ThawPeriod = 5 * sim.Second
	}
	if p.MaxTargets <= 0 {
		p.MaxTargets = 3
	}
	p.sys = sys
	p.frozen = make(map[int]bool)
	p.lastCPU = make(map[int]sim.Time)
	sys.Hooks.AppLaunch = append(sys.Hooks.AppLaunch, func(in *android.Instance) {
		if p.frozen[in.UID] {
			delete(p.frozen, in.UID)
			sys.ThawApp(in.UID)
		}
	})
	// An app that dies (LMK, uninstall) must not leave a CPU-accounting
	// entry behind: the UID may never launch again, and a long session
	// would otherwise accumulate one stale entry per killed app.
	sys.Hooks.ProcExited = append(sys.Hooks.ProcExited, func(in *android.Instance, _ *proc.Process) {
		if len(in.Processes()) == 0 {
			delete(p.lastCPU, in.UID)
			delete(p.frozen, in.UID)
		}
	})
	p.freezeCycle()
}

func (p *PowerManager) freezeCycle() {
	if !p.Charging {
		p.freezeHungriest()
	}
	p.sys.Eng.After(p.FreezePeriod, p.thawCycle)
}

func (p *PowerManager) thawCycle() {
	// Thaw in UID order, not map order: the same-instant thaw spans must
	// land in the trace in a reproducible order for a seed's trace bytes
	// to be identical across runs.
	uids := make([]int, 0, len(p.frozen))
	for uid := range p.frozen {
		uids = append(uids, uid)
	}
	sort.Ints(uids)
	for _, uid := range uids {
		p.sys.ThawApp(uid)
		delete(p.frozen, uid)
	}
	p.sys.Eng.After(p.ThawPeriod, p.freezeCycle)
}

// freezeHungriest freezes the cached apps with the highest CPU consumption
// since the last cycle — an energy heuristic, deliberately blind to memory
// pressure and refaults.
func (p *PowerManager) freezeHungriest() {
	type cand struct {
		in    *android.Instance
		delta sim.Time
	}
	var cands []cand
	for _, in := range p.sys.AM.Apps() {
		if in.State() != android.StateCached || !in.Running() || in.Spec.Perceptible {
			continue
		}
		var cpu sim.Time
		for _, pr := range in.Processes() {
			cpu += pr.TotalCPU()
		}
		delta := cpu - p.lastCPU[in.UID]
		p.lastCPU[in.UID] = cpu
		cands = append(cands, cand{in, delta})
	}
	// Selection sort for the top MaxTargets (tiny N).
	for i := 0; i < len(cands) && i < p.MaxTargets; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].delta > cands[best].delta {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
		if cands[i].delta <= 0 {
			break
		}
		uid := cands[i].in.UID
		p.sys.FreezeApp(uid)
		p.frozen[uid] = true
	}
}

// TrackedApps reports how many UIDs have a CPU-accounting entry (tests:
// the prune-on-exit regression check).
func (p *PowerManager) TrackedApps() int { return len(p.lastCPU) }
