package android

import (
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/trace"
)

// LMK is the low-memory killer: when reclaim fails to restore the minimum
// watermark, it kills the cached application with the highest
// oom_score_adj (the least recently used, non-perceptible one). Killed
// apps must cold launch next time — which is why ICE's reduced memory
// pressure translates into more hot launches (Figure 11b).
type LMK struct {
	sys *System

	// lastKill throttles kill storms: one kill per cooldown window.
	lastKill sim.Time

	// victimFn, when set, overrides victim selection — the OOMK-decision
	// seam schemes (SWAM) install. It receives the kill candidates in
	// cached-LRU order (oldest first) and returns the victim, or nil to
	// veto the kill.
	victimFn func(cands []*Instance) *Instance
}

// lmkCooldown is the minimum spacing between kills.
const lmkCooldown = 500 * sim.Millisecond

func newLMK(sys *System) *LMK {
	l := &LMK{sys: sys, lastKill: -lmkCooldown}
	sys.MM.OnPressure(l.onPressure)
	return l
}

func (l *LMK) onPressure() {
	now := l.sys.Eng.Now()
	// The cooldown paces ordinary kills; a device that is actually out of
	// physical memory cannot wait.
	if now-l.lastKill < lmkCooldown && l.sys.MM.FreePages() >= 0 {
		return
	}
	victim := l.pickVictim()
	if victim == nil {
		return
	}
	l.lastKill = now
	l.kill(victim)
}

// Kills reports the applications killed since the last measurement
// reset: the "lmk.kills" counter.
func (l *LMK) Kills() int { return int(l.sys.ins.lmkKills.Value()) }

// kill tears an application down and reindexes the cached list.
func (l *LMK) kill(victim *Instance) {
	l.sys.ins.lmkKills.Inc()
	for _, p := range l.sys.Procs.AliveByUID(victim.UID) {
		if p.Frozen() {
			// Killing a frozen app releases its slot in the frozen-set
			// gauge; the processes themselves die without a thaw.
			l.sys.ins.frozenApps.Add(-1)
			break
		}
	}
	l.sys.Trace.Emit(trace.Event{
		When: l.sys.Eng.Now(), Cat: trace.CatLMK, Name: "kill",
		Subject: victim.UID, Arg: int64(victim.ResidentPages()),
	})
	l.sys.AM.removeCached(victim)
	victim.teardown()
	l.sys.AM.refreshCachedAdj()
}

// KillForTest kills a specific application through the LMK teardown path.
// Tests use it to exercise kill-related bookkeeping deterministically.
func (l *LMK) KillForTest(in *Instance) { l.kill(in) }

// SetVictimFn installs a victim-selection policy consulted before the
// stock oldest-cached heuristic. Nil restores the default. The policy
// sees running cached candidates oldest-first (perceptible ones only
// when nothing else remains, mirroring the stock sparing rule).
func (l *LMK) SetVictimFn(fn func(cands []*Instance) *Instance) {
	l.victimFn = fn
}

// RequestKill asks the killer to select and kill one victim now, outside
// a pressure event — the proactive half of swap/OOMK collaboration
// (SWAM kills ahead of swap exhaustion instead of waiting for reclaim to
// fail). It honours the installed victim policy, counts like any LMK
// kill, and re-arms the kill cooldown. Returns the victim, or nil when
// no candidate exists or the policy vetoed.
func (l *LMK) RequestKill() *Instance {
	victim := l.pickVictim()
	if victim == nil {
		return nil
	}
	l.lastKill = l.sys.Eng.Now()
	l.kill(victim)
	return victim
}

// pickVictim returns the victim the installed policy chooses, falling
// back to the stock heuristic: the running cached app with the highest
// adj score, preferring the oldest entry in the cached list. Perceptible
// apps are spared unless nothing else remains.
func (l *LMK) pickVictim() *Instance {
	cached := l.sys.AM.cachedMRU
	var cands []*Instance
	for i := len(cached) - 1; i >= 0; i-- {
		if cached[i].Running() && !cached[i].Spec.Perceptible {
			cands = append(cands, cached[i])
		}
	}
	if len(cands) == 0 {
		for i := len(cached) - 1; i >= 0; i-- {
			if cached[i].Running() {
				cands = append(cands, cached[i])
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	if l.victimFn != nil {
		return l.victimFn(cands)
	}
	return cands[0]
}
