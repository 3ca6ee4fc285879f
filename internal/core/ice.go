package core

import (
	"math"
	"sort"

	"github.com/eurosys23/ice/internal/android"
	"github.com/eurosys23/ice/internal/mm"
	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/predict"
	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sim"
)

// Config parameterises ICE. The defaults are the paper's Table 4 values.
type Config struct {
	// Delta is MDT's weight coefficient δ (8.0 in the evaluation).
	Delta float64
	// Et is the thaw period per epoch (1 second by default).
	Et sim.Time
	// WhitelistAdj is the oom_score_adj at or below which an application is
	// user-perceptible and must never be frozen (200).
	WhitelistAdj int
	// TableMaxBytes bounds the mapping table (32 KB).
	TableMaxBytes int
	// MaxEf caps the freeze period so the epoch remains responsive even
	// under extreme pressure.
	MaxEf sim.Time

	// --- Ablation switches (all false/zero in the paper's configuration) ---

	// FreezeAllBG aggressively freezes every background app instead of only
	// refaulting ones (the strawman §4.2 argues against).
	FreezeAllBG bool
	// FixedR disables memory-aware intensity tuning, pinning E_f/E_t at the
	// given ratio (0 = dynamic per Equation 1).
	FixedR float64
	// ProcessGrain freezes only the faulting process rather than the whole
	// application (the robustness hazard §4.2.2 motivates against).
	ProcessGrain bool
	// DisableWhitelist ignores the adj whitelist (safety ablation).
	DisableWhitelist bool
	// DisableThawOnLaunch skips the asynchronous thaw when a frozen app is
	// switched to the foreground (it then thaws only at the next epoch).
	DisableThawOnLaunch bool

	// PredictiveThaw enables the §6.3.1 extension: a Markov app-usage
	// predictor observes foreground switches, and when the predicted next
	// application is frozen it is thawed ahead of time, hiding the thaw
	// (and part of the refault) latency from the next hot launch.
	PredictiveThaw bool
}

// DefaultConfig returns the paper's parameterisation.
func DefaultConfig() Config {
	return Config{
		Delta:         8.0,
		Et:            sim.Second,
		WhitelistAdj:  200,
		TableMaxBytes: DefaultTableMaxBytes,
		MaxEf:         64 * sim.Second,
	}
}

// Stats counts framework activity for the overhead analysis.
type Stats struct {
	RefaultEvents   uint64 // refault events observed
	SiftedKernel    uint64 // events from processes not in the mapping table
	SiftedFG        uint64 // events from the foreground application
	WhitelistHits   uint64 // events suppressed by the whitelist
	AlreadyFrozen   uint64 // events for apps already in the frozen set
	FreezeActions   uint64 // application freezes performed
	ThawActions     uint64 // application thaws performed (epochal)
	ThawOnLaunch    uint64 // asynchronous thaws due to FG switch
	PredictiveThaws uint64 // pre-thaws issued by the usage predictor
	Epochs          uint64 // completed heartbeat epochs
	MaxFrozenSet    int    // high-water mark of the frozen set
	UniqueFrozenUID int    // distinct applications ever frozen
}

// Framework is a live ICE instance attached to a simulated device.
type Framework struct {
	cfg Config
	sys *android.System

	table *MappingTable

	// frozen is MDT's frozen set: applications RPF has identified. They
	// are thawed for Et each epoch and refrozen for Ef.
	frozen map[int]bool
	// everFrozen tracks distinct frozen applications (§6.2.1 reports "only
	// 4 BG applications on average are frozen").
	everFrozen map[int]bool
	// vendorWhitelist holds UIDs vendors exempt offline (§4.4).
	vendorWhitelist map[int]bool

	// predictor drives the optional predictive pre-thaw.
	predictor *predict.Markov

	// inThaw marks the thawing period of the current epoch.
	inThaw bool
	// ef is the current freeze duration E_f.
	ef sim.Time

	stats Stats

	gR         *obs.Gauge
	gEf        *obs.Gauge
	gTableB    *obs.Gauge
	gFrozen    *obs.Gauge
	cWhitelist *obs.Counter
	cFreeze    *obs.Counter
	cThaw      *obs.Counter
}

// Attach installs ICE on a system: it builds the mapping table from the
// process lifecycle hooks, subscribes to refault events, registers
// thaw-on-launch, and starts the MDT heartbeat.
func Attach(sys *android.System, cfg Config) *Framework {
	if cfg.Delta <= 0 {
		cfg.Delta = 8.0
	}
	if cfg.Et <= 0 {
		cfg.Et = sim.Second
	}
	if cfg.MaxEf <= 0 {
		cfg.MaxEf = 64 * sim.Second
	}
	f := &Framework{
		cfg:             cfg,
		sys:             sys,
		table:           NewMappingTable(cfg.TableMaxBytes),
		frozen:          make(map[int]bool),
		everFrozen:      make(map[int]bool),
		vendorWhitelist: make(map[int]bool),
	}
	reg := sys.Eng.Obs()
	f.gR = reg.Gauge("ice.intensity_r")
	f.gEf = reg.Gauge("ice.ef_us")
	f.gTableB = reg.Gauge("ice.table_bytes")
	f.gFrozen = reg.Gauge("ice.frozen_set")
	f.cWhitelist = reg.Counter("ice.whitelist_hits")
	f.cFreeze = reg.Counter("ice.freeze_actions")
	f.cThaw = reg.Counter("ice.thaw_actions")

	// Mapping-table maintenance: the only cross-space communication, on
	// process lifecycle and score changes (§4.2.2).
	sys.Hooks.ProcStarted = append(sys.Hooks.ProcStarted, func(in *android.Instance, p *proc.Process) {
		_ = f.table.AddProcess(in.UID, p.PID, p.Adj)
	})
	sys.Hooks.ProcExited = append(sys.Hooks.ProcExited, func(in *android.Instance, p *proc.Process) {
		f.table.RemoveProcess(p.PID)
		if len(in.Processes()) == 0 {
			delete(f.frozen, in.UID)
		}
	})
	sys.Hooks.AdjChanged = append(sys.Hooks.AdjChanged, func(in *android.Instance) {
		f.table.SetAdj(in.UID, minAdj(in))
	})

	// Thaw-on-launch (§4.4): a frozen application switched to the
	// foreground is thawed before it must respond to the user.
	if !cfg.DisableThawOnLaunch {
		sys.Hooks.AppLaunch = append(sys.Hooks.AppLaunch, func(in *android.Instance) {
			if f.frozen[in.UID] {
				delete(f.frozen, in.UID)
				f.table.SetFrozen(in.UID, false)
				f.stats.ThawOnLaunch++
				sys.ThawApp(in.UID)
			}
		})
	}

	// Predictive pre-thaw (§6.3.1 extension): observe the app-switch
	// stream; when the likely next app is in the frozen set, thaw it
	// before the user asks for it.
	if cfg.PredictiveThaw {
		f.predictor = predict.NewMarkov()
		sys.Hooks.FGChange = append(sys.Hooks.FGChange, func(_, cur *android.Instance) {
			if cur == nil {
				return
			}
			f.predictor.Observe(cur.UID)
			if next, p, ok := f.predictor.Predict(); ok && p >= 0.3 && f.frozen[next] {
				delete(f.frozen, next)
				f.table.SetFrozen(next, false)
				f.stats.PredictiveThaws++
				sys.ThawApp(next)
			}
		})
	}

	// RPF: the refault event stream from the kernel's fault path.
	sys.MM.OnRefault(f.onRefault)

	// MDT heartbeat.
	f.ef = f.computeEf()
	f.scheduleFreezePhase()
	return f
}

// minAdj is the application's effective priority score: the minimum adj
// across its live processes (a perceptible service keeps the whole app on
// the whitelist).
func minAdj(in *android.Instance) int {
	procs := in.Processes()
	if len(procs) == 0 {
		return proc.AdjCachedMax
	}
	min := procs[0].Adj
	for _, p := range procs[1:] {
		if p.Adj < min {
			min = p.Adj
		}
	}
	return min
}

// Table exposes the mapping table (tests and the overhead analysis).
func (f *Framework) Table() *MappingTable { return f.table }

// Stats returns a snapshot of framework counters.
func (f *Framework) Stats() Stats {
	s := f.stats
	s.UniqueFrozenUID = len(f.everFrozen)
	return s
}

// FrozenSet returns the UIDs currently in the frozen set, in UID order.
// Epoch phases iterate this instead of the map so same-instant
// freeze/thaw trace events come out in a reproducible order — re-running
// a seed must yield byte-identical traces.
func (f *Framework) FrozenSet() []int {
	out := make([]int, 0, len(f.frozen))
	for uid := range f.frozen {
		out = append(out, uid)
	}
	sort.Ints(out)
	return out
}

// CurrentEf returns the current freeze period.
func (f *Framework) CurrentEf() sim.Time { return f.ef }

// WhitelistUID adds a vendor-managed offline whitelist entry (§4.4:
// antivirus trackers, call/message receivers).
func (f *Framework) WhitelistUID(uid int) { f.vendorWhitelist[uid] = true }

// ---------- RPF: refault-driven process freezing ----------

// onRefault is the kernel-side refault event handler (§4.2.1). It follows
// the event-condition-action rule: the event is the refault; the
// conditions are "background, freezable, not whitelisted"; the action is
// application-grain freezing.
func (f *Framework) onRefault(ev mm.RefaultEvent) {
	f.stats.RefaultEvents++

	// Process sifting: kernel threads and Android services never enter the
	// mapping table, so an unknown PID is sifted here.
	entry, ok := f.table.LookupPID(ev.PID)
	if !ok {
		f.stats.SiftedKernel++
		return
	}
	// Foreground refaults never freeze anyone.
	if ev.Foreground || ev.UID == f.sys.MM.ForegroundUID() {
		f.stats.SiftedFG++
		return
	}
	// Whitelist: perceptible applications (adj ≤ 200) and vendor-exempt
	// UIDs are protected.
	if !f.cfg.DisableWhitelist {
		if entry.Adj <= f.cfg.WhitelistAdj || f.vendorWhitelist[ev.UID] {
			f.stats.WhitelistHits++
			f.cWhitelist.Inc()
			return
		}
	}
	if f.frozen[ev.UID] {
		// Already identified this epoch; during a thaw period this is the
		// "frozen instantly, thawed next epoch" rule — refreeze now.
		f.stats.AlreadyFrozen++
		if f.inThaw {
			f.freezeUID(ev.UID, false)
		}
		return
	}
	f.freezeUID(ev.UID, true)
}

// freezeUID performs application-grain freezing (or process-grain under
// the ablation) and updates the mapping table.
func (f *Framework) freezeUID(uid int, addToSet bool) {
	if f.cfg.ProcessGrain {
		// Ablation: freeze only the first live process.
		procs := f.sys.Procs.AliveByUID(uid)
		if len(procs) > 0 {
			procs[0].Freeze(f.sys.Eng.Now())
		}
	} else {
		f.sys.FreezeApp(uid)
	}
	if addToSet {
		f.frozen[uid] = true
		f.everFrozen[uid] = true
		if len(f.frozen) > f.stats.MaxFrozenSet {
			f.stats.MaxFrozenSet = len(f.frozen)
		}
	}
	f.table.SetFrozen(uid, true)
	f.stats.FreezeActions++
	f.cFreeze.Inc()
	f.gFrozen.Set(int64(len(f.frozen)))
	f.gTableB.Set(int64(f.table.SizeBytes()))
}

// ---------- MDT: memory-aware dynamic thawing ----------

// computeEf evaluates Equation 1: R = δ·2^ceil(H_wm/S_am), E_f = R·E_t.
func (f *Framework) computeEf() sim.Time {
	var r float64
	if f.cfg.FixedR > 0 {
		r = f.cfg.FixedR
	} else {
		hwm := float64(f.sys.MM.Config().HighWatermark)
		sam := float64(f.sys.MM.AvailablePages())
		exp := math.Ceil(hwm / sam)
		if exp > 16 {
			exp = 16
		}
		if exp < 1 {
			exp = 1
		}
		r = f.cfg.Delta * math.Exp2(exp)
	}
	ef := sim.Time(r * float64(f.cfg.Et))
	if ef > f.cfg.MaxEf {
		ef = f.cfg.MaxEf
	}
	if ef < f.cfg.Et {
		ef = f.cfg.Et
	}
	f.gR.Set(int64(r))
	f.gEf.Set(int64(ef))
	return ef
}

// scheduleFreezePhase begins an epoch: (re)freeze the frozen set for E_f.
func (f *Framework) scheduleFreezePhase() {
	f.inThaw = false
	if f.cfg.FreezeAllBG {
		f.freezeAllBackground()
	}
	for _, uid := range f.FrozenSet() {
		f.freezeUID(uid, false)
	}
	f.sys.Eng.After(f.ef, f.scheduleThawPhase)
}

// scheduleThawPhase gives frozen applications their E_t of runtime, then
// re-evaluates the intensity and starts the next epoch.
func (f *Framework) scheduleThawPhase() {
	f.inThaw = true
	for _, uid := range f.FrozenSet() {
		if f.sys.ThawApp(uid) > 0 {
			f.stats.ThawActions++
			f.cThaw.Inc()
		}
		f.table.SetFrozen(uid, false)
	}
	f.gTableB.Set(int64(f.table.SizeBytes()))
	f.sys.Eng.After(f.cfg.Et, func() {
		f.stats.Epochs++
		// Memory-aware tuning: measure S_am now, at the epoch boundary.
		f.ef = f.computeEf()
		f.scheduleFreezePhase()
	})
}

// freezeAllBackground implements the FreezeAllBG ablation.
func (f *Framework) freezeAllBackground() {
	for _, in := range f.sys.AM.Apps() {
		if in.State() != android.StateCached || !in.Running() {
			continue
		}
		if entry, ok := f.table.LookupUID(in.UID); ok && !f.cfg.DisableWhitelist &&
			(entry.Adj <= f.cfg.WhitelistAdj || f.vendorWhitelist[in.UID]) {
			continue
		}
		f.frozen[in.UID] = true
		f.everFrozen[in.UID] = true
		f.freezeUID(in.UID, false)
	}
	if len(f.frozen) > f.stats.MaxFrozenSet {
		f.stats.MaxFrozenSet = len(f.frozen)
	}
}
