package android

import (
	"github.com/eurosys23/ice/internal/app"
	"github.com/eurosys23/ice/internal/mm"
	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sim"
)

// AppState is an application's lifecycle state.
type AppState int

// Application lifecycle states.
const (
	StateNotRunning AppState = iota // never launched, or killed by the LMK
	StateCached                     // alive in the background
	StateForeground                 // the app the user interacts with
)

// String implements fmt.Stringer.
func (s AppState) String() string {
	switch s {
	case StateNotRunning:
		return "not-running"
	case StateCached:
		return "cached"
	case StateForeground:
		return "foreground"
	default:
		return "unknown"
	}
}

// Instance is the runtime of one installed application: its processes,
// tasks, page regions and background-activity timers.
type Instance struct {
	Spec app.Spec
	UID  int

	sys *System
	rng *sim.Rand

	state AppState

	main *proc.Process
	svc  *proc.Process

	uiTask  *proc.Task
	gcTask  *proc.Task
	workers []*proc.Task
	svcTask *proc.Task

	filePages   []mm.PageID
	nativePages []mm.PageID
	javaPages   []mm.PageID
	churnIdx    int

	// launchSeq invalidates stale timers across kill/relaunch cycles.
	launchSeq int

	usageActive bool

	scratch []mm.PageID

	// streamRing holds streamed file-cache pages (see streamFile).
	streamRing []mm.PageID
}

// State returns the lifecycle state.
func (in *Instance) State() AppState { return in.state }

// Name returns the application name.
func (in *Instance) Name() string { return in.Spec.Name }

// Running reports whether the app has live processes.
func (in *Instance) Running() bool { return in.state != StateNotRunning }

// Frozen reports whether the app's main process is frozen.
func (in *Instance) Frozen() bool { return in.main != nil && in.main.Frozen() }

// MainPID returns the main process PID (0 if not running).
func (in *Instance) MainPID() int {
	if in.main == nil {
		return 0
	}
	return in.main.PID
}

// Processes returns the app's live processes.
func (in *Instance) Processes() []*proc.Process {
	return in.sys.Procs.AliveByUID(in.UID)
}

// ResidentPages counts the app's resident pages across processes.
func (in *Instance) ResidentPages() int {
	var n int
	for _, p := range in.Processes() {
		n += in.sys.MM.ResidentOf(p.PID)
	}
	return n
}

// pick selects n page IDs from region with 70 % bias toward the hot
// quarter, appending to out.
func (in *Instance) pick(region []mm.PageID, n int, out []mm.PageID) []mm.PageID {
	return in.pickBias(region, n, 0.7, out)
}

// pickBias selects n page IDs, each drawn from the hot quarter with
// probability hotBias and uniformly otherwise.
func (in *Instance) pickBias(region []mm.PageID, n int, hotBias float64, out []mm.PageID) []mm.PageID {
	if len(region) == 0 || n <= 0 {
		return out
	}
	hot := len(region) / 4
	if hot < 1 {
		hot = 1
	}
	for i := 0; i < n; i++ {
		var idx int
		if in.rng.Bool(hotBias) {
			idx = in.rng.Intn(hot)
		} else {
			idx = in.rng.Intn(len(region))
		}
		out = append(out, region[idx])
	}
	return out
}

// touchMix touches n pages spread over the app's regions (35 % file, 35 %
// native, 30 % Java — the blend behind Figure 4's refault categorisation)
// and returns the memory cost.
func (in *Instance) touchMix(n int) mm.Cost {
	return in.touchMixHot(n, 0.7)
}

// touchMixHot is touchMix with an explicit hot-set bias. Background scans
// (timeline refresh, notification DB walks) use a low bias: they sweep cold
// regions, which is exactly where the evicted pages are — hence refaults.
func (in *Instance) touchMixHot(n int, hotBias float64) mm.Cost {
	in.scratch = in.scratch[:0]
	in.scratch = in.pickBias(in.filePages, n*35/100, hotBias, in.scratch)
	in.scratch = in.pickBias(in.nativePages, n*35/100, hotBias, in.scratch)
	in.scratch = in.pickBias(in.javaPages, n-(n*35/100)*2, hotBias, in.scratch)
	return in.sys.MM.Touch(in.MainPID(), in.scratch)
}

// hotCoreSize is the page count of the tiny always-touched core a quiet
// background app keeps warm (message loop state, a few shared maps).
const hotCoreSize = 64

// touchHotCore touches n pages drawn from the small resident core of each
// region. Because the same pages are hit on every wake, their referenced
// bits keep them resident and quiet apps cause (almost) no refaults.
func (in *Instance) touchHotCore(n int) mm.Cost {
	in.scratch = in.scratch[:0]
	for _, region := range [][]mm.PageID{in.filePages, in.nativePages, in.javaPages} {
		core := region
		if len(core) > hotCoreSize {
			core = core[:hotCoreSize]
		}
		for i := 0; i < n/3 && len(core) > 0; i++ {
			in.scratch = append(in.scratch, core[in.rng.Intn(len(core))])
		}
	}
	return in.sys.MM.Touch(in.MainPID(), in.scratch)
}

// spawn creates the app's processes and tasks and starts its activity
// timers. Called on cold launch.
func (in *Instance) spawn() {
	sys := in.sys
	in.launchSeq++
	in.main = sys.Procs.NewProcess(in.Spec.Name, in.UID, proc.KindApp, proc.AdjForeground)
	in.uiTask = sys.Procs.NewTask(in.main, "ui", proc.DefaultWeight)
	in.uiTask.SetMaxQueue(3)
	in.gcTask = sys.Procs.NewTask(in.main, "HeapTaskDaemon", proc.DefaultWeight/2)
	sys.Sched.Register(in.uiTask)
	sys.Sched.Register(in.gcTask)
	workers := in.Spec.BGWorkers
	if workers < 1 {
		workers = 1
	}
	in.workers = in.workers[:0]
	for i := 0; i < workers; i++ {
		w := sys.Procs.NewTask(in.main, "worker", proc.DefaultWeight)
		sys.Sched.Register(w)
		in.workers = append(in.workers, w)
	}
	for _, fn := range sys.Hooks.ProcStarted {
		fn(in, in.main)
	}
	if in.Spec.HasService {
		in.svc = sys.Procs.NewProcess(in.Spec.Name+":svc", in.UID, proc.KindApp, proc.AdjService)
		in.svcTask = sys.Procs.NewTask(in.svc, "svc", proc.DefaultWeight)
		sys.Sched.Register(in.svcTask)
		for _, fn := range sys.Hooks.ProcStarted {
			fn(in, in.svc)
		}
	}
	in.startTimers()
}

// startTimers arms the background activity streams for the current
// incarnation of the app.
func (in *Instance) startTimers() {
	seq := in.launchSeq
	sys := in.sys
	spec := in.Spec

	// Main/worker wakeups: the §3.2 "BG applications are not as quiet as
	// expected" behaviour. Each worker stream wakes independently.
	if spec.BGWakePeriod > 0 {
		for i, w := range in.workers {
			task := w
			offset := sim.Time(i) * spec.BGWakePeriod / sim.Time(len(in.workers))
			rng := in.rng.Split()
			period := rng.Jitter(spec.BGWakePeriod, 0.25)
			missed := 0
			var due sim.Time
			// The stream polls at a fine grain so that work deferred by
			// the freezer is delivered promptly once the app thaws
			// (alarms and jobs fire on unfreeze) — within MDT's
			// one-second thaw window, not at the next multi-second
			// period boundary.
			const poll = 400 * sim.Millisecond
			// The wake executes as a chain of sub-phases, each touching part
			// of the working set and then computing. Wakes never overlap (a
			// new wake coalesces while the previous chain still queues), so
			// one prebuilt Work per sub-phase serves every wake of this
			// stream; the per-wake parameters flow through stream variables.
			const parts = 3
			var wakeTouch int
			var wakeHotBias float64
			var wakeCPU sim.Time
			var partWork [parts]*proc.Work
			for k := 0; k < parts; k++ {
				k := k
				w := &proc.Work{
					Name: "bg-wake",
					Setup: func() (sim.Time, sim.Time) {
						var c mm.Cost
						if spec.BGSweep {
							c = in.touchMixHot(wakeTouch/parts, wakeHotBias)
							if k == 0 {
								// Slow background accretion (sync
								// results, notifications), capped
								// tightly.
								c.Add(in.grow(1, 1.1))
							}
						} else {
							c = in.touchHotCore(wakeTouch / parts)
						}
						return c.Stall, c.BlockUntil
					},
				}
				if k+1 < parts {
					w.OnDone = func(_, _ sim.Time) {
						// The chain is in-flight syscall work: the
						// freezer only stops a task at its next
						// freezable point, so a wake that already
						// started runs to completion even if RPF
						// froze the app at its first refault.
						if seq == in.launchSeq && in.main.Alive() {
							next := partWork[k+1]
							next.CPU = rng.Jitter(wakeCPU/parts, 0.3)
							sys.Sched.Post(task, next)
						}
					}
				}
				partWork[k] = w
			}
			sys.Eng.After(offset, func() {
				due = sys.Eng.Now() + period
				sys.Eng.Every(poll, func() bool {
					if seq != in.launchSeq || !in.main.Alive() {
						return false
					}
					if in.state != StateCached {
						due = sys.Eng.Now() + period
						return true // stay armed, do nothing
					}
					if in.main.Frozen() {
						// Jobs and alarms coalesce while frozen; the app
						// catches up when thawed (MDT's thaw period, or a
						// launch). This is why thawed applications still
						// cause some refaults under ICE.
						if sys.Eng.Now() >= due {
							if missed < 2 {
								missed++
							}
							due = sys.Eng.Now() + period
						}
						return true
					}
					if missed == 0 && sys.Eng.Now() < due {
						return true // not yet time for the next wake
					}
					due = sys.Eng.Now() + period
					if task.QueueLen() > 0 {
						// Previous wake still executing: coalesce. Under
						// schemes that starve background CPU (UCSG), this
						// is what converts CPU demotion into fewer memory
						// sweeps.
						return true
					}
					// Most wakes are routine; sweeper apps occasionally run
					// a full sync (timeline refresh, mailbox scan) touching
					// several times more memory. The resulting refault
					// bursts outpace kswapd for tens of milliseconds — the
					// windows where the foreground stalls in the allocation
					// slow path.
					touch := spec.BGWakeTouch
					cpu := scaleCPU(spec.BGWakeCPU, sys)
					hotBias := 0.9
					if spec.BGSweep {
						hotBias = 0.4
						if rng.Bool(0.25) {
							touch *= 3
							cpu *= 2
						}
					}
					if missed > 0 {
						touch *= 1 + missed
						cpu += cpu * sim.Time(missed) / 2
						missed = 0
					}
					// Kick off the sub-phase chain. A starved task (UCSG's
					// demoted background) holds its queue for most of a
					// period, so subsequent wakes coalesce and its
					// memory-sweep throughput really drops — the mechanism
					// behind UCSG's ~24 % refault reduction.
					wakeTouch, wakeHotBias, wakeCPU = touch, hotBias, cpu
					first := partWork[0]
					first.CPU = rng.Jitter(cpu/parts, 0.3)
					sys.Sched.Post(task, first)
					return true
				})
			})
		}
	}

	// Runtime GC: touches the Java heap and churns allocations. Quiet
	// apps collect far less often — they allocate little in the BG.
	if spec.GCPeriod > 0 && spec.JavaPages > 0 {
		rng := in.rng.Split()
		gcPeriod := spec.GCPeriod
		if !spec.BGSweep {
			gcPeriod *= 3
		}
		gc := &workPool{sched: sys.Sched, name: "gc", setup: func() (sim.Time, sim.Time) {
			var cost mm.Cost
			n := int(float64(len(in.javaPages)) * spec.GCTouchFrac)
			in.scratch = in.scratch[:0]
			in.scratch = in.pick(in.javaPages, n, in.scratch)
			cost.Add(sys.MM.Touch(in.MainPID(), in.scratch))
			cost.Add(in.churnJava(spec.GCChurn))
			return cost.Stall, cost.BlockUntil
		}}
		sys.Eng.Every(rng.Jitter(gcPeriod, 0.2), func() bool {
			if seq != in.launchSeq || !in.main.Alive() {
				return false
			}
			if in.main.Frozen() {
				return true
			}
			if in.state == StateCached && !spec.BGSweep {
				// Quiet apps allocate nothing while cached, so the idle
				// runtime GC has nothing to do — they stay memory-silent
				// and ICE never needs to freeze them.
				return true
			}
			gc.post(in.gcTask, rng.Jitter(scaleCPU(20*sim.Millisecond, sys), 0.4))
			return true
		})
	}

	// Service process (push, location): keeps running in the background
	// unless the whole application is frozen — which is exactly why ICE
	// freezes at application grain.
	if spec.HasService && spec.ServicePeriod > 0 {
		rng := in.rng.Split()
		svc := &workPool{sched: sys.Sched, name: "service", setup: func() (sim.Time, sim.Time) {
			c := in.touchMix(spec.ServiceTouch)
			return c.Stall, c.BlockUntil
		}}
		sys.Eng.Every(rng.Jitter(spec.ServicePeriod, 0.25), func() bool {
			if seq != in.launchSeq || in.svc == nil || !in.svc.Alive() {
				return false
			}
			if in.svc.Frozen() {
				return true
			}
			svc.post(in.svcTask, rng.Jitter(scaleCPU(spec.ServiceCPU, sys), 0.3))
			return true
		})
	}
}

// grow allocates n net-new anonymous pages (60 % native, 40 % Java heap):
// caches, decoded media, fetched content. Beyond capFrac times the base
// footprint, old cache pages are dropped one-for-one (turnover), so
// long-running apps stabilise instead of ballooning.
func (in *Instance) grow(n int, capFrac float64) mm.Cost {
	var cost mm.Cost
	if n <= 0 || in.main == nil || !in.main.Alive() {
		return cost
	}
	pid := in.MainPID()
	nNative := n * 6 / 10
	nJava := n - nNative
	if nNative > 0 {
		var c mm.Cost
		in.nativePages, c = in.sys.MM.MapAppend(in.nativePages, pid, in.UID, mm.AnonNative, nNative)
		cost.Add(c)
	}
	if nJava > 0 {
		var c mm.Cost
		in.javaPages, c = in.sys.MM.MapAppend(in.javaPages, pid, in.UID, mm.AnonJava, nJava)
		cost.Add(c)
	}
	limit := int(float64(in.Spec.TotalPages()) * capFrac)
	over := len(in.filePages) + len(in.nativePages) + len(in.javaPages) - limit
	for over > 0 {
		region := &in.nativePages
		if len(in.javaPages) > len(in.nativePages) {
			region = &in.javaPages
		}
		dropColdPage(in.sys.MM, region)
		over--
	}
	return cost
}

// streamRingCap bounds the streamed-file-cache ring; beyond it the oldest
// entries (typically already evicted) are released.
const streamRingCap = 1200

// streamFile ingests n fresh file-cache pages (video segments, images,
// tiles). They are read sequentially from flash, mapped once, and never
// touched again: reclaim ages them out, producing reclaim volume with no
// matching refaults.
func (in *Instance) streamFile(n int) mm.Cost {
	var cost mm.Cost
	if n <= 0 || in.main == nil || !in.main.Alive() {
		return cost
	}
	completion := in.sys.Disk.Read(n, nil)
	if completion > cost.BlockUntil {
		cost.BlockUntil = completion
	}
	var c mm.Cost
	in.streamRing, c = in.sys.MM.MapAppend(in.streamRing, in.MainPID(), in.UID, mm.File, n)
	cost.Add(c)
	if len(in.streamRing) > streamRingCap {
		drop := len(in.streamRing) - streamRingCap
		in.sys.MM.FreePagesOf(in.streamRing[:drop])
		in.streamRing = append(in.streamRing[:0], in.streamRing[drop:]...)
	}
	return cost
}

// dropColdPage frees one mid-region page (a representative cold cache
// entry), preserving the hot prefix.
func dropColdPage(m *mm.Manager, region *[]mm.PageID) {
	r := *region
	if len(r) == 0 {
		return
	}
	idx := len(r) / 2
	m.FreePagesOf(r[idx : idx+1])
	r[idx] = r[len(r)-1]
	*region = r[:len(r)-1]
}

// churnJava frees the oldest churn Java pages and allocates fresh ones,
// modelling GC compaction/allocation churn.
func (in *Instance) churnJava(churn int) mm.Cost {
	var cost mm.Cost
	if churn <= 0 || len(in.javaPages) == 0 {
		return cost
	}
	if churn > len(in.javaPages) {
		churn = len(in.javaPages)
	}
	pid, seq := in.MainPID(), in.launchSeq
	start := in.churnIdx % len(in.javaPages)
	for i := 0; i < churn; i++ {
		idx := (start + i) % len(in.javaPages)
		in.sys.MM.FreePagesOf(in.javaPages[idx : idx+1])
		id, c := in.sys.MM.MapOne(pid, in.UID, mm.AnonJava)
		cost.Add(c)
		if seq != in.launchSeq {
			// MapOne's direct reclaim let the LMK kill this very app, and
			// teardown already exited pid: release the page just mapped
			// to it so nothing outlives the process, and stop churning.
			in.sys.MM.ExitProcess(pid)
			return cost
		}
		in.javaPages[idx] = id
	}
	in.churnIdx = (start + churn) % len(in.javaPages)
	return cost
}

// scaleCPU applies the device's CPU speed factor.
func scaleCPU(t sim.Time, sys *System) sim.Time {
	return sim.Time(float64(t) * sys.Dev.CPUFactor)
}

// setAdj sets the oom_score_adj on all live processes and notifies hooks.
func (in *Instance) setAdj(mainAdj int) {
	if in.main != nil && in.main.Alive() {
		in.main.Adj = mainAdj
	}
	if in.svc != nil && in.svc.Alive() {
		svcAdj := mainAdj
		if mainAdj == proc.AdjForeground {
			svcAdj = proc.AdjService
		}
		in.svc.Adj = svcAdj
	}
	for _, fn := range in.sys.Hooks.AdjChanged {
		fn(in)
	}
}

// teardown destroys the app after an LMK kill: processes die, memory is
// released, timers expire via launchSeq.
func (in *Instance) teardown() {
	in.launchSeq++
	sys := in.sys
	for _, p := range []*proc.Process{in.main, in.svc} {
		if p == nil || !p.Alive() {
			continue
		}
		p.Kill()
		sys.MM.ExitProcess(p.PID)
		for _, fn := range sys.Hooks.ProcExited {
			fn(in, p)
		}
		sys.Procs.Remove(p)
	}
	in.main, in.svc = nil, nil
	in.uiTask, in.gcTask, in.svcTask = nil, nil, nil
	in.workers = in.workers[:0]
	in.filePages = in.filePages[:0]
	in.nativePages = in.nativePages[:0]
	in.javaPages = in.javaPages[:0]
	in.streamRing = in.streamRing[:0]
	in.churnIdx = 0
	in.state = StateNotRunning
	in.usageActive = false
}

// StartUsage begins a light interactive-usage stream on the app (the
// Monkey tool of §6.3): 15 events per second, each touching foreground
// pages and consuming CPU. Used by the launch-loop experiments where full
// 60 Hz rendering is not being measured.
func (in *Instance) StartUsage() {
	if in.usageActive || in.uiTask == nil {
		return
	}
	in.usageActive = true
	seq := in.launchSeq
	sys := in.sys
	rng := in.rng.Split()
	touch := in.Spec.Render.TouchPages / 2
	if touch < 4 {
		touch = 4
	}
	cpu := in.Spec.Render.BaseCPU / 3
	monkey := &workPool{sched: sys.Sched, name: "monkey", setup: func() (sim.Time, sim.Time) {
		c := in.touchMix(touch)
		return c.Stall, c.BlockUntil
	}}
	sys.Eng.Every(66*sim.Millisecond, func() bool {
		if seq != in.launchSeq || !in.usageActive || in.state != StateForeground {
			in.usageActive = false
			return false
		}
		monkey.post(in.uiTask, rng.Jitter(scaleCPU(cpu, sys), 0.3))
		return true
	})
}

// StopUsage ends the interactive-usage stream.
func (in *Instance) StopUsage() { in.usageActive = false }
