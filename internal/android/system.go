// Package android models the parts of the Android stack that the paper's
// mechanisms live in: the activity manager (foreground switching, cold/hot
// launches, oom_score_adj maintenance), the low-memory killer, the frame
// pipeline whose FPS/RIA the evaluation measures, and the kernel threads
// (kswapd) that perform background reclaim.
//
// A System wires one simulated device together: engine, flash, ZRAM, memory
// manager, scheduler, process table and framework services. Management
// schemes (LRU+CFS, UCSG, Acclaim, power-manager freezing, and ICE itself)
// attach through the exported hook points.
package android

import (
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/mm"
	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sched"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/storage"
	"github.com/eurosys23/ice/internal/trace"
	"github.com/eurosys23/ice/internal/zram"
)

// Hooks are the framework extension points management schemes attach to.
type Hooks struct {
	// AppLaunch fires when an application is about to take the foreground,
	// before any resume work runs. ICE's thaw-on-launch lives here.
	AppLaunch []func(*Instance)
	// FGChange fires after the foreground switches (prev may be nil).
	FGChange []func(prev, cur *Instance)
	// AppCached fires when an application is demoted to the background.
	AppCached []func(*Instance)
	// ProcStarted / ProcExited track process lifecycle; ICE's UID↔PID
	// mapping table is maintained from these (the paper's procfs
	// ice-mp protocol).
	ProcStarted []func(*Instance, *proc.Process)
	ProcExited  []func(*Instance, *proc.Process)
	// AdjChanged fires when an application's oom_score_adj changes; the
	// whitelist is refreshed from it.
	AdjChanged []func(*Instance)
}

// System is one simulated device instance.
type System struct {
	Eng   *sim.Engine
	Dev   device.Profile
	MM    *mm.Manager
	Zram  *zram.Zram
	Disk  *storage.Device
	Procs *proc.Table
	Sched *sched.Scheduler
	AM    *ActivityManager
	LMK   *LMK
	Hooks Hooks

	// ThawLatency is the time a thawed application needs before its tasks
	// run again ("tens of milliseconds", §6.4.2).
	ThawLatency sim.Time

	// Trace, when enabled via EnableTracing, records Systrace-like events
	// (frames, launches, freezes, refaults, kills). Nil by default: the
	// emit paths are nil-safe and free.
	Trace *trace.Buffer

	rng *sim.Rand
	ins sysInstruments

	kswapdProc *proc.Process
	kswapdTask *proc.Task
	kswapdWork *proc.Work
}

// FGWeightBoost is the scheduling weight multiplier the stock framework
// grants the foreground app's UI thread (top-app cpuset/schedtune).
const FGWeightBoost = 2

// NewSystem builds a device and boots its kernel threads and framework
// services.
func NewSystem(seed int64, dev device.Profile) *System {
	eng := sim.NewEngine(seed)
	disk := storage.New(eng, dev.Storage)
	z := zram.New(dev.ZramConfig(), eng.Obs())
	m := mm.New(eng, dev.MMConfig(), z, disk)
	sys := &System{
		Eng:         eng,
		Dev:         dev,
		MM:          m,
		Zram:        z,
		Disk:        disk,
		Procs:       proc.NewTable(),
		Sched:       sched.New(eng, dev.Cores),
		ThawLatency: 40 * sim.Millisecond,
		rng:         eng.Rand().Split(),
	}
	sys.ins.register(eng.Obs())
	sys.bootKernel()
	sys.bootServices()
	sys.AM = newActivityManager(sys)
	sys.LMK = newLMK(sys)
	return sys
}

// bootKernel creates kswapd and wires it to the memory manager's
// low-watermark wakeup.
func (sys *System) bootKernel() {
	sys.kswapdProc = sys.Procs.NewProcess("kswapd0", 0, proc.KindKernel, -1000)
	sys.kswapdTask = sys.Procs.NewTask(sys.kswapdProc, "kswapd0", proc.DefaultWeight)
	sys.Sched.Register(sys.kswapdTask)
	sys.MM.SetKswapdWaker(sys.postKswapdStep)
}

// postKswapdStep posts one reclaim quantum. Each quantum reclaims one
// batch and reposts itself while free memory stays below the high
// watermark, mirroring kswapd's balance loop. The memory manager wakes
// the loop only while its kswapdWanted flag is clear, sets the flag as it
// does, and the loop clears it (KswapdSleep) only when it stops, so at
// most one chain runs.
func (sys *System) postKswapdStep() {
	// Reclaim quanta are strictly sequential (the next step is posted only
	// from the previous step's OnDone, and the manager's kswapdWanted flag
	// absorbs wake-ups while a chain runs), so one reusable Work serves
	// the whole balance loop instead of allocating a Work plus two
	// closures per reclaimed batch.
	if sys.kswapdWork == nil {
		var more bool
		var starved bool
		sys.kswapdWork = &proc.Work{
			Name: "kswapd",
			Setup: func() (sim.Time, sim.Time) {
				cpu, reclaimed, m := sys.MM.KswapdStep()
				more = m
				starved = reclaimed == 0 && sys.MM.BelowHigh()
				return cpu, 0
			},
			OnDone: func(_, _ sim.Time) {
				if more {
					sys.postKswapdStep()
					return
				}
				// Memory may have been consumed while the last step ran (a
				// wake-up attempted meanwhile was absorbed by the manager's
				// kswapdWanted flag, so re-check the watermark ourselves).
				// A starved kswapd stops regardless — there is nothing left
				// to reclaim and spinning would burn the CPU the foreground
				// needs.
				if !starved && sys.MM.NeedKswapd() {
					sys.postKswapdStep()
					return
				}
				// Going to sleep: clear the manager's wanted flag so the next
				// below-low allocation delivers a fresh wake-up.
				sys.MM.KswapdSleep()
			},
		}
	}
	sys.Sched.Post(sys.kswapdTask, sys.kswapdWork)
}

// serviceStream describes one framework/kernel background load stream.
type serviceStream struct {
	proc   string
	task   string
	kind   proc.Kind
	period sim.Time
	cpu    sim.Time
	jitter float64
}

// bootServices creates the steady framework load that gives the device its
// ~43 % baseline CPU utilisation (Table 1's N=0 row): system_server,
// surfaceflinger, binder and HAL threads, kworkers, and the tracing agent
// itself.
func (sys *System) bootServices() {
	streams := []serviceStream{
		{"system_server", "android.fg", proc.KindService, 200 * sim.Millisecond, 65 * sim.Millisecond, 0.35},
		{"system_server", "android.bg", proc.KindService, 250 * sim.Millisecond, 75 * sim.Millisecond, 0.40},
		{"system_server", "binder", proc.KindService, 150 * sim.Millisecond, 47 * sim.Millisecond, 0.35},
		{"surfaceflinger", "sf-main", proc.KindService, 100 * sim.Millisecond, 32 * sim.Millisecond, 0.25},
		{"surfaceflinger", "sf-backend", proc.KindService, 200 * sim.Millisecond, 60 * sim.Millisecond, 0.30},
		{"media.codec", "codec", proc.KindService, 300 * sim.Millisecond, 90 * sim.Millisecond, 0.40},
		{"vendor.hal", "hal-sensors", proc.KindService, 250 * sim.Millisecond, 68 * sim.Millisecond, 0.35},
		{"vendor.hal", "hal-radio", proc.KindService, 300 * sim.Millisecond, 82 * sim.Millisecond, 0.40},
		{"netd", "netd", proc.KindService, 400 * sim.Millisecond, 100 * sim.Millisecond, 0.45},
		{"perfetto", "traced", proc.KindService, 500 * sim.Millisecond, 118 * sim.Millisecond, 0.30},
		{"kworker", "kworker/u16", proc.KindKernel, 300 * sim.Millisecond, 72 * sim.Millisecond, 0.45},
		{"HeapTaskDaemon", "heap-daemon", proc.KindService, 400 * sim.Millisecond, 92 * sim.Millisecond, 0.40},
	}
	procs := map[string]*proc.Process{}
	for _, s := range streams {
		p := procs[s.proc]
		if p == nil {
			p = sys.Procs.NewProcess(s.proc, 1000, s.kind, -800)
			procs[s.proc] = p
		}
		t := sys.Procs.NewTask(p, s.task, proc.DefaultWeight)
		sys.Sched.Register(t)
		sys.startServiceStream(t, s)
	}
}

func (sys *System) startServiceStream(t *proc.Task, s serviceStream) {
	rng := sys.rng.Split()
	cpu := sim.Time(float64(s.cpu) * sys.Dev.CPUFactor)
	// Service streams post pure-CPU work every few hundred simulated
	// milliseconds for the whole run.
	pool := &workPool{sched: sys.Sched, name: s.task}
	sys.Eng.Every(rng.Jitter(s.period, 0.3), func() bool {
		pool.post(t, rng.Jitter(cpu, s.jitter))
		return true
	})
}

// workPool recycles the proc.Work items of one periodic stream: a Work
// returns to the pool when it completes or when Post refuses it, so a
// stream allocates only as many Works as it ever has queued at once and
// its steady state allocates nothing. Every Work of a pool shares one
// name and one Setup, so Setup must not depend on which post queued it.
type workPool struct {
	sched *sched.Scheduler
	name  string
	setup func() (stall, blockUntil sim.Time)
	free  []*proc.Work
}

// post queues a Work of the given CPU cost on t.
func (p *workPool) post(t *proc.Task, cpu sim.Time) {
	var w *proc.Work
	if n := len(p.free); n > 0 {
		w, p.free = p.free[n-1], p.free[:n-1]
	} else {
		w = &proc.Work{Name: p.name, Setup: p.setup}
		w.OnDone = func(_, _ sim.Time) { p.free = append(p.free, w) }
	}
	w.CPU = cpu
	if !p.sched.Post(t, w) {
		p.free = append(p.free, w)
	}
}

// EnableTracing attaches a Systrace-like ring buffer of the given capacity
// (0 = default) and wires the framework's emit points.
func (sys *System) EnableTracing(capacity int) *trace.Buffer {
	if sys.Trace == nil {
		sys.Trace = trace.NewBuffer(capacity)
		sys.MM.SetTrace(sys.Trace)
		sys.Sched.SetTrace(sys.Trace)
		sys.Disk.SetTrace(sys.Trace)
		sys.startCounterSampler()
		sys.MM.OnRefault(func(ev mm.RefaultEvent) {
			name := "refault-bg"
			if ev.Foreground {
				name = "refault-fg"
			}
			sys.Trace.Emit(trace.Event{
				When: ev.When, Cat: trace.CatMM, Name: name,
				Subject: ev.UID, Arg: int64(ev.Distance),
			})
		})
	}
	return sys.Trace
}

// ThawApp thaws every process of an application UID and wakes exactly
// those processes in the scheduler once the thaw latency elapses. Returns
// how many processes were thawed.
func (sys *System) ThawApp(uid int) int {
	now := sys.Eng.Now()
	// AliveByUID returns a fresh slice; filtering it in place down to the
	// processes thawed here gives the wake-up its list without another
	// allocation.
	thawed := sys.Procs.AliveByUID(uid)
	n := 0
	for _, p := range thawed {
		since := p.FrozenSince()
		if p.Thaw(now, sys.ThawLatency) {
			thawed[n] = p
			n++
			sys.ins.frozenUs.Observe(int64(now - since))
		}
	}
	if n > 0 {
		thawed = thawed[:n]
		sys.ins.thawProcs.Add(uint64(n))
		sys.ins.frozenApps.Add(-1)
		// The thawed tasks left the scheduler's candidate queue while
		// frozen, and thawing is the one runnability transition the
		// scheduler cannot see itself, so wake them: one engine event per
		// thaw, one kick per process.
		sys.Eng.After(sys.ThawLatency, func() {
			for _, p := range thawed {
				sys.Sched.Wake(p)
			}
		})
		// The thaw is a span: the app stays unrunnable for ThawLatency
		// after the un-freeze (the paper's "tens of milliseconds").
		sys.Trace.Span(now, trace.CatFreezer, "thaw", uid,
			sys.ThawLatency, int64(n), int64(sys.ThawLatency))
	}
	return n
}

// FreezeApp freezes every alive process of an application UID. Returns
// how many processes were frozen. It walks the table's own list, dead
// processes included, because Freeze refuses those: ICE re-freezes an
// app on every refault, and this way no call allocates.
func (sys *System) FreezeApp(uid int) int {
	now := sys.Eng.Now()
	n := 0
	for _, p := range sys.Procs.ByUID(uid) {
		if p.Freeze(now) {
			n++
		}
	}
	if n > 0 {
		sys.ins.freezeProcs.Add(uint64(n))
		sys.ins.frozenApps.Add(1)
		sys.Trace.Emit(trace.Event{
			When: now, Cat: trace.CatFreezer, Name: "freeze", Subject: uid, Arg: int64(n),
		})
	}
	return n
}

// ResetMeasurement zeroes every statistics domain (memory, CPU, I/O,
// launches, kills) at the current instant; experiments call it after
// warm-up.
func (sys *System) ResetMeasurement() {
	sys.MM.ResetStats()
	sys.Sched.ResetStats()
	frozen := sys.ins.frozenApps.Value()
	sys.Eng.Obs().Reset()
	// Level gauges survive the reset: they describe current state, not
	// accumulated activity.
	sys.ins.frozenApps.Set(frozen)
}

// Run advances the simulation by d.
func (sys *System) Run(d sim.Time) { sys.Eng.RunFor(d) }

// RunUntil advances the simulation until cond returns true or timeout
// elapses, polling at the given granularity. It reports whether cond held.
func (sys *System) RunUntil(cond func() bool, timeout, poll sim.Time) bool {
	deadline := sys.Eng.Now() + timeout
	for sys.Eng.Now() < deadline {
		if cond() {
			return true
		}
		step := poll
		if rem := deadline - sys.Eng.Now(); rem < step {
			step = rem
		}
		sys.Eng.RunFor(step)
	}
	return cond()
}
