package android

import (
	"fmt"

	"github.com/eurosys23/ice/internal/app"
	"github.com/eurosys23/ice/internal/metrics"
	"github.com/eurosys23/ice/internal/mm"
	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/trace"
)

// launchChunks splits a cold launch into pipeline stages so that I/O,
// allocation and CPU interleave with the rest of the system.
const launchChunks = 8

// ActivityManager owns application lifecycle: install, foreground
// switching, cold/hot launches, adj maintenance and launch-time
// measurement (the paper's `adb am start` instrumentation).
type ActivityManager struct {
	sys *System

	apps  map[string]*Instance
	order []*Instance

	fg *Instance
	// cachedMRU is the cached-app list, most recently used first; it
	// drives adj assignment and LMK victim selection.
	cachedMRU []*Instance

	// launchInFlight guards against overlapping launch sequences.
	launchInFlight bool
}

func newActivityManager(sys *System) *ActivityManager {
	return &ActivityManager{sys: sys, apps: make(map[string]*Instance)}
}

// Install registers an application on the device. The UID is fixed at
// install time, exactly as ICE's mapping table assumes.
func (am *ActivityManager) Install(spec app.Spec) *Instance {
	if _, dup := am.apps[spec.Name]; dup {
		panic(fmt.Sprintf("android: app %q installed twice", spec.Name))
	}
	in := &Instance{
		Spec:  spec,
		UID:   am.sys.Procs.AllocUID(),
		sys:   am.sys,
		rng:   am.sys.rng.Split(),
		state: StateNotRunning,
	}
	am.apps[spec.Name] = in
	am.order = append(am.order, in)
	return in
}

// InstallAll installs each spec in order.
func (am *ActivityManager) InstallAll(specs []app.Spec) {
	for _, s := range specs {
		am.Install(s)
	}
}

// App returns the instance for name, or nil.
func (am *ActivityManager) App(name string) *Instance { return am.apps[name] }

// Apps returns all installed instances in install order.
func (am *ActivityManager) Apps() []*Instance { return am.order }

// Foreground returns the current foreground instance (nil when home).
func (am *ActivityManager) Foreground() *Instance { return am.fg }

// LaunchIdle reports whether no launch sequence is in flight. Workloads
// poll this between app switches.
func (am *ActivityManager) LaunchIdle() bool { return !am.launchInFlight }

// RequestHome sends the current foreground app (if any) to the background.
func (am *ActivityManager) RequestHome() {
	if am.fg == nil {
		return
	}
	prev := am.fg
	am.moveToBG(prev)
	am.fg = nil
	am.sys.MM.SetForegroundUID(-1)
	am.sys.Sched.SetForegroundUID(-1)
	for _, fn := range am.sys.Hooks.FGChange {
		fn(prev, nil)
	}
}

// RequestForeground switches the named app to the foreground, launching it
// cold if necessary. onDone (may be nil) receives the launch record when
// the app becomes interactive.
func (am *ActivityManager) RequestForeground(name string, onDone func(metrics.LaunchRecord)) {
	in := am.apps[name]
	if in == nil {
		panic(fmt.Sprintf("android: app %q not installed", name))
	}
	if am.fg == in {
		if onDone != nil {
			onDone(metrics.LaunchRecord{App: name, Cold: false, Latency: 0})
		}
		return
	}
	prev := am.fg
	if prev != nil {
		am.moveToBG(prev)
	}

	cold := in.state == StateNotRunning
	requested := am.sys.Eng.Now()
	am.launchInFlight = true

	// Thaw-on-launch: ICE (and the power-manager freezer) listen here and
	// thaw the app before it must respond to user input.
	for _, fn := range am.sys.Hooks.AppLaunch {
		fn(in)
	}

	am.fg = in
	in.state = StateForeground
	am.removeCached(in)
	am.sys.MM.SetForegroundUID(in.UID)
	am.sys.Sched.SetForegroundUID(in.UID)

	finish := func(_, end sim.Time) {
		rec := metrics.LaunchRecord{App: name, Cold: cold, Latency: end - requested}
		am.launchInFlight = false
		style := "launch-hot"
		if cold {
			style = "launch-cold"
			am.sys.ins.launchCold.Observe(int64(rec.Latency))
		} else {
			am.sys.ins.launchHot.Observe(int64(rec.Latency))
		}
		am.sys.Trace.Emit(trace.Event{
			When: end, Cat: trace.CatLaunch, Name: style,
			Subject: in.UID, Arg: int64(rec.Latency),
		})
		if onDone != nil {
			onDone(rec)
		}
	}

	if cold {
		in.spawn()
		am.applyFGBoost(in, true)
		in.setAdj(proc.AdjForeground)
		am.refreshCachedAdj()
		for _, fn := range am.sys.Hooks.FGChange {
			fn(prev, in)
		}
		in.postLaunchChunk(true, 0, finish)
		return
	}

	am.applyFGBoost(in, true)
	in.setAdj(proc.AdjForeground)
	am.refreshCachedAdj()
	for _, fn := range am.sys.Hooks.FGChange {
		fn(prev, in)
	}
	in.postLaunchChunk(false, 0, finish)
}

// moveToBG demotes an app to the cached list.
func (am *ActivityManager) moveToBG(in *Instance) {
	in.StopUsage()
	in.state = StateCached
	am.applyFGBoost(in, false)
	am.cachedMRU = append([]*Instance{in}, am.cachedMRU...)
	am.refreshCachedAdj()
	for _, fn := range am.sys.Hooks.AppCached {
		fn(in)
	}
}

func (am *ActivityManager) removeCached(in *Instance) {
	for i, c := range am.cachedMRU {
		if c == in {
			am.cachedMRU = append(am.cachedMRU[:i], am.cachedMRU[i+1:]...)
			return
		}
	}
}

// refreshCachedAdj reassigns adj scores down the cached list: perceptible
// apps keep 200, others grow from the cached base toward the max (older =
// higher = killed first).
func (am *ActivityManager) refreshCachedAdj() {
	n := len(am.cachedMRU)
	for i, in := range am.cachedMRU {
		if !in.Running() {
			continue
		}
		if in.Spec.Perceptible {
			in.setAdj(proc.AdjPerceptible)
			continue
		}
		adj := proc.AdjCachedBase + i*(proc.AdjCachedMax-proc.AdjCachedBase)/maxInt(n, 1)
		in.setAdj(adj)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// applyFGBoost grants (or revokes) the stock framework's top-app
// scheduling boost on the UI thread.
func (am *ActivityManager) applyFGBoost(in *Instance, fg bool) {
	if in.uiTask == nil {
		return
	}
	if fg {
		in.uiTask.Weight = proc.DefaultWeight * FGWeightBoost
	} else {
		in.uiTask.Weight = proc.DefaultWeight
	}
}

// resumeChunks splits a hot resume the same way.
const resumeChunks = 2

// launchWork is one chunk of a cold launch or a hot resume on the UI
// task, with what its Setup and OnDone read. Each Instance recycles its
// own, as the renderer recycles frames: a record returns to the free
// list when its chunk completes or when Post refuses it, so a launch
// allocates no Work and no closure per chunk.
type launchWork struct {
	proc.Work
	in     *Instance
	cold   bool
	chunk  int
	finish func(start, end sim.Time)
}

// postLaunchChunk posts chunk i of a cold launch (cold) or of a hot
// resume on in's UI task. The chunks run one after another, so the UI
// task's small queue never overflows: the cold ones stream code and
// resource pages from flash, map the footprint and burn the init CPU;
// the resume ones re-touch the resume working set (refaulting whatever
// was reclaimed while cached — the penalty analysed in §6.3.1) and run
// the resume CPU. finish runs when the last chunk completes. The
// chunk's CPU is drawn here, at post time.
func (in *Instance) postLaunchChunk(cold bool, i int, finish func(start, end sim.Time)) {
	var w *launchWork
	if n := len(in.launchFree); n > 0 {
		w = in.launchFree[n-1]
		in.launchFree = in.launchFree[:n-1]
	} else {
		w = &launchWork{in: in}
		w.Setup = w.setup
		w.OnDone = w.done
	}
	w.cold, w.chunk, w.finish = cold, i, finish
	sys := in.sys
	if cold {
		w.Name = "cold-launch"
		w.CPU = in.rng.Jitter(scaleCPU(in.Spec.LaunchCPU, sys)/launchChunks, 0.2)
	} else {
		w.Name = "hot-resume"
		w.CPU = in.rng.Jitter(scaleCPU(in.Spec.ResumeCPU, sys)/resumeChunks, 0.2)
	}
	if !sys.Sched.Post(in.uiTask, &w.Work) {
		w.finish = nil
		in.launchFree = append(in.launchFree, w)
	}
}

func (w *launchWork) setup() (sim.Time, sim.Time) {
	in := w.in
	sys := in.sys
	spec := in.Spec
	pid := in.MainPID()
	var cost mm.Cost
	if !w.cold {
		for _, region := range [][]mm.PageID{in.filePages, in.nativePages, in.javaPages} {
			n := int(float64(len(region)) * spec.ResumeTouchFrac / resumeChunks)
			in.scratch = in.scratch[:0]
			in.scratch = in.pick(region, n, in.scratch)
			cost.Add(sys.MM.Touch(pid, in.scratch))
		}
		return cost.Stall, cost.BlockUntil
	}
	// Stream this chunk's share of code/resources from flash.
	reads := spec.LaunchReadPages / launchChunks
	if reads > 0 {
		completion := sys.Disk.Read(reads, nil)
		if completion > cost.BlockUntil {
			cost.BlockUntil = completion
		}
	}
	// Grow the address space.
	var c mm.Cost
	in.filePages, c = sys.MM.MapAppend(in.filePages, pid, in.UID, mm.File, spec.FilePages/launchChunks)
	cost.Add(c)
	in.nativePages, c = sys.MM.MapAppend(in.nativePages, pid, in.UID, mm.AnonNative, spec.NativePages/launchChunks)
	cost.Add(c)
	in.javaPages, c = sys.MM.MapAppend(in.javaPages, pid, in.UID, mm.AnonJava, spec.JavaPages/launchChunks)
	cost.Add(c)
	return cost.Stall, cost.BlockUntil
}

func (w *launchWork) done(start, end sim.Time) {
	in, cold, next, finish := w.in, w.cold, w.chunk+1, w.finish
	w.finish = nil
	in.launchFree = append(in.launchFree, w)
	chunks := resumeChunks
	if cold {
		chunks = launchChunks
	}
	if next == chunks {
		finish(start, end)
		return
	}
	in.postLaunchChunk(cold, next, finish)
}
