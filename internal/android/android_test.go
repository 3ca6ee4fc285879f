package android

import (
	"testing"

	"github.com/eurosys23/ice/internal/app"
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/metrics"
	"github.com/eurosys23/ice/internal/mm"
	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sim"
)

func newTestSystem(t *testing.T) *System {
	t.Helper()
	return NewSystem(77, device.P20)
}

func launchWait(t *testing.T, sys *System, name string) metrics.LaunchRecord {
	t.Helper()
	var rec metrics.LaunchRecord
	sys.AM.RequestForeground(name, func(r metrics.LaunchRecord) { rec = r })
	if !sys.RunUntil(sys.AM.LaunchIdle, 120*sim.Second, 20*sim.Millisecond) {
		t.Fatalf("launch of %s did not complete", name)
	}
	return rec
}

func TestColdLaunchCreatesProcessesAndMemory(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	rec := launchWait(t, sys, "WhatsApp")
	if !rec.Cold {
		t.Fatal("first launch not cold")
	}
	if rec.Latency <= 0 {
		t.Fatal("zero launch latency")
	}
	in := sys.AM.App("WhatsApp")
	if in.State() != StateForeground {
		t.Fatalf("state %v", in.State())
	}
	spec := in.Spec
	if got := in.ResidentPages(); got < spec.TotalPages()*9/10 {
		t.Fatalf("resident %d of %d after cold launch", got, spec.TotalPages())
	}
	// Launch streamed its code from flash.
	if sys.Disk.Stats().PagesRead == 0 {
		t.Fatal("cold launch performed no flash reads")
	}
	// The foreground is known to mm and sched.
	if sys.MM.ForegroundUID() != in.UID {
		t.Fatal("mm not told about the foreground")
	}
}

func TestHotLaunchFasterThanCold(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	cold := launchWait(t, sys, "WhatsApp")
	launchWait(t, sys, "Camera")
	hot := launchWait(t, sys, "WhatsApp")
	if hot.Cold {
		t.Fatal("second launch cold despite cached app")
	}
	if hot.Latency >= cold.Latency {
		t.Fatalf("hot launch (%v) not faster than cold (%v)", hot.Latency, cold.Latency)
	}
}

func TestBackgroundingUpdatesAdj(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	launchWait(t, sys, "WhatsApp")
	wa := sys.AM.App("WhatsApp")
	if wa.main.Adj != proc.AdjForeground {
		t.Fatalf("fg adj %d", wa.main.Adj)
	}
	launchWait(t, sys, "Camera")
	if wa.State() != StateCached {
		t.Fatal("previous app not cached")
	}
	if wa.main.Adj < proc.AdjCachedBase {
		t.Fatalf("cached adj %d", wa.main.Adj)
	}
	// Perceptible apps keep adj 200 in the background.
	launchWait(t, sys, "Youtube")
	launchWait(t, sys, "Camera")
	yt := sys.AM.App("Youtube")
	if yt.main.Adj != proc.AdjPerceptible {
		t.Fatalf("perceptible adj %d", yt.main.Adj)
	}
}

func TestRequestHomeClearsForeground(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	launchWait(t, sys, "WhatsApp")
	sys.AM.RequestHome()
	if sys.AM.Foreground() != nil {
		t.Fatal("foreground not cleared")
	}
	if sys.MM.ForegroundUID() != -1 {
		t.Fatal("mm foreground not cleared")
	}
	if sys.AM.App("WhatsApp").State() != StateCached {
		t.Fatal("app not cached after home")
	}
}

func TestRelaunchSameAppIsNoop(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	launchWait(t, sys, "WhatsApp")
	reg := sys.Eng.Obs()
	launches := func() uint64 {
		return reg.Histogram("launch.cold_us").Count() + reg.Histogram("launch.hot_us").Count()
	}
	n := launches()
	if n == 0 {
		t.Fatal("the first launch was not recorded")
	}
	rec := launchWait(t, sys, "WhatsApp")
	if rec.Latency != 0 {
		t.Fatal("re-foregrounding the FG app should be free")
	}
	if launches() != n {
		t.Fatal("no-op switch recorded a launch")
	}
}

func TestDoubleInstallPanics(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.Install(app.Catalog()[0])
	defer func() {
		if recover() == nil {
			t.Fatal("double install did not panic")
		}
	}()
	sys.AM.Install(app.Catalog()[0])
}

func TestBGActivityCausesRefaultsAfterEviction(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	launchWait(t, sys, "Facebook") // sweeper
	launchWait(t, sys, "Camera")
	fb := sys.AM.App("Facebook")
	for _, p := range fb.Processes() {
		sys.MM.ReclaimProcess(p.PID)
	}
	sys.MM.ResetStats()
	sys.Run(10 * sim.Second)
	if sys.MM.Stats().RefaultBG == 0 {
		t.Fatal("sweeper app caused no background refaults after eviction")
	}
}

func TestInertAppStaysQuiet(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	launchWait(t, sys, "PayPal") // inert in background
	launchWait(t, sys, "Camera")
	pp := sys.AM.App("PayPal")
	for _, p := range pp.Processes() {
		sys.MM.ReclaimProcess(p.PID)
	}
	var refaults int
	sys.MM.OnRefault(func(ev mm.RefaultEvent) {
		if ev.UID == pp.UID {
			refaults++
		}
	})
	sys.Run(10 * sim.Second)
	if refaults != 0 {
		t.Fatalf("inert app refaulted %d pages", refaults)
	}
}

func TestFrozenAppDoesNothing(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	launchWait(t, sys, "Facebook")
	launchWait(t, sys, "Camera")
	fb := sys.AM.App("Facebook")
	var cpu0 sim.Time
	for _, p := range fb.Processes() {
		cpu0 += p.TotalCPU()
	}
	sys.FreezeApp(fb.UID)
	sys.Run(10 * sim.Second)
	var cpu1 sim.Time
	for _, p := range fb.Processes() {
		cpu1 += p.TotalCPU()
	}
	if cpu1 != cpu0 {
		t.Fatalf("frozen app consumed %v CPU", cpu1-cpu0)
	}
	sys.ThawApp(fb.UID)
	sys.Run(10 * sim.Second)
	var cpu2 sim.Time
	for _, p := range fb.Processes() {
		cpu2 += p.TotalCPU()
	}
	if cpu2 == cpu1 {
		t.Fatal("thawed app never ran again")
	}
}

func TestLMKKillsHighestAdj(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	launchWait(t, sys, "Facebook")
	launchWait(t, sys, "WhatsApp")
	launchWait(t, sys, "Camera")
	// Facebook is the oldest cached app → highest adj → the victim.
	victim := sys.LMK.pickVictim()
	if victim == nil || victim.Name() != "Facebook" {
		t.Fatalf("victim %v, want Facebook", victim)
	}
	sys.LMK.KillForTest(victim)
	if victim.Running() {
		t.Fatal("killed app still running")
	}
	if got := sys.LMK.Kills(); got != 1 {
		t.Fatalf("LMK counted %d kills, want 1", got)
	}
	if victim.ResidentPages() != 0 {
		t.Fatal("killed app kept memory")
	}
	// Relaunching is a cold start.
	rec := launchWait(t, sys, "Facebook")
	if !rec.Cold {
		t.Fatal("relaunch after kill was not cold")
	}
}

func TestLMKSparesPerceptible(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	launchWait(t, sys, "Youtube") // perceptible
	launchWait(t, sys, "WhatsApp")
	launchWait(t, sys, "Camera")
	victim := sys.LMK.pickVictim()
	if victim == nil || victim.Name() == "Youtube" {
		t.Fatalf("LMK chose perceptible app (victim=%v)", victim)
	}
}

func TestRendererProducesFrames(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	launchWait(t, sys, "WhatsApp")
	r := NewRenderer(sys)
	r.Start(sys.AM.App("WhatsApp"))
	sys.Run(5 * sim.Second)
	r.Stop()
	st := r.Rec.Snapshot(sys.Eng.Now())
	fps := st.AvgFPS()
	want := sys.AM.App("WhatsApp").Spec.Render.ContentFPS
	if fps < want-3 || fps > want+1 {
		t.Fatalf("unloaded FPS %.1f, want ≈%.0f", fps, want)
	}
	if st.RIA() > 0.15 {
		t.Fatalf("unloaded RIA %.2f", st.RIA())
	}
}

func TestRendererStopsWithSession(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	launchWait(t, sys, "WhatsApp")
	r := NewRenderer(sys)
	r.Start(sys.AM.App("WhatsApp"))
	sys.Run(sim.Second)
	r.Stop()
	frames := r.Rec.Snapshot(sys.Eng.Now()).Completed
	sys.Run(2 * sim.Second)
	if got := r.Rec.Snapshot(sys.Eng.Now()).Completed; got > frames+2 {
		t.Fatalf("renderer kept producing after Stop: %d → %d", frames, got)
	}
}

func TestKswapdRestoresHighWatermark(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	// Fill memory with several launches.
	for _, n := range []string{"Facebook", "TikTok", "PUBGMobile", "WeChat", "Chrome", "Netflix", "Amazon"} {
		launchWait(t, sys, n)
	}
	sys.AM.RequestHome()
	sys.Run(10 * sim.Second)
	free := sys.MM.FreePages()
	low := sys.MM.Config().LowWatermark
	if free < low {
		t.Fatalf("kswapd left free=%d below low=%d at steady state", free, low)
	}
}

func TestMonkeyUsageTouchesMemory(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	launchWait(t, sys, "WhatsApp")
	in := sys.AM.App("WhatsApp")
	cpu0 := in.main.TotalCPU()
	in.StartUsage()
	sys.Run(3 * sim.Second)
	in.StopUsage()
	if in.main.TotalCPU() == cpu0 {
		t.Fatal("usage stream consumed no CPU")
	}
}

func TestServiceBaselineUtilization(t *testing.T) {
	sys := newTestSystem(t)
	sys.ResetMeasurement()
	sys.Run(10 * sim.Second)
	util := sys.Sched.Stats().Utilization()
	// Table 1's N=0 row: ≈43 %.
	if util < 0.35 || util > 0.52 {
		t.Fatalf("baseline utilisation %.2f, want ≈0.43", util)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, uint64) {
		sys := NewSystem(99, device.Pixel3)
		sys.AM.InstallAll(app.Catalog())
		var rec metrics.LaunchRecord
		sys.AM.RequestForeground("WhatsApp", func(r metrics.LaunchRecord) { rec = r })
		sys.RunUntil(sys.AM.LaunchIdle, 60*sim.Second, 20*sim.Millisecond)
		sys.Run(5 * sim.Second)
		return rec.Latency.Seconds(), sys.MM.Stats().Total.Reclaimed
	}
	l1, r1 := run()
	l2, r2 := run()
	if l1 != l2 || r1 != r2 {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", l1, r1, l2, r2)
	}
}

// TestWorkPoolNoAllocs: once a stream's pool holds a recycled Work, a
// post and the run that completes it allocate nothing.
func TestWorkPoolNoAllocs(t *testing.T) {
	sys := newTestSystem(t)
	p := sys.Procs.NewProcess("pooled", 1000, proc.KindService, -800)
	task := sys.Procs.NewTask(p, "pooled", proc.DefaultWeight)
	sys.Sched.Register(task)
	pool := &workPool{sched: sys.Sched, name: "pooled"}
	// Warm-up: the first post allocates the stream's one Work, and the
	// run grows the engine's and the scheduler's scratch.
	pool.post(task, sim.Millisecond)
	sys.Run(sim.Second)
	allocs := testing.AllocsPerRun(200, func() {
		pool.post(task, sim.Millisecond)
		sys.Run(20 * sim.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("steady-state post allocated %.1f objects, want 0", allocs)
	}
	if len(pool.free) != 1 {
		t.Fatalf("pool holds %d free Works after the runs, want 1", len(pool.free))
	}
}

// TestFramePathNoAllocs: once the renderer holds a recycled frame record,
// a vsync's post and the run that completes its frame allocate nothing.
// The renderer is pointed at the foreground app directly, so each run
// posts exactly the frames the test asks for.
func TestFramePathNoAllocs(t *testing.T) {
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	launchWait(t, sys, "WhatsApp")
	r := NewRenderer(sys)
	r.inst = sys.AM.App("WhatsApp")
	// Warm-up: the first frame allocates the renderer's one record, and
	// the runs grow the engine's, the scheduler's and the recorder's
	// scratch.
	for i := 0; i < 120; i++ {
		r.postFrame()
		sys.Run(VsyncPeriod)
	}
	before := r.Rec.Snapshot(sys.Eng.Now()).Completed
	allocs := testing.AllocsPerRun(200, func() {
		r.postFrame()
		sys.Run(VsyncPeriod)
	})
	if allocs != 0 {
		t.Fatalf("steady-state frame allocated %.1f objects, want 0", allocs)
	}
	// WhatsApp renders 46 of every 60 vsyncs.
	if done := r.Rec.Snapshot(sys.Eng.Now()).Completed - before; done < 140 {
		t.Fatalf("%d frames completed in the 201 measured vsyncs, want at least 140", done)
	}
	// Every record comes home once the last frame ends, and no more were
	// made than the UI task's queue bound (3) lets be posted at once.
	sys.Run(sim.Second)
	if n := len(r.free); n == 0 || n > 3 {
		t.Fatalf("renderer holds %d free frame records, want 1 to 3", n)
	}
}

// TestLaunchChunksNoAllocs: an Instance recycles its launch chunk
// records, so once warm, a cold launch's eight chunks and a hot resume's
// two post, run and finish without allocating. The app maps and touches
// no pages, which keeps the chunks' mm work out of the count.
func TestLaunchChunksNoAllocs(t *testing.T) {
	sys := newTestSystem(t)
	in := sys.AM.Install(app.Spec{Name: "blank", LaunchCPU: 40 * sim.Millisecond, ResumeCPU: 10 * sim.Millisecond})
	launchWait(t, sys, "blank")
	finished := 0
	finish := func(_, _ sim.Time) { finished++ }
	for _, cold := range []bool{true, false} {
		finished = 0
		allocs := testing.AllocsPerRun(50, func() {
			in.postLaunchChunk(cold, 0, finish)
			sys.Run(sim.Second)
		})
		if allocs != 0 {
			t.Fatalf("a warm launch chain (cold %v) allocated %.1f objects, want 0", cold, allocs)
		}
		if finished != 51 {
			t.Fatalf("%d of 51 launch chains (cold %v) finished", finished, cold)
		}
		if n := len(in.launchFree); n != 1 {
			t.Fatalf("the app holds %d free launch records, want 1", n)
		}
	}
}
