package android

import (
	"testing"

	"github.com/eurosys23/ice/internal/app"
	"github.com/eurosys23/ice/internal/sim"
)

// launchedApp returns a freshly cold-launched instance for mechanics tests.
func launchedApp(t *testing.T, name string) (*System, *Instance) {
	t.Helper()
	sys := newTestSystem(t)
	sys.AM.InstallAll(app.Catalog())
	launchWait(t, sys, name)
	return sys, sys.AM.App(name)
}

func TestGrowCapTurnsOver(t *testing.T) {
	sys, in := launchedApp(t, "WhatsApp")
	base := in.Spec.TotalPages()
	limit := int(float64(base) * 1.1)
	// Grow far past the cap: the footprint must stabilise at the limit.
	for i := 0; i < 100; i++ {
		in.grow(base/20, 1.1)
	}
	total := len(in.filePages) + len(in.nativePages) + len(in.javaPages)
	if total > limit+base/20 {
		t.Fatalf("footprint %d exceeded cap %d", total, limit)
	}
	_ = sys
}

func TestGrowSplitsNativeJava(t *testing.T) {
	_, in := launchedApp(t, "WhatsApp")
	n0, j0 := len(in.nativePages), len(in.javaPages)
	in.grow(100, 2.0)
	if len(in.nativePages)-n0 != 60 || len(in.javaPages)-j0 != 40 {
		t.Fatalf("grow split %d/%d, want 60/40",
			len(in.nativePages)-n0, len(in.javaPages)-j0)
	}
}

func TestStreamRingBounded(t *testing.T) {
	sys, in := launchedApp(t, "WhatsApp")
	reads0 := sys.Disk.Stats().PagesRead
	for i := 0; i < 50; i++ {
		in.streamFile(100)
	}
	if len(in.streamRing) > streamRingCap {
		t.Fatalf("stream ring %d over cap %d", len(in.streamRing), streamRingCap)
	}
	if sys.Disk.Stats().PagesRead-reads0 != 5000 {
		t.Fatalf("streamed pages not read from flash: %d", sys.Disk.Stats().PagesRead-reads0)
	}
	// Dropped ring entries must be dead; survivors resident or evicted.
	for _, id := range in.streamRing {
		if sys.MM.Info(id).State == 2 /* Dead */ {
			t.Fatal("live ring entry is dead")
		}
	}
}

func TestChurnJavaPreservesHeapSize(t *testing.T) {
	_, in := launchedApp(t, "WhatsApp")
	size := len(in.javaPages)
	for i := 0; i < 10; i++ {
		in.churnJava(40)
	}
	if len(in.javaPages) != size {
		t.Fatalf("GC churn changed heap size %d → %d", size, len(in.javaPages))
	}
}

// TestChurnJavaSurvivesSelfKill: with memory exhausted, the direct
// reclaim inside GC churn's MapOne finds nothing to reclaim and raises
// pressure, and the LMK kills the churning app itself. Churn must stop
// there, and the page mapped to the dead pid must not outlive it.
func TestChurnJavaSurvivesSelfKill(t *testing.T) {
	sys, in := launchedApp(t, "WhatsApp")
	pid := in.MainPID()
	for _, p := range in.Processes() {
		sys.MM.ReclaimProcess(p.PID)
	}
	sys.MM.AllocTransient(sys.MM.FreePages())
	killed := false
	sys.MM.OnPressure(func() {
		if in.Running() {
			killed = true
			sys.LMK.KillForTest(in)
		}
	})
	in.churnJava(40)
	if !killed {
		t.Fatal("churn never reached the pressure hook")
	}
	if n := len(sys.MM.PagesOf(pid)); n != 0 {
		t.Fatalf("%d pages of the killed pid %d outlive it", n, pid)
	}
}

func TestTouchHotCoreStaysResident(t *testing.T) {
	sys, in := launchedApp(t, "WhatsApp")
	// Touch the core repeatedly, then reclaim pressure should spare it.
	for i := 0; i < 5; i++ {
		in.touchHotCore(30)
		sys.Run(100 * sim.Millisecond)
	}
	// Force a broad reclaim of this process through the normal scanner by
	// launching memory hogs.
	for _, n := range []string{"PUBGMobile", "TikTok", "Facebook", "WeChat", "ArenaOfValor", "Netflix"} {
		launchWait(t, sys, n)
	}
	// Several passes re-establish the (randomly sampled) core.
	for i := 0; i < 8; i++ {
		in.touchHotCore(60)
	}
	sys.MM.ResetStats()
	in.touchHotCore(60)
	// The core is warm: re-touching must be (nearly) refault-free.
	if sys.MM.Stats().Total.Refaulted > 3 {
		t.Fatalf("hot core refaulted %d pages immediately after touching",
			sys.MM.Stats().Total.Refaulted)
	}
}

func TestPickBiasRespectsHotFraction(t *testing.T) {
	_, in := launchedApp(t, "WhatsApp")
	region := in.nativePages
	hot := len(region) / 4
	var out []mmPageIDAlias
	_ = out
	hits := 0
	const n = 4000
	scratch := in.pickBias(region, n, 1.0, nil)
	for _, id := range scratch {
		for _, h := range region[:hot] {
			if id == h {
				hits++
				break
			}
		}
	}
	if hits != n {
		t.Fatalf("hotBias=1.0 picked %d/%d from the hot quarter", hits, n)
	}
}

// mmPageIDAlias avoids importing mm solely for a test declaration.
type mmPageIDAlias = int32

func TestSpawnCreatesExpectedTasks(t *testing.T) {
	_, in := launchedApp(t, "Facebook") // sweeper with a service process
	if in.uiTask == nil || in.gcTask == nil || len(in.workers) != 1 {
		t.Fatal("main process tasks missing")
	}
	if in.svc == nil || in.svcTask == nil {
		t.Fatal("service process missing for HasService spec")
	}
	procs := in.Processes()
	if len(procs) != 2 {
		t.Fatalf("%d processes, want main+service", len(procs))
	}
}

func TestUsageStreamStopsWhenBackgrounded(t *testing.T) {
	sys, in := launchedApp(t, "WhatsApp")
	in.StartUsage()
	sys.Run(sim.Second)
	launchWait(t, sys, "Camera") // WhatsApp to BG: usage must stop itself
	cpu0 := in.main.TotalCPU()
	sys.Run(2 * sim.Second)
	// Background WhatsApp still runs wake timers, but no 15 Hz usage: CPU
	// growth must be far below the usage stream's ~50 ms/s.
	growth := in.main.TotalCPU() - cpu0
	if growth > 400*sim.Millisecond {
		t.Fatalf("backgrounded app consumed %v in 2s; usage stream leaked", growth)
	}
}
