package policy

import (
	"strings"
	"testing"

	"github.com/eurosys23/ice/internal/android"
	"github.com/eurosys23/ice/internal/app"
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/sim"
)

// swapOutCached whole-process-reclaims the first cached app still running,
// the proactive app-swap path Ariadne's per-page codec choice is built
// for: unlike pressure reclaim (which drains the cold LRU tail), it takes
// an app's warm core pages along with the cold ones.
func swapOutCached(t *testing.T, sys *android.System, names []string) {
	t.Helper()
	for _, n := range names {
		in := sys.AM.App(n)
		if in == nil || !in.Running() {
			continue
		}
		for _, pr := range in.Processes() {
			sys.MM.ReclaimProcess(pr.PID)
		}
		return
	}
	t.Fatal("no cached app left running to swap out")
}

// codecStores reads the per-codec "zram.stores.<codec>" counters.
func codecStores(sys *android.System) map[string]uint64 {
	stores := map[string]uint64{}
	for _, c := range sys.Eng.Obs().Snapshot().Counters {
		if codec, ok := strings.CutPrefix(c.Name, "zram.stores."); ok {
			stores[codec] = c.Value
		}
	}
	return stores
}

// TestAriadneSplitsCodecsByHeat: pressure reclaim stores the cold LRU
// tail, a whole-app swap-out stores that app's warm core too — Ariadne
// must route the two populations through different codecs. Per-page
// selection, not a global codec swap.
func TestAriadneSplitsCodecsByHeat(t *testing.T) {
	sys := android.NewSystem(13, device.Pixel3)
	(&Ariadne{}).Attach(sys)
	sys.AM.InstallAll(app.Catalog())
	names := []string{"Facebook", "Uber", "Youtube", "Chrome", "WeChat", "WhatsApp", "TikTok"}
	cacheApps(t, sys, names)
	sys.Run(5 * sim.Second)
	swapOutCached(t, sys, names)

	if sys.Zram.Stats().StoredTotal == 0 {
		t.Fatal("no reclaim to ZRAM happened; test exerts no pressure")
	}
	stores := codecStores(sys)
	if stores["base"] != 0 {
		t.Fatalf("pages bypassed the codec selector: %v", stores)
	}
	if stores["zstd"] == 0 {
		t.Fatalf("no cold pages took the dense codec: %v", stores)
	}
	if stores["lz4"] == 0 {
		t.Fatalf("no hot pages took the fast codec: %v", stores)
	}
}

// TestAriadneCustomThreshold: a threshold of 1 routes every touched page
// through the fast codec; heat 0 pages still go dense.
func TestAriadneCustomThreshold(t *testing.T) {
	sys := android.NewSystem(14, device.Pixel3)
	(&Ariadne{HotThreshold: 1, FastCodec: "snappy", DenseCodec: "zstd"}).Attach(sys)
	sys.AM.InstallAll(app.Catalog())
	names := []string{"Facebook", "Uber", "Youtube", "Chrome", "WeChat", "WhatsApp"}
	cacheApps(t, sys, names)
	sys.Run(5 * sim.Second)
	swapOutCached(t, sys, names)
	stores := codecStores(sys)
	if stores["snappy"] == 0 {
		t.Fatalf("no warm pages took the fast codec: %v", stores)
	}
	if stores["zstd"] == 0 {
		t.Fatalf("no cold pages took the dense codec: %v", stores)
	}
	if stores["base"] != 0 || stores["lz4"] != 0 {
		t.Fatalf("default codecs used despite overrides: %v", stores)
	}
}
