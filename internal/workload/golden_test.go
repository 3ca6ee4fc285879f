package workload_test

// Scheme byte-identity goldens. Every registered management scheme is run
// on a fixed device/scenario/seed and the full deterministic result
// surface is hashed. The hashes pin the schemes' behaviour byte-for-byte:
// a refactor of the policy attachment layer (or of any subsystem a scheme
// touches) must reproduce these exactly, or it changed simulation
// behaviour and the golden needs a deliberate update.
//
// The five pre-capability-layer schemes (LRU+CFS, UCSG, Acclaim, Ice,
// PowerManager) had their hashes captured on the hook-based policy
// surface that predates internal/policy's scheme registry; the capability
// refactor migrated them without moving a byte. SWAM and Ariadne were
// added after the refactor and pin the new seams (swap/OOMK collaboration
// and per-page codec selection) the same way.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sort"
	"testing"
	"unsafe"

	"github.com/eurosys23/ice/internal/app"
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/mm"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/sched"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/storage"
	"github.com/eurosys23/ice/internal/trace"
	"github.com/eurosys23/ice/internal/workload"
	"github.com/eurosys23/ice/internal/zram"
)

// schemeGolden maps every registered scheme name to the SHA-256 of its
// fixed-seed scenario result. Update a hash only when a simulation-
// visible change is intended; the failure message prints the new value.
var schemeGolden = map[string]string{
	"LRU+CFS":      "38623f11a9a8c100797f005b1f75e0315b5035ba073da78142d091aaf4f7191a",
	"UCSG":         "9570f223643fa91b8804a8c09997d830ecbdbbdba859b323d29f32add1490ffb",
	"Acclaim":      "92981e48e392b5435207f8e7a23f5a51fc0dd2c322fb3de535eb114ce770f741",
	"Ice":          "1cfb9e7a11c2e3dd5306c15d530ed0128d15f16bc6d1fef0212fa31490940b95",
	"PowerManager": "ab82deca62aae97e2fd12769b2642297379cb572862f99280f9a78b871cbc34d",
	"SWAM":         "05d9eb865c4d697c69a781b409770d7cecdc32e43e7a6ca687621120953a8f75",
	"Ariadne":      "6721e945f9e8cc79612fc3d32f4fc82dd01c93cbafc4c02901a78be709090637",
}

// goldenResult is the deterministic surface of a ScenarioResult that the
// hash covers: every stats domain the simulation produces. Trace and Obs
// are excluded (Trace is nil without TraceCap; Obs duplicates the stats
// already covered).
type goldenResult struct {
	Frames          interface{}
	Mem             mm.Stats
	Distances       mm.DistanceHistogram
	MemSeries       []mm.SecondBucket
	CPU             sched.Stats
	IO              storage.Stats
	Zram            zram.Stats
	LMKKills        int
	FrozenApps      int
	FGResidentStart int
	RenderStall     sim.Time
	RenderBlock     sim.Time
}

// schemeResultHash runs the golden workload under the named scheme and
// hashes the result: scenario S-C (scrolling) on the Pixel3 — the
// low-end device, where memory pressure is harshest — for 2 simulated
// seconds at seed 42.
func schemeResultHash(t *testing.T, name string) string {
	t.Helper()
	sch, err := policy.ByName(name)
	if err != nil {
		t.Fatalf("ByName(%q): %v", name, err)
	}
	res := workload.RunScenario(workload.ScenarioConfig{
		Scenario: "S-C",
		Device:   device.Pixel3,
		Scheme:   sch,
		BGCase:   workload.BGApps,
		Duration: 2 * sim.Second,
		Seed:     42,
	})
	return resultHash(t, res)
}

// resultHash hashes the goldenResult surface of res.
func resultHash(t *testing.T, res workload.ScenarioResult) string {
	t.Helper()
	blob, err := json.Marshal(goldenResult{
		Frames:          res.Frames,
		Mem:             res.Mem,
		Distances:       res.Distances,
		MemSeries:       res.MemSeries,
		CPU:             res.CPU,
		IO:              res.IO,
		Zram:            res.Zram,
		LMKKills:        res.LMKKills,
		FrozenApps:      res.FrozenApps,
		FGResidentStart: res.FGResidentStart,
		RenderStall:     res.RenderStall,
		RenderBlock:     res.RenderBlock,
	})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestSchemeGolden asserts every registered scheme reproduces its golden
// hash, and that the golden table and the registry cover each other.
func TestSchemeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scheme simulation sweep")
	}
	registered := policy.Names()
	for _, name := range registered {
		if _, ok := schemeGolden[name]; !ok {
			t.Errorf("scheme %q is registered but has no golden hash", name)
		}
	}
	names := make([]string, 0, len(schemeGolden))
	for name := range schemeGolden {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			// schemeResultHash fails the test if the name does not
			// resolve through ByName, so stale golden entries are caught.
			got := schemeResultHash(t, name)
			if want := schemeGolden[name]; got != want {
				t.Errorf("scheme %q result hash changed:\n  got  %s\n  want %s\n"+
					"(if this change is intended, update schemeGolden)", name, got, want)
			}
		})
	}
}

// TestSchemeGoldenOnPoisonedChunks reruns TestSchemeGolden's scenarios
// with mm's pool of released arena chunks full of garbage. A device's
// arena takes those chunks without clearing them, so every hash must
// still match: no stale byte may reach a result.
func TestSchemeGoldenOnPoisonedChunks(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scheme simulation sweep")
	}
	// With the collector off, the pool keeps every chunk it is given.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	names := make([]string, 0, len(schemeGolden))
	for name := range schemeGolden {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		poisonChunkPool(t, 32)
		if got, want := schemeResultHash(t, name), schemeGolden[name]; got != want {
			t.Errorf("scheme %q on poisoned chunks:\n  got  %s\n  want %s", name, got, want)
		}
	}
}

// poisonChunkPool maps n arena chunks' worth of pages on a scratch
// Manager, overwrites every byte of its chunks (pages and mapping
// stamps) with seeded garbage and releases it, which leaves those chunks
// in mm's pool for the next arena that grows. The arena is unexported,
// so it is reached through reflect; its chunks hold no pointers.
func poisonChunkPool(t *testing.T, n int) {
	t.Helper()
	eng := sim.NewEngine(1)
	disk := storage.New(eng, storage.UFS21)
	z := zram.New(zram.DefaultConfig(1024), eng.Obs())
	cfg := mm.DefaultConfig()
	const chunkPages = 4096
	cfg.TotalPages = (n + 1) * chunkPages
	cfg.HighWatermark, cfg.LowWatermark, cfg.MinWatermark = 128, 106, 85
	m := mm.New(eng, cfg, z, disk)
	m.Map(1, 10001, mm.AnonJava, n*chunkPages)
	chunks := reflect.ValueOf(m).Elem().FieldByName("arena").FieldByName("chunks")
	pages, _ := chunks.Type().Elem().Elem().FieldByName("pages")
	if chunks.Len() != n || pages.Type.Len() != chunkPages {
		t.Fatalf("%d pages filled %d chunks of %d, want %d of %d",
			n*chunkPages, chunks.Len(), pages.Type.Len(), n, chunkPages)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		c := chunks.Index(i)
		rng.Read(unsafe.Slice((*byte)(c.UnsafePointer()), c.Type().Elem().Size()))
	}
	m.Release()
}

// thawGolden pins freezer-heavy runs: per scheme, the thaw count and the
// SHA-256 of the goldenResult surface and of the Chrome trace JSON.
// TestSchemeGolden's 2 s runs thaw only before measurement; these 40 s
// P20 runs cross three ICE MDT epochs, and the trace holds one span per
// executed quantum, so the schedule around every thaw is pinned quantum
// by quantum.
var thawGolden = map[string]struct {
	thaws         int
	result, trace string
}{
	"Ice":          {11, "138f13b8760773190bed15d0bf96b9a77e5163d2227926cfa5ab904989ccbe42", "b9da6cb194d72ff3c1895b1981238165c55ceaabcb58aa597e2ee66b88e133fd"},
	"PowerManager": {3, "7c280640c307205deda2467b48d4ec97564eaf05d5b766e2be7095a925204f13", "cd45a95961559c540fd7c355b865b7c01071a97f385e25eaaf3397fb382cf5d5"},
}

// thawTraceCap holds every event of a thawGolden run, so the ring never
// wraps and the trace hash covers the whole run.
const thawTraceCap = 1 << 19

// TestThawGolden runs Ice and PowerManager on the P20, scenario S-A with
// cached background apps, for 40 simulated seconds at seed 7 with tracing
// on, and asserts the thawGolden hashes.
func TestThawGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("40 s traced simulations")
	}
	for _, name := range []string{"Ice", "PowerManager"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sch, err := policy.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res := workload.RunScenario(workload.ScenarioConfig{
				Scenario: "S-A",
				Device:   device.P20,
				Scheme:   sch,
				BGCase:   workload.BGApps,
				Duration: 40 * sim.Second,
				Seed:     7,
				TraceCap: thawTraceCap,
			})
			if res.Trace.Recorded != uint64(res.Trace.Len()) {
				t.Fatalf("trace ring wrapped: kept %d of %d events", res.Trace.Len(), res.Trace.Recorded)
			}
			thaws := 0
			for _, ev := range res.Trace.Filter(trace.CatFreezer) {
				if ev.Name == "thaw" {
					thaws++
				}
			}
			h := sha256.New()
			if err := trace.ExportChrome(h, res.Trace.Events(), res.Subjects); err != nil {
				t.Fatal(err)
			}
			traceHash := hex.EncodeToString(h.Sum(nil))
			want := thawGolden[name]
			if got := resultHash(t, res); thaws != want.thaws || got != want.result || traceHash != want.trace {
				t.Errorf("%s thaw run changed:\n  got  %d thaws, result %s, trace %s\n  want %d thaws, result %s, trace %s\n"+
					"(if this change is intended, update thawGolden)",
					name, thaws, got, traceHash, want.thaws, want.result, want.trace)
			}
		})
	}
}

// launchLoopGolden is the SHA-256 of launchLoopHash's result. The
// Monkey usage stream runs only in the launch loop and the studies, so
// TestSchemeGolden's scenario runs never post a Monkey Work; this pins
// that stream (and the GC and service streams beside it) byte-for-byte.
const launchLoopGolden = "aec3729ec92f5c5dc2ea594d34c7474da060680458800acd08ee451d0a1bd481"

// launchLoopHash runs two rounds of an eight-app launch loop under Ice
// on the Pixel3, 3 s of Monkey usage per app at seed 42, and hashes
// every deterministic field of the result.
func launchLoopHash(t *testing.T) string {
	t.Helper()
	sch, err := policy.ByName("Ice")
	if err != nil {
		t.Fatal(err)
	}
	res := workload.RunLaunchLoop(workload.LaunchLoopConfig{
		Device: device.Pixel3,
		Scheme: sch,
		Rounds: 2,
		Dwell:  3 * sim.Second,
		Apps:   app.Catalog()[:8],
		Seed:   42,
	})
	blob, err := json.Marshal(struct {
		PerRound     interface{}
		All          interface{}
		HotPerRound  []int
		ColdPerRound []int
		LMKKills     int
		Mem          mm.Stats
		CPU          sched.Stats
		IO           storage.Stats
		Elapsed      sim.Time
	}{res.PerRound, res.All, res.HotPerRound, res.ColdPerRound, res.LMKKills, res.Mem, res.CPU, res.IO, res.Elapsed})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestLaunchLoopGolden asserts the fixed-seed launch loop reproduces its
// golden hash.
func TestLaunchLoopGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("launch-loop simulation")
	}
	if got := launchLoopHash(t); got != launchLoopGolden {
		t.Errorf("launch-loop result hash changed:\n  got  %s\n  want %s\n"+
			"(if this change is intended, update launchLoopGolden)", got, launchLoopGolden)
	}
}
