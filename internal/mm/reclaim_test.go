package mm

import (
	"testing"
)

func TestPickScanListBalances(t *testing.T) {
	_, m := newTestManager(30)
	m.Map(1, 10001, AnonNative, 100)
	m.Map(2, 10002, File, 100)
	anon, file := 0, 0
	for i := 0; i < 200; i++ {
		list, ok := m.pickScanList()
		if !ok {
			t.Fatal("no list with both populated")
		}
		switch list {
		case lInactiveAnon:
			anon++
		case lInactiveFile:
			file++
		default:
			t.Fatalf("unexpected list %v", list)
		}
	}
	if anon == 0 || file == 0 {
		t.Fatalf("scan balance broken: anon=%d file=%d", anon, file)
	}
}

func TestPickScanListSingleKind(t *testing.T) {
	_, m := newTestManager(31)
	m.Map(1, 10001, File, 50)
	list, ok := m.pickScanList()
	if !ok || list != lInactiveFile {
		t.Fatalf("file-only pick: %v ok=%v", list, ok)
	}
	_, m2 := newTestManager(32)
	if _, ok := m2.pickScanList(); ok {
		t.Fatal("empty lists picked something")
	}
}

func TestDemoteRefillsInactive(t *testing.T) {
	_, m := newTestManager(33)
	ids, _ := m.Map(1, 10001, AnonNative, 100)
	// Activate everything (two touches promote).
	m.Touch(1, ids)
	m.Touch(1, ids)
	counts := m.ListCounts()
	if counts[0] == 0 { // activeAnon
		t.Skip("promotion did not populate the active list")
	}
	m.demoteIfNeeded(AnonNative, 50)
	after := m.ListCounts()
	if after[1] <= counts[1] {
		t.Fatalf("demotion did not refill inactive: %v → %v", counts, after)
	}
}

// aggressiveAll evicts referenced background pages (Acclaim-style) for
// every non-FG uid.
type aggressiveAll struct{}

func (aggressiveAll) Name() string { return "aggressive" }
func (aggressiveAll) Protect(uid int, _ Class, fgUID int) bool {
	return uid == fgUID
}
func (aggressiveAll) EvictReferenced(uid int, fgUID int) bool {
	return uid != fgUID
}

func TestAggressivePolicySkipsSecondChance(t *testing.T) {
	_, m := newTestManager(34)
	cfgCopy := m.Config()
	cfgCopy.MemcgScanFraction = 0
	m.cfg = cfgCopy
	m.SetForegroundUID(10001)

	bg, _ := m.Map(2, 10002, AnonNative, 60)
	m.Touch(2, bg) // referenced: LRU would spare them one round

	m.SetEvictionPolicy(aggressiveAll{})
	res := m.reclaimPages(30)
	if res.reclaimed < 25 {
		t.Fatalf("aggressive policy reclaimed only %d of 30", res.reclaimed)
	}
	evicted := 0
	for _, id := range bg {
		if m.Info(id).State == Evicted {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("no referenced background pages were sacrificed")
	}
}

func TestRandomVictimSkipsReferencedByDefault(t *testing.T) {
	_, m := newTestManager(35)
	ids, _ := m.Map(1, 10001, AnonNative, 50)
	m.Touch(1, ids) // all referenced
	if id, ok := m.randomVictim(); ok {
		if m.arena.at(id).referenced() {
			t.Fatal("randomVictim returned a referenced page without a policy")
		}
	}
}

func TestKswapdStepStopsAtHigh(t *testing.T) {
	_, m := newTestManager(36)
	// Fill below high.
	m.Map(1, 10001, AnonNative, m.FreePages()-m.Config().HighWatermark+64)
	for i := 0; i < 1000; i++ {
		_, reclaimed, more := m.KswapdStep()
		if !more {
			if reclaimed != 0 && m.BelowHigh() {
				t.Fatal("kswapd stopped while below high with progress available")
			}
			break
		}
	}
	if m.BelowHigh() {
		t.Fatalf("kswapd never restored the high watermark: free=%d high=%d",
			m.FreePages(), m.Config().HighWatermark)
	}
}

func TestReclaimRespectsZramCompression(t *testing.T) {
	_, m := newTestManager(37)
	free0 := m.FreePages()
	m.Map(1, 10001, AnonNative, 100)
	m.ReclaimProcess(1)
	// Evicting anon frees RAM minus the compressed footprint.
	gain := m.FreePages() - (free0 - 100)
	if gain <= 0 || gain >= 100 {
		t.Fatalf("anon eviction net gain %d of 100; compression accounting broken", gain)
	}
}

func TestDistanceHistogram(t *testing.T) {
	var h DistanceHistogram
	for _, d := range []uint64{0, 1, 3, 7, 100, 1000} {
		h.note(d)
	}
	if h.Count != 6 {
		t.Fatalf("count %d", h.Count)
	}
	if h.Mean() != (0+1+3+7+100+1000)/6.0 {
		t.Fatalf("mean %v", h.Mean())
	}
	if p := h.Percentile(50); p < 3 || p > 15 {
		t.Fatalf("p50 %d", p)
	}
	if h.ShortShare(7) < 0.5 {
		t.Fatalf("short share %v", h.ShortShare(7))
	}
	if h.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestManagerDistanceTracking(t *testing.T) {
	_, m := newTestManager(39)
	a, _ := m.Map(1, 10001, AnonJava, 1)
	m.ReclaimProcess(1)
	m.Map(2, 10002, AnonJava, 30)
	m.ReclaimProcess(2) // 30 intervening evictions
	m.Touch(1, a)
	h := m.RefaultDistances()
	if h.Count != 1 {
		t.Fatalf("count %d", h.Count)
	}
	if h.Mean() != 30 {
		t.Fatalf("distance mean %v, want 30", h.Mean())
	}
	m.ResetStats()
	if m.RefaultDistances().Count != 0 {
		t.Fatal("histogram survived reset")
	}
}
