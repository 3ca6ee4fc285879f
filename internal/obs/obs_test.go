package obs

import (
	"strings"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments, got %v %v %v", c, g, h)
	}
	// All recording and reading paths must be no-ops, not panics.
	c.Inc()
	c.Add(3)
	g.Set(7)
	g.Add(-2)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Error("nil instruments must read as zero")
	}
	if h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Error("nil histogram stats must be zero")
	}
	r.Reset()
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Hists) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("a") != c {
		t.Error("registration must be idempotent")
	}
	g := r.Gauge("b")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []int64{0, 1, 2, 3, 100, 1000, -5} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 1106 { // -5 clamps to 0
		t.Errorf("sum = %d, want 1106", h.Sum())
	}
	if h.Max() != 1000 {
		t.Errorf("max = %d, want 1000", h.Max())
	}
	// p50 of {0,0,1,2,3,100,1000}: the 4th of 7 observations is 2,
	// whose log2 bucket upper edge is 3.
	if p := h.Percentile(50); p != 3 {
		t.Errorf("p50 = %d, want 3", p)
	}
	if p := h.Percentile(100); p != h.Max() {
		t.Errorf("p100 = %d, want max %d", p, h.Max())
	}
}

func TestHistogramBucketClamp(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("big")
	h.Observe(1 << 62) // beyond the last bucket; must clamp, not panic
	if h.Count() != 1 || h.Max() != 1<<62 {
		t.Errorf("count=%d max=%d", h.Count(), h.Max())
	}
}

func TestResetKeepsRegistrations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	g := r.Gauge("b")
	h := r.Histogram("c")
	c.Add(9)
	g.Set(9)
	h.Observe(9)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("Reset must zero values")
	}
	if r.Counter("a") != c || r.Gauge("b") != g || r.Histogram("c") != h {
		t.Error("Reset must keep the registered instruments")
	}
	c.Inc()
	if v, _ := r.Snapshot().Counter("a"); v != 1 {
		t.Error("instrument must keep recording after Reset")
	}
}

func TestRemoveDropsSeries(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("peer.a")
	g.Set(3)
	r.Counter("peer.a").Inc()
	r.Gauge("peer.b").Set(1)
	r.Remove("peer.a")
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 1 || s.Gauges[0].Name != "peer.b" {
		t.Fatalf("snapshot after Remove(peer.a) = %+v, want only gauge peer.b", s)
	}
	g.Set(5) // a held instrument still records, unseen
	if again := r.Gauge("peer.a"); again == g || again.Value() != 0 {
		t.Error("re-registering a removed name must give a fresh instrument")
	}
	var nilReg *Registry
	nilReg.Remove("x")
}

func TestSnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz").Add(1)
	r.Counter("aa").Add(2)
	r.Gauge("mid").Set(3)
	r.Histogram("hh").Observe(7)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "aa" || s.Counters[1].Name != "zz" {
		t.Errorf("counters not name-sorted: %+v", s.Counters)
	}
	if _, ok := s.Counter("missing"); ok {
		t.Error("missing counter must report !ok")
	}
	if v, ok := s.Gauge("mid"); !ok || v != 3 {
		t.Errorf("gauge lookup = %d,%v", v, ok)
	}
	if hs, ok := s.Hist("hh"); !ok || hs.Count != 1 || hs.Max != 7 {
		t.Errorf("hist lookup = %+v,%v", hs, ok)
	}
}

// TestSnapshotDumpGolden pins the `icesim -stats` text format.
func TestSnapshotDumpGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("mm.reclaim.pages").Add(120)
	r.Counter("frame.drops").Add(3)
	r.Gauge("sched.runqueue.depth").Set(5)
	h := r.Histogram("mm.lock.wait_us")
	h.Observe(10)
	h.Observe(100)
	h.Observe(4000)
	got := r.Snapshot().String()
	want := strings.Join([]string{
		"counter frame.drops                      3",
		"counter mm.reclaim.pages                 120",
		"gauge   sched.runqueue.depth             5",
		"hist    mm.lock.wait_us                  count=3 sum=4110 max=4000 p50<=127 p90<=4095 p99<=4095",
		"",
	}, "\n")
	if got != want {
		t.Errorf("snapshot dump drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
