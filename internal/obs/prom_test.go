package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedRegistry builds a small registry with every instrument kind,
// a rule-matched dynamic family, and values chosen to exercise several
// histogram buckets. Deterministic by construction.
func fixedRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("mm.refault.pages").Add(42)
	reg.Counter("zram.stored.pages").Add(7)
	reg.Counter("service.shard.peer_failures") // registered, zero
	reg.Gauge("freezer.frozen_apps").Set(3)
	reg.Gauge("ice.intensity_r").Set(-2)
	h := reg.Histogram("frame.latency_us")
	for _, v := range []int64{0, 1, 3, 9, 1000, 16000} {
		h.Observe(v)
	}
	reg.Gauge("service.shard.peer_inflight.127.0.0.1:9001").Set(2)
	reg.Gauge("service.shard.peer_inflight.127.0.0.1:9002").Set(0)
	return reg
}

func fixedOptions() PromOptions {
	return PromOptions{
		ConstLabels: []PromLabel{{Key: "role", Value: "node"}, {Key: "node", Value: "test-0"}},
		Rules:       []PromRule{{Prefix: "service.shard.peer_inflight.", Label: "peer"}},
	}
}

// TestPromGolden pins the exact exposition bytes for the fixed
// registry. Regenerate with `go test ./internal/obs -run PromGolden
// -update` and review the diff.
func TestPromGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, fixedRegistry().Snapshot(), fixedOptions()); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	got := b.String()
	golden := filepath.Join("testdata", "prom_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPromGrammar asserts every non-comment line of the rendered
// exposition parses as `name{labels} value` and belongs to an announced
// # TYPE family — via the strict parser, plus a direct regexp check so
// the test does not only trust the parser's leniency.
func TestPromGrammar(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, fixedRegistry().Snapshot(), fixedOptions()); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	text := b.String()

	fams, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if len(fams) == 0 {
		t.Fatal("no families parsed")
	}

	lineRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)
	typed := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRE.MatchString(line) {
			t.Errorf("line does not match sample grammar: %q", line)
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if s, ok := strings.CutSuffix(name, suf); ok && typed[s] {
				base = s
				break
			}
		}
		if !typed[base] {
			t.Errorf("series %q has no matching # TYPE line", name)
		}
	}

	// Spot-check structure: counters end in _total, const labels are on
	// every sample, the rule extracted a peer label.
	for _, fam := range fams {
		if fam.Type == "counter" && !strings.HasSuffix(fam.Name, "_total") {
			t.Errorf("counter family %q lacks _total suffix", fam.Name)
		}
		for _, s := range fam.Samples {
			if s.Label("role") != "node" || s.Label("node") != "test-0" {
				t.Errorf("sample %s missing const labels: %+v", s.Name, s.Labels)
			}
		}
	}
	peers := 0
	for _, fam := range fams {
		if fam.Name == "ice_service_shard_peer_inflight" {
			for _, s := range fam.Samples {
				if s.Label("peer") != "" {
					peers++
				}
			}
		}
	}
	if peers != 2 {
		t.Errorf("expected 2 peer-labelled inflight samples, got %d", peers)
	}
}

// TestPromHistogram checks the cumulative le-bucket semantics against
// hand-computed values: edges are 2^i − 1, buckets are cumulative, the
// +Inf bucket equals _count, and _sum matches the observations.
func TestPromHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("frame.latency_us")
	obsVals := []int64{0, 1, 2, 3, 100}
	var sum int64
	for _, v := range obsVals {
		h.Observe(v)
		sum += v
	}
	var b strings.Builder
	if err := WriteProm(&b, reg.Snapshot(), PromOptions{}); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || fams[0].Type != "histogram" {
		t.Fatalf("want one histogram family, got %+v", fams)
	}
	// v=0 → le"0"; v=1 → le"1"; v=2,3 → le"3"; v=100 → le"127".
	wantCum := map[string]float64{"0": 1, "1": 2, "3": 4, "127": 5, "+Inf": 5}
	var bucketCount, infVal float64
	for _, s := range fams[0].Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			le := s.Label("le")
			v, err := s.FloatValue()
			if err != nil {
				t.Fatalf("bucket value: %v", err)
			}
			if want, ok := wantCum[le]; ok && v != want {
				t.Errorf("le=%s: got %v want %v", le, v, want)
			}
			if le == "+Inf" {
				infVal = v
			}
			// Edges must be 2^i − 1: le+1 is a power of two.
			if le != "+Inf" {
				n, err := strconv.ParseUint(le, 10, 64)
				if err != nil {
					t.Fatalf("non-integer le %q", le)
				}
				if (n+1)&n != 0 {
					t.Errorf("le=%s is not 2^i - 1", le)
				}
			}
			bucketCount++
		case strings.HasSuffix(s.Name, "_sum"):
			if v, _ := s.FloatValue(); v != float64(sum) {
				t.Errorf("_sum: got %v want %d", v, sum)
			}
		case strings.HasSuffix(s.Name, "_count"):
			if v, _ := s.FloatValue(); v != float64(len(obsVals)) {
				t.Errorf("_count: got %v want %d", v, len(obsVals))
			}
			if infVal != float64(len(obsVals)) {
				t.Errorf("+Inf bucket %v != count %d", infVal, len(obsVals))
			}
		}
	}
	// 39 exact edges (i = 0..38) plus +Inf.
	if bucketCount != HistBuckets {
		t.Errorf("bucket lines: got %v want %d", bucketCount, HistBuckets)
	}
}

// TestPromCollisions exercises the collision and grammar failures
// PromFamilies must reject.
func TestPromCollisions(t *testing.T) {
	t.Run("dot-underscore collision", func(t *testing.T) {
		reg := NewRegistry()
		reg.Counter("a.b")
		reg.Counter("a_b")
		if _, err := PromFamilies(reg.Snapshot(), PromOptions{}); err == nil {
			t.Fatal("want collision error for a.b vs a_b")
		}
	})
	t.Run("cross-kind collision", func(t *testing.T) {
		reg := NewRegistry()
		reg.Gauge("x.y")
		reg.Histogram("x").Observe(1) // reserves x_bucket/x_sum/x_count... but not x_y
		reg.Gauge("x.sum")            // collides with histogram child x_sum
		if _, err := PromFamilies(reg.Snapshot(), PromOptions{}); err == nil {
			t.Fatal("want collision error for gauge x.sum vs histogram x's _sum child")
		}
	})
	t.Run("counter-gauge total collision", func(t *testing.T) {
		reg := NewRegistry()
		reg.Counter("q")     // exports q_total
		reg.Gauge("q.total") // exports q_total too
		if _, err := PromFamilies(reg.Snapshot(), PromOptions{}); err == nil {
			t.Fatal("want collision error for counter q vs gauge q.total")
		}
	})
	t.Run("invalid instrument name", func(t *testing.T) {
		reg := NewRegistry()
		reg.Counter("service.shard.peer_healthy.127.0.0.1:9001") // ':' invalid, no rule
		if _, err := PromFamilies(reg.Snapshot(), PromOptions{}); err == nil {
			t.Fatal("want grammar error for unruled peer series")
		}
	})
	t.Run("rule makes it valid", func(t *testing.T) {
		reg := NewRegistry()
		reg.Counter("service.shard.peer_healthy.127.0.0.1:9001")
		opts := PromOptions{Rules: []PromRule{{Prefix: "service.shard.peer_healthy.", Label: "peer"}}}
		if _, err := PromFamilies(reg.Snapshot(), opts); err != nil {
			t.Fatalf("rule-matched series should lint clean: %v", err)
		}
	})
	t.Run("clean registry lints", func(t *testing.T) {
		if _, err := PromFamilies(fixedRegistry().Snapshot(), fixedOptions()); err != nil {
			t.Fatalf("fixed registry should lint clean: %v", err)
		}
	})
}

// TestPromLabelEscaping checks quoting of backslashes, quotes and
// newlines in label values.
func TestPromLabelEscaping(t *testing.T) {
	snap := Snapshot{Gauges: []GaugeSample{{Name: "g", Value: 1}}}
	var b strings.Builder
	opts := PromOptions{ConstLabels: []PromLabel{{Key: "path", Value: `a\b"c` + "\n"}}}
	if err := WriteProm(&b, snap, opts); err != nil {
		t.Fatal(err)
	}
	want := `ice_g{path="a\\b\"c\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaping wrong:\n%s\nwant line: %s", b.String(), want)
	}
	fams, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("escaped output does not reparse: %v", err)
	}
	if got := fams[0].Samples[0].Label("path"); got != `a\b"c`+"\n" {
		t.Errorf("round-trip label value: got %q", got)
	}
}

// TestPromFamiliesParseBack pins the equivalence the fleet's self
// section rests on: PromFamilies builds exactly the families ParseProm
// reads back from WriteProm's text, so the fleet can use them directly
// instead of rendering and re-parsing its own exposition. The escapes
// case puts a backslash, a quote and a newline in a const label and in
// the rule labels of a counter and a histogram.
func TestPromFamiliesParseBack(t *testing.T) {
	odd := `a\b"c` + "\n" + "d"
	escapes := fixedRegistry()
	escapes.Counter("service.tenant.submitted." + odd).Add(3)
	escapes.Histogram("service.http.latency_us." + odd).Observe(5)
	escapesOpts := fixedOptions()
	escapesOpts.ConstLabels = []PromLabel{{Key: "peer", Value: odd}, {Key: "node", Value: ""}}
	escapesOpts.Rules = append(escapesOpts.Rules,
		PromRule{Prefix: "service.tenant.submitted.", Label: "principal"},
		PromRule{Prefix: "service.http.latency_us.", Label: "route"})

	for name, tc := range map[string]struct {
		snap Snapshot
		opts PromOptions
	}{
		"fixed":     {fixedRegistry().Snapshot(), fixedOptions()},
		"escapes":   {escapes.Snapshot(), escapesOpts},
		"no labels": {fixedRegistry().Snapshot(), PromOptions{Rules: fixedOptions().Rules}},
		"empty":     {Snapshot{}, fixedOptions()},
	} {
		want, err := PromFamilies(tc.snap, tc.opts)
		if err != nil {
			t.Fatalf("%s: PromFamilies: %v", name, err)
		}
		var b bytes.Buffer
		if err := WriteProm(&b, tc.snap, tc.opts); err != nil {
			t.Fatalf("%s: WriteProm: %v", name, err)
		}
		got, err := ParseProm(&b)
		if err != nil {
			t.Fatalf("%s: exposition does not parse: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parsed exposition differs from PromFamilies:\n%+v\n%+v", name, got, want)
		}
	}
}

// parsePromRejects are expositions ParseProm must refuse.
var parsePromRejects = map[string]string{
	"sample without TYPE":   "orphan_series 1\n",
	"non-numeric value":     "# TYPE x gauge\nx pizza\n",
	"foreign histogram kid": "# TYPE x gauge\nx_bucket{le=\"1\"} 1\n",
	"duplicate TYPE":        "# TYPE x gauge\n# TYPE x counter\n",
	"unterminated labels":   "# TYPE x gauge\nx{a=\"b 1\n",
}

// TestParsePromRejects checks the parser enforces the grammar rather
// than skipping malformed lines.
func TestParsePromRejects(t *testing.T) {
	for name, text := range parsePromRejects {
		if _, err := ParseProm(strings.NewReader(text)); err == nil {
			t.Errorf("%s: want parse error for %q", name, text)
		}
	}
}

// FuzzParseProm feeds arbitrary bytes to ParseProm, which a coordinator
// runs on every peer's exposition. It must not panic, and an accepted
// input re-rendered with WriteFamilies must parse back to the same
// families.
func FuzzParseProm(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "prom_golden.txt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, text := range parsePromRejects {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		fams, err := ParseProm(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFamilies(&out, fams); err != nil {
			t.Fatal(err)
		}
		again, err := ParseProm(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-rendered exposition rejected: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(again, fams) {
			t.Fatalf("re-rendered exposition parsed differently:\n%q\n%+v\n%+v", out.Bytes(), fams, again)
		}
	})
}

// TestMergeFamilies checks first-TYPE-wins dedup and sample append
// order — the fleet scraper's merge semantics.
func TestMergeFamilies(t *testing.T) {
	a := []PromFamily{{Name: "m", Type: "counter", Help: "first", Samples: []PromSample{{Name: "m", Value: "1"}}}}
	bF := []PromFamily{
		{Name: "m", Type: "counter", Help: "second", Samples: []PromSample{{Name: "m", Value: "2"}}},
		{Name: "n", Type: "gauge", Samples: []PromSample{{Name: "n", Value: "3"}}},
	}
	got := MergeFamilies(a, bF)
	if len(got) != 2 {
		t.Fatalf("want 2 families, got %d", len(got))
	}
	if got[0].Help != "first" || len(got[0].Samples) != 2 || got[0].Samples[1].Value != "2" {
		t.Errorf("merge semantics wrong: %+v", got[0])
	}
	var out strings.Builder
	if err := WriteFamilies(&out, got); err != nil {
		t.Fatal(err)
	}
	if want := "# HELP m first\n# TYPE m counter\nm 1\nm 2\n# TYPE n gauge\nn 3\n"; out.String() != want {
		t.Errorf("merged exposition:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestAbsorb checks histogram snapshot folding: the daemon's sim.*
// aggregation depends on buckets surviving the HistSample round trip.
func TestAbsorb(t *testing.T) {
	src := &Histogram{}
	for _, v := range []int64{1, 5, 9000} {
		src.Observe(v)
	}
	reg := NewRegistry()
	dst := reg.Histogram("agg")
	dst.Observe(2)
	srcSnap := src.snapshotSample()
	dst.Absorb(srcSnap)
	if dst.Count() != 4 {
		t.Errorf("count: got %d want 4", dst.Count())
	}
	if dst.Sum() != 1+5+9000+2 {
		t.Errorf("sum: got %d", dst.Sum())
	}
	if dst.Max() != 9000 {
		t.Errorf("max: got %d", dst.Max())
	}
	snap, _ := reg.Snapshot().Hist("agg")
	var total uint64
	for _, n := range snap.Buckets {
		total += n
	}
	if total != 4 {
		t.Errorf("buckets after absorb sum to %d, want 4", total)
	}
}

// snapshotSample builds a HistSample for a bare histogram (test helper;
// production code goes through Registry.Snapshot).
func (h *Histogram) snapshotSample() HistSample {
	return HistSample{
		Name: h.name, Count: h.count, Sum: h.sum, Max: h.max,
		P50: h.Percentile(50), P90: h.Percentile(90), P99: h.Percentile(99),
		Buckets: h.buckets,
	}
}

// TestBucketsExcludedFromJSON pins the wire-format stability promise:
// HistSample JSON must not contain the raw buckets.
func TestBucketsExcludedFromJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("h").Observe(5)
	snap := reg.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "uckets") {
		t.Errorf("Buckets leaked into JSON: %s", raw)
	}
}
