package service

import (
	"strings"
	"testing"
)

// TestCacheKeyStableAcrossProcesses pins one key byte-for-byte. The key
// is a SHA-256 of canonical JSON, so this golden holds in any process
// of any platform; if it moves, the cacheKeySchema constant must be
// bumped so old keys cannot alias new payloads.
func TestCacheKeyStableAcrossProcesses(t *testing.T) {
	spec := JobSpec{
		Kind: KindRun, Device: "Pixel3", Scenario: "S-B", Scheme: "Ice",
		BGCase: "apps", ZramCodec: "zstd", DurationSec: 30, Rounds: 3, Seed: 42,
	}
	const golden = "1d8a911def624d0695a9710929100d15d06c384b3cc6b40834a571a3c80630c6"
	if got := CacheKey(spec, "test-version-1"); got != golden {
		t.Fatalf("cache key drifted:\n got %s\nwant %s\n(bump cacheKeySchema if the change is deliberate)", got, golden)
	}
	if CacheKey(spec, "test-version-1") != CacheKey(spec, "test-version-1") {
		t.Fatal("key not deterministic in-process")
	}
}

// TestCacheKeyFieldSensitivity: every result-determining field change
// produces a new key; the worker count (result-invariant) does not.
func TestCacheKeyFieldSensitivity(t *testing.T) {
	base := JobSpec{
		Kind: KindRun, Device: "P20", Scenario: "S-A", Scheme: "LRU+CFS",
		BGCase: "apps", ZramCodec: "lz4", DurationSec: 60, Rounds: 1, Seed: 1,
	}
	baseKey := CacheKey(base, "v")

	mutations := map[string]func(*JobSpec){
		"kind":       func(s *JobSpec) { s.Kind = KindExperiment; s.Experiment = "fig8" },
		"experiment": func(s *JobSpec) { s.Kind = KindExperiment; s.Experiment = "fig10" },
		"fast":       func(s *JobSpec) { s.Fast = true },
		"device":     func(s *JobSpec) { s.Device = "Pixel3" },
		"scenario":   func(s *JobSpec) { s.Scenario = "S-D" },
		"scheme":     func(s *JobSpec) { s.Scheme = "Ice" },
		"bg_case":    func(s *JobSpec) { s.BGCase = "memtester" },
		"num_bg":     func(s *JobSpec) { s.NumBG = 4 },
		"zram_codec": func(s *JobSpec) { s.ZramCodec = "snappy" },
		"duration":   func(s *JobSpec) { s.DurationSec = 61 },
		"trace":      func(s *JobSpec) { s.Trace = true },
		"rounds":     func(s *JobSpec) { s.Rounds = 2 },
		"seed":       func(s *JobSpec) { s.Seed = 2 },
	}
	seen := map[string]string{baseKey: "base"}
	for name, mutate := range mutations {
		s := base
		mutate(&s)
		key := CacheKey(s, "v")
		if prev, dup := seen[key]; dup {
			t.Fatalf("mutating %q collides with %q", name, prev)
		}
		seen[key] = name
	}
	// Workers is excluded: any parallelism yields the identical payload.
	s := base
	s.Workers = 7
	if CacheKey(s, "v") != baseKey {
		t.Fatal("worker count leaked into the cache key")
	}
	// A code-version change invalidates everything.
	if CacheKey(base, "v2") == baseKey {
		t.Fatal("code version ignored by the cache key")
	}
}

// TestNormalizeDefaults: a minimal spec and its fully spelled-out
// equivalent normalise to the same cache key.
func TestNormalizeDefaults(t *testing.T) {
	minimal := JobSpec{Kind: KindRun}
	if err := minimal.normalize(); err != nil {
		t.Fatal(err)
	}
	explicit := JobSpec{
		Kind: KindRun, Device: "P20", Scenario: "S-A", Scheme: "LRU+CFS",
		BGCase: "apps", ZramCodec: "lz4", DurationSec: 60, Rounds: 1, Seed: 1,
	}
	if err := explicit.normalize(); err != nil {
		t.Fatal(err)
	}
	if CacheKey(minimal, "v") != CacheKey(explicit, "v") {
		t.Fatalf("defaults normalise inconsistently:\n%+v\n%+v", minimal, explicit)
	}

	exp := JobSpec{Kind: KindExperiment, Experiment: "fig8"}
	if err := exp.normalize(); err != nil {
		t.Fatal(err)
	}
	// Mirrors experiments.Options.withDefaults.
	if exp.Rounds != 10 || exp.Seed != 20230509 {
		t.Fatalf("experiment defaults: %+v", exp)
	}
	fast := JobSpec{Kind: KindExperiment, Experiment: "fig8", Fast: true}
	fast.normalize()
	if fast.Rounds != 2 {
		t.Fatalf("fast experiment rounds = %d", fast.Rounds)
	}
}

func TestNormalizeRejects(t *testing.T) {
	bad := []JobSpec{
		{},                                                        // no kind
		{Kind: "bogus"},                                           // unknown kind
		{Kind: KindRun, Device: "iPhone"},                         // unknown device
		{Kind: KindRun, Scenario: "S-Z"},                          // unknown scenario
		{Kind: KindRun, Scheme: "FIFO"},                           // unknown scheme
		{Kind: KindRun, BGCase: "dogs"},                           // unknown bg case
		{Kind: KindRun, ZramCodec: "lzma"},                        // unknown codec
		{Kind: KindRun, DurationSec: -1},                          // negative duration
		{Kind: KindRun, Fast: true},                               // fast is experiment-only
		{Kind: KindRun, Experiment: "fig8"},                       // experiment on a run job
		{Kind: KindExperiment},                                    // no experiment ID
		{Kind: KindExperiment, Experiment: "x"},                   // unknown experiment
		{Kind: KindExperiment, Experiment: "fig8", Device: "P20"}, // run field
		{Kind: KindExperiment, Experiment: "fig8", Trace: true},   // run field
		{Kind: KindRun, Workers: -1},                              // negative workers
	}
	for i, spec := range bad {
		if err := spec.normalize(); err == nil {
			t.Fatalf("spec %d accepted: %+v", i, spec)
		}
	}
}

// TestResultCacheLRU exercises the bound and recency behaviour.
func TestResultCacheLRU(t *testing.T) {
	c := newLRU[cacheEntry](2, nil)
	c.put("a", cacheEntry{result: []byte("A")}, 1)
	c.put("b", cacheEntry{result: []byte("B")}, 1)
	if _, ok := c.get("a"); !ok { // refresh a; b is now oldest
		t.Fatal("a missing")
	}
	if ev := c.put("c", cacheEntry{result: []byte("C")}, 1); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if e, ok := c.get("a"); !ok || string(e.result) != "A" {
		t.Fatal("a lost")
	}
	if c.len() != 2 {
		t.Fatalf("len %d", c.len())
	}
	// Re-putting an existing key refreshes in place, no eviction.
	if ev := c.put("a", cacheEntry{result: []byte("A2")}, 1); ev != 0 {
		t.Fatalf("refresh evicted %d", ev)
	}
	if e, _ := c.get("a"); string(e.result) != "A2" {
		t.Fatal("refresh did not replace the entry")
	}
}

func TestBadSpecErrorWraps(t *testing.T) {
	spec := JobSpec{Kind: "bogus"}
	m := NewManager(Config{})
	_, err := m.Submit(spec)
	if err == nil || !strings.Contains(err.Error(), "unknown job kind") {
		t.Fatalf("err = %v", err)
	}
}
