package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/eurosys23/ice/internal/experiments"
	"github.com/eurosys23/ice/internal/harness"
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
	// A scheme alias or another letter case runs the same simulation, so
	// it normalises to the canonical name and the same key.
	alias := JobSpec{Kind: KindRun, Scheme: "baseline"}
	if err := alias.normalize(); err != nil {
		t.Fatal(err)
	}
	if CacheKey(alias, "v") != CacheKey(minimal, "v") {
		t.Fatalf("scheme alias normalises to %+v, not %+v", alias, minimal)
	}
	lower := JobSpec{Kind: KindRun, Scheme: "ice"}
	if err := lower.normalize(); err != nil {
		t.Fatal(err)
	}
	if lower.Scheme != "Ice" {
		t.Fatalf("scheme %q not canonicalised to Ice", lower.Scheme)
	}
	// Only the apps case reads num_bg, so any other case drops it: one
	// simulation, one key, one payload.
	var payloads [][]byte
	for _, numBG := range []int{0, 5} {
		s := JobSpec{Kind: KindRun, Device: "Pixel3", Scenario: "S-C", BGCase: "null", NumBG: numBG, DurationSec: 2, Rounds: 2}
		if err := s.normalize(); err != nil {
			t.Fatal(err)
		}
		if s.NumBG != 0 {
			t.Fatalf("num_bg %d kept on a null-case run", s.NumBG)
		}
		res, _, err := execute(context.Background(), s, nil, nil, harness.ExecHooks{})
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, res)
	}
	if !bytes.Equal(payloads[0], payloads[1]) {
		t.Fatal("null-case runs differing only in num_bg returned different payloads")
	}

	exp := JobSpec{Kind: KindExperiment, Experiment: "fig8"}
	if err := exp.normalize(); err != nil {
		t.Fatal(err)
	}
	// The defaults of experiments.Options.WithDefaults.
	if exp.Rounds != 10 || exp.Seed != 20230509 {
		t.Fatalf("experiment defaults: %+v", exp)
	}
	fast := JobSpec{Kind: KindExperiment, Experiment: "fig8", Fast: true}
	fast.normalize()
	if fast.Rounds != 2 {
		t.Fatalf("fast experiment rounds = %d", fast.Rounds)
	}
}

// TestExperimentKeyIgnoresUnreadScale runs experiment jobs that differ
// only in scale options their runner never reads: table1 ignores the
// duration, fig3, fig4 and fig11 ignore duration and rounds. Each job
// runs as written, so the payloads show that the runner ignores what its
// registry entry says it does. Each group must share one key and return
// byte-identical payloads, so one result is simulated and stored once.
func TestExperimentKeyIgnoresUnreadScale(t *testing.T) {
	for _, group := range [][]string{
		{
			`{"kind":"experiment","experiment":"fig4","fast":true}`,
			`{"kind":"experiment","experiment":"fig4","fast":true,"duration_sec":5}`,
			`{"kind":"experiment","experiment":"fig4","fast":true,"rounds":7}`,
		},
		{
			`{"kind":"experiment","experiment":"table1","fast":true}`,
			`{"kind":"experiment","experiment":"table1","fast":true,"duration_sec":5}`,
		},
		{
			`{"kind":"experiment","experiment":"fig3","fast":true}`,
			`{"kind":"experiment","experiment":"fig3","fast":true,"duration_sec":5,"rounds":7}`,
		},
		{
			`{"kind":"experiment","experiment":"fig11","fast":true}`,
			`{"kind":"experiment","experiment":"fig11","fast":true,"duration_sec":5,"rounds":7}`,
		},
	} {
		var key string
		var payload []byte
		for i, raw := range group {
			var spec JobSpec
			if err := json.Unmarshal([]byte(raw), &spec); err != nil {
				t.Fatal(err)
			}
			spec.Workers = 2
			res, _, err := execute(context.Background(), spec, nil, nil, harness.ExecHooks{})
			if err != nil {
				t.Fatal(err)
			}
			if err := spec.normalize(); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				key, payload = CacheKey(spec, "v"), res
				continue
			}
			if got := CacheKey(spec, "v"); got != key {
				t.Errorf("%s keys to %s, want %s as %s", raw, got, key, group[0])
			}
			if !bytes.Equal(res, payload) {
				t.Errorf("%s returned a payload that differs from %s's", raw, group[0])
			}
		}
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
		{Kind: KindRun, NumBG: -1},                                // negative bg count
		{Kind: KindRun, NumBG: 20},                                // more bg apps than the catalog holds
		{Kind: KindRun, ZramCodec: "lzma"},                        // unknown codec
		{Kind: KindRun, DurationSec: -1},                          // negative duration
		{Kind: KindRun, Fast: true},                               // fast is experiment-only
		{Kind: KindRun, Experiment: "fig8"},                       // experiment on a run job
		{Kind: KindExperiment},                                    // no experiment ID
		{Kind: KindExperiment, Experiment: "x"},                   // unknown experiment
		{Kind: KindExperiment, Experiment: "fig8", Device: "P20"}, // run field
		{Kind: KindExperiment, Experiment: "fig8", Trace: true},   // run field
		{Kind: KindRun, Workers: -1},                              // negative workers
		{Kind: KindRun, Rounds: experiments.MaxRounds + 1},        // more rounds than the bound
		{Kind: KindExperiment, Experiment: "fig8", Rounds: 1e9},   // the same on an experiment
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

// TestVersionOf: a clean revision or module version is the version as
// stamped; a modified build, or one with no revision, appends the
// executable's hash, so two different builds never share a version.
func TestVersionOf(t *testing.T) {
	exe := func() (string, error) { return "feedface", nil }
	noExe := func() (string, error) {
		t.Error("executable hashed for a clean build")
		return "", nil
	}
	vcs := func(modified string) *debug.BuildInfo {
		return &debug.BuildInfo{Main: debug.Module{Version: "(devel)"}, Settings: []debug.BuildSetting{
			{Key: "vcs.revision", Value: "a8ed45c"}, {Key: "vcs.modified", Value: modified},
		}}
	}
	for _, tc := range []struct {
		name string
		bi   *debug.BuildInfo
		hash func() (string, error)
		want string
	}{
		{"clean revision", vcs("false"), noExe, "a8ed45c"},
		{"modified revision", vcs("true"), exe, "a8ed45c+feedface"},
		{"no revision", &debug.BuildInfo{Main: debug.Module{Version: "(devel)"}}, exe, "dev+feedface"},
		{"no build info", nil, exe, "dev+feedface"},
		{"module version", &debug.BuildInfo{Main: debug.Module{Version: "v1.2.3"}}, noExe, "v1.2.3"},
	} {
		got, err := versionOf(tc.bi, tc.hash)
		if err != nil || got != tc.want {
			t.Errorf("%s: version %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
	// An unreadable executable is an error, never a version another
	// build could share.
	unreadable := func() (string, error) { return "", errors.New("permission denied") }
	if v, err := versionOf(vcs("true"), unreadable); err == nil {
		t.Errorf("unreadable executable gave version %q", v)
	}
}

// FuzzNormalize fuzzes the path every submitted spec takes: JSON decode,
// normalize, CacheKey. Nothing may panic, and a spec that normalises is
// a fixed point: normalising it again, directly or after a JSON round
// trip, gives the same spec and the same key.
func FuzzNormalize(f *testing.F) {
	for _, spec := range []string{
		// The run and experiment goldens.
		`{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":1,"seed":11}`,
		`{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":6,"seed":23,"trace":true}`,
		`{"kind":"experiment","experiment":"table1","fast":true}`,
		`{"kind":"experiment","experiment":"fig8"}`,
		`{"kind":"experiment","experiment":"fig4","fast":true,"duration_sec":5,"rounds":-3}`,
		// An alias-spelled scheme and a num_bg the case ignores.
		`{"kind":"run","scheme":"baseline","priority":"batch","workers":3}`,
		`{"kind":"run","bg_case":"memtester","num_bg":7}`,
	} {
		f.Add([]byte(spec))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec JobSpec
		if json.Unmarshal(raw, &spec) != nil || spec.normalize() != nil {
			return
		}
		key := CacheKey(spec, "fuzz")
		again := spec
		if err := again.normalize(); err != nil {
			t.Fatalf("normalised spec %+v rejected on a second pass: %v", spec, err)
		}
		if again != spec || CacheKey(again, "fuzz") != key {
			t.Fatalf("normalize is not idempotent: %+v became %+v", spec, again)
		}
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var decoded JobSpec
		if err := json.Unmarshal(wire, &decoded); err != nil {
			t.Fatal(err)
		}
		if err := decoded.normalize(); err != nil {
			t.Fatalf("normalised spec %s rejected after a JSON round trip: %v", wire, err)
		}
		if decoded != spec || CacheKey(decoded, "fuzz") != key {
			t.Fatalf("JSON round trip moved the spec: %+v became %+v", spec, decoded)
		}
	})
}
