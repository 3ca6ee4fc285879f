// Package service is the icesimd daemon: a long-running HTTP front-end
// over the simulator. It accepts simulation jobs (single
// scenario×scheme×device runs and any experiment from the shared
// registry), executes them through internal/harness under a global
// bounded worker budget, streams per-cell progress as NDJSON or SSE,
// and answers repeated identical jobs from a content-addressed LRU
// result cache — deterministic seeded simulations make identical
// requests perfectly cacheable.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"

	"github.com/eurosys23/ice/internal/experiments"
)

// Job kinds.
const (
	// KindRun is a single scenario × scheme × device configuration,
	// repeated Rounds times with derived seeds (cmd/icesim's job).
	KindRun = "run"
	// KindExperiment is one registered experiment matrix (cmd/
	// experiments' job); Experiment names the registry ID.
	KindExperiment = "experiment"
)

// JobSpec is the wire format of a simulation job. Zero fields take the
// documented defaults during validation, so two specs that differ only
// in spelled-out defaults normalise to the same cache key.
type JobSpec struct {
	Kind string `json:"kind"`

	// Experiment fields (Kind == "experiment").
	Experiment string `json:"experiment,omitempty"`
	Fast       bool   `json:"fast,omitempty"`

	// Run fields (Kind == "run").
	Device      string `json:"device,omitempty"`       // default P20
	Scenario    string `json:"scenario,omitempty"`     // default S-A
	Scheme      string `json:"scheme,omitempty"`       // default LRU+CFS
	BGCase      string `json:"bg_case,omitempty"`      // null|apps|cputester|memtester (default apps)
	NumBG       int    `json:"num_bg,omitempty"`       // 0-19 (0 = device default)
	ZramCodec   string `json:"zram_codec,omitempty"`   // lz4|zstd|snappy (default lz4)
	DurationSec int    `json:"duration_sec,omitempty"` // default 60 (run jobs)
	Trace       bool   `json:"trace,omitempty"`        // record round 0 for Perfetto export

	// Common fields.
	Rounds int   `json:"rounds,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
	// Workers bounds this job's in-flight cells (further bounded by the
	// daemon's global budget). It cannot change the result — the harness
	// is worker-count invariant — so it is excluded from the cache key.
	Workers int `json:"workers,omitempty"`
	// Priority selects the scheduling class: "interactive" (the
	// default) schedules ahead of — and may preempt — "batch". Like
	// Workers it cannot change the result, only when it is computed, so
	// it too is excluded from the cache key and stripped from the
	// result payload.
	Priority string `json:"priority,omitempty"`
}

// normalize validates the spec and fills every defaulted field in
// place, so the cache key hashes effective values, not spellings.
func (s *JobSpec) normalize() error {
	switch s.Kind {
	case KindRun:
		if s.Experiment != "" {
			return fmt.Errorf("run job must not name an experiment")
		}
		run := s.run()
		if _, err := run.Resolve(); err != nil {
			return err
		}
		s.Device, s.Scenario, s.Scheme, s.BGCase = run.Device, run.Scenario, run.Scheme, run.BGCase
		s.ZramCodec, s.DurationSec, s.Rounds = run.ZramCodec, run.DurationSec, run.Rounds
		// Only the apps case caches background apps; any other case
		// runs the same simulation whatever num_bg says.
		if s.BGCase != "apps" {
			s.NumBG = 0
		}
		if s.Seed == 0 {
			s.Seed = 1
		}
		if s.Fast {
			return fmt.Errorf("fast applies to experiment jobs only")
		}
	case KindExperiment:
		if s.Experiment == "" {
			return fmt.Errorf("experiment job needs an experiment ID (try GET /experiments)")
		}
		runner, ok := experiments.ByID(s.Experiment)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try GET /experiments)", s.Experiment)
		}
		if s.Device != "" || s.Scenario != "" || s.Scheme != "" || s.BGCase != "" ||
			s.NumBG != 0 || s.ZramCodec != "" || s.Trace {
			return fmt.Errorf("run-only fields set on an experiment job")
		}
		if s.DurationSec < 0 {
			return fmt.Errorf("negative duration %d", s.DurationSec)
		}
		if s.Rounds > experiments.MaxRounds {
			return fmt.Errorf("%d rounds, over the limit of %d", s.Rounds, experiments.MaxRounds)
		}
		// A scale option the runner does not read cannot change the
		// payload, so it is keyed as if unset.
		if runner.Reads&experiments.ScaleDuration == 0 {
			s.DurationSec = 0
		}
		if runner.Reads&experiments.ScaleRounds == 0 {
			s.Rounds = 0
		}
		// The key hashes the effective repetition count and seed; an
		// unset duration stays 0, as the runner reads it.
		o := experiments.Options{Fast: s.Fast, Rounds: s.Rounds, Seed: s.Seed}.WithDefaults()
		s.Rounds, s.Seed = o.Rounds, o.Seed
	case "":
		return fmt.Errorf("missing job kind (%q or %q)", KindRun, KindExperiment)
	default:
		return fmt.Errorf("unknown job kind %q", s.Kind)
	}
	if s.Workers < 0 {
		return fmt.Errorf("negative workers %d", s.Workers)
	}
	switch s.Priority {
	case "", PriorityInteractive, PriorityBatch:
	default:
		return fmt.Errorf("unknown priority %q (%q or %q)", s.Priority, PriorityInteractive, PriorityBatch)
	}
	return nil
}

// run is the spec's run configuration, in the form the shared run path
// resolves and executes.
func (s JobSpec) run() experiments.RunSpec {
	return experiments.RunSpec{
		Device: s.Device, Scenario: s.Scenario, Scheme: s.Scheme, BGCase: s.BGCase,
		NumBG: s.NumBG, ZramCodec: s.ZramCodec, DurationSec: s.DurationSec,
		Rounds: s.Rounds, Seed: s.Seed, Trace: s.Trace,
	}
}

// cacheKeySchema versions the key derivation itself: bump it whenever
// the hashed fields or their encoding change, so stale persisted keys
// can never alias a new payload shape.
const cacheKeySchema = "icesimd-cache-v1"

// CacheKey content-addresses a normalised spec for the given code
// version: a SHA-256 over the key schema, the code version, and the
// canonical JSON of every result-determining field. Workers and
// Priority are zeroed first — the harness is worker-count invariant
// and the scheduling class only decides when a job runs, so any
// parallelism or priority produces the identical payload. Same spec ⇒
// same key in any process of the same code version; any
// result-determining field change ⇒ a different key.
func CacheKey(spec JobSpec, version string) string {
	spec.Workers = 0
	spec.Priority = ""
	canonical, err := json.Marshal(spec)
	if err != nil {
		panic(err) // JobSpec is plain data; Marshal cannot fail
	}
	h := sha256.New()
	h.Write([]byte(cacheKeySchema))
	h.Write([]byte{0})
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write(canonical)
	return hex.EncodeToString(h.Sum(nil))
}

// buildVersion derives the running build's code version once per
// process (see versionOf), hashing the executable at most once.
var buildVersion = sync.OnceValues(func() (string, error) {
	bi, _ := debug.ReadBuildInfo()
	return versionOf(bi, executableSHA256)
})

// codeVersion identifies the running build for cache addressing, the
// disk store's boot scan, the peer-cache check and fleet membership.
// OpenManager fails when the version cannot be derived, so every caller
// past start-up sees a real one.
func codeVersion() string {
	v, _ := buildVersion()
	return v
}

// versionOf derives a code version from build info (nil when the binary
// carries none). A clean VCS build is its revision and a module build
// its module version; a modified build, or one with neither, appends
// the SHA-256 of the running executable that exeHash returns, so two
// different builds never share a version while clean builds of one
// commit still do.
func versionOf(bi *debug.BuildInfo, exeHash func() (string, error)) (string, error) {
	base, clean := "dev", false
	if bi != nil {
		rev, modified := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		switch {
		case rev != "":
			base, clean = rev, !modified
		case bi.Main.Version != "" && bi.Main.Version != "(devel)":
			base, clean = bi.Main.Version, true
		}
	}
	if clean {
		return base, nil
	}
	sum, err := exeHash()
	if err != nil {
		return "", fmt.Errorf("code version of an unstamped or modified build: %w", err)
	}
	return base + "+" + sum, nil
}

// executableSHA256 is the hex SHA-256 of the running executable's file.
func executableSHA256() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
