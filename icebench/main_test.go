package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite pins.json from the reference paths")

// testConfig is a short invocation: one batch pass, or two daemon decks.
func testConfig(t *testing.T, workload string, seed int64) config {
	return config{workload: workload, seed: seed, seconds: 0.001, out: t.TempDir(), maxDecks: 2}
}

// TestOutputCheck runs every workload at the default and the held-out
// seed: a clean run must pass, and the same run with one payload byte
// flipped must fail on that byte.
func TestOutputCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"matrix", "daemon"} {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			t.Run(w+"/"+strconv.FormatInt(seed, 10), func(t *testing.T) {
				cfg := testConfig(t, w, seed)
				o, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !o.correct || o.failed != 0 || o.attempted == 0 {
					t.Fatalf("clean run: correct=%v attempted=%d failed=%d problems=%q", o.correct, o.attempted, o.failed, o.problems)
				}
				checkNames(t, "end_to_end", o.e2e)
				cfg.corrupt = true
				o, err = runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if o.correct || !strings.Contains(strings.Join(o.problems, "\n"), "differ") {
					t.Fatalf("corrupted run passed the check: correct=%v problems=%q", o.correct, o.problems)
				}
			})
		}
	}
}

// TestCountsExact: the work counts are the noise-free rows, so two runs
// at one seed, and runs at Workers 1 and 2, must give identical counts.
func TestCountsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Run("matrix", func(t *testing.T) {
		var got []cellCounts
		for _, workers := range []int{1, batchWorkers, batchWorkers} {
			p, err := matrixWorkload.runPass(heldOutSeed, workers, nil, "", false)
			if err != nil || p.failed > 0 {
				t.Fatalf("workers=%d: err=%v failed=%d", workers, err, p.failed)
			}
			got = append(got, p.counts)
		}
		if got[0] != got[1] || got[1] != got[2] {
			t.Fatalf("counts differ:\nworkers 1: %+v\nworkers 2: %+v\nworkers 2: %+v", got[0], got[1], got[2])
		}
		if got[0].Cells == 0 || got[0].Quanta == 0 {
			t.Fatalf("no counts collected: %+v", got[0])
		}
	})
	t.Run("daemon", func(t *testing.T) {
		var got [2]daemonCounts
		for i := range got {
			env, err := setupDaemon(context.Background(), heldOutSeed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			w, err := runDaemonWindow(context.Background(), env, heldOutSeed, 0, 3, nil, nil)
			env.close()
			if err != nil || len(w.errs) > 0 {
				t.Fatalf("window: %v %v", err, w.errs)
			}
			got[i] = w.counts()
		}
		if got[0] != got[1] {
			t.Fatalf("counts differ:\n%+v\n%+v", got[0], got[1])
		}
		if got[0].tiers[classPeer] == 0 || got[0].sim.Quanta == 0 {
			t.Fatalf("no counts collected: %+v", got[0])
		}
	})
}

// TestPins checks pins.json against the reference paths; -update
// rewrites it.
func TestPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	want := map[string]map[string]string{}
	for _, name := range []string{"matrix", "daemon"} {
		want[name] = map[string]string{}
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			d, err := referencePin(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			want[name][strconv.FormatInt(seed, 10)] = d
		}
	}
	if *update {
		b, _ := json.MarshalIndent(want, "", "  ")
		if err := os.WriteFile("pins.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name, seeds := range want {
		for seed, d := range seeds {
			if pins[name][seed] != d {
				t.Errorf("%s seed %s: pinned %q, reference path gives %q (go test -run TestPins -update)", name, seed, pins[name][seed], d)
			}
		}
	}
}

// checkNames fails unless ms are exactly the metrics BENCHMARK.json
// lists under key, in its order and with its units, and none is zero.
func checkNames(t *testing.T, key string, ms []metric) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	want := spec.PerLayer
	if key == "end_to_end" {
		want = spec.EndToEnd
	}
	if len(ms) != len(want) {
		t.Fatalf("%s: %d metrics, BENCHMARK.json lists %d", key, len(ms), len(want))
	}
	for i, m := range ms {
		if m.Name != want[i].Name || m.Unit != want[i].Unit {
			t.Errorf("%s metric %d: %s (%s), BENCHMARK.json lists %s (%s)", key, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
		}
		if key == "end_to_end" && !(m.Value > 0) {
			t.Errorf("%s: %s = %v, want > 0", key, m.Name, m.Value)
		}
	}
}

// TestLayerNames: the per-layer block a traced run prints is the list
// BENCHMARK.json names.
func TestLayerNames(t *testing.T) {
	checkNames(t, "per_layer", layerInputs{}.metrics())
}

// TestScaledMs: a sample scales by the reference over its calibration, so
// a host twice as slow (both twice as long) reads the same.
func TestScaledMs(t *testing.T) {
	if cal := calibrate(); cal <= 0 {
		t.Fatalf("calibration took %v of CPU time", cal)
	}
	ref := calibrationRefMs * time.Millisecond
	if got := scaledMs(40*time.Millisecond, ref); got != 40 {
		t.Errorf("at the reference speed: %v ms, want 40", got)
	}
	if got := scaledMs(80*time.Millisecond, 2*ref); got != 40 {
		t.Errorf("on a host twice as slow: %v ms, want 40", got)
	}
}

func TestProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	var sink []byte
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		sink = append(sink[:0], strings.Repeat("x", 1<<12)...)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	var sum float64
	for _, v := range selfShares(samples) {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/eurosys23/ice/internal/mm.(*Manager).randomVictim":          "mm",
		"github.com/eurosys23/ice/internal/harness.runPool[go.shape.struct {}]": "harness",
		"github.com/eurosys23/ice/internal/core.(*Ice).tick":                    "policy",
		"net/http.(*conn).serve":               "nethttp_json",
		"encoding/json.(*encodeState).marshal": "nethttp_json",
		"crypto/sha256.block":                  "crypto",
		"runtime.mallocgc":                     "",
		"sort.Sort":                            "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if got := attribute([]string{"runtime.growslice", "github.com/eurosys23/ice/internal/mm.(*Manager).allocSlot"}); got != "mm" {
		t.Errorf("growslice under mm attributed to %q", got)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Layer: "experiments", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Layer: "harness", Start: at(10), End: at(50)},
		{ID: 3, Parent: 1, Layer: "harness", Start: at(40), End: at(90)},
	}
	st := selfTime(spans)
	if st["experiments"] != 20*time.Millisecond || st["harness"] != 90*time.Millisecond {
		t.Fatalf("self times %v", st)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 5 { // 3 spans + 2 process names
		t.Fatalf("%d trace events", len(doc.TraceEvents))
	}
}
