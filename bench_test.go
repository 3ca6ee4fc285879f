package ice_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/experiments"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/metrics"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/workload"
)

// The benchmark suite regenerates every table and figure of the paper at
// reduced scale (Options.Fast): each iteration is a complete, deterministic
// simulation of the corresponding experiment running through the
// internal/harness pool. ns/op therefore reports how long regenerating
// that artefact takes, and the cells/sec metric tracks harness matrix
// throughput across PRs; the figures' actual numbers come from
// `go run ./cmd/experiments -run all`.

// benchExperiment drives one experiment runner b.N times serially
// (Workers 1, so ns/op measures the simulation, not the host's core
// count) and reports harness cell throughput plus per-cell allocation
// pressure via b.ReportMetric. allocs/cell is the heap-allocation count
// (runtime.MemStats.Mallocs delta) divided by completed cells, B/cell the
// bytes those allocations took (the TotalAlloc delta) per cell, and
// p50_cell_us/p99_cell_us are exact nearest-rank percentiles of the
// per-cell wall-clock times — the metrics ci.sh snapshots into
// BENCH_<n>.json.
func benchExperiment(b *testing.B, run func(experiments.Options) error) {
	var cells atomic.Int64
	var cellUs []float64 // Progress calls are serialised by the harness
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := experiments.Options{
			Fast: true, Rounds: 1, Seed: int64(i + 1), Workers: 1,
			Progress: func(p harness.Progress) {
				cells.Add(1)
				cellUs = append(cellUs, float64(p.CellTime.Microseconds()))
			},
		}
		if err := run(o); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(cells.Load())/secs, "cells/sec")
	}
	if n := cells.Load(); n > 0 {
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(n), "allocs/cell")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(n), "B/cell")
	}
	if len(cellUs) > 0 {
		b.ReportMetric(metrics.Percentile(cellUs, 50), "p50_cell_us")
		b.ReportMetric(metrics.Percentile(cellUs, 99), "p99_cell_us")
	}
}

// BenchmarkTable1 regenerates Table 1 (CPU utilisation vs cached apps).
func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, func(o experiments.Options) error {
		_, err := experiments.Table1(o)
		return err
	})
}

// BenchmarkFigure1 regenerates Figure 1 (FPS per scenario and BG case).
func BenchmarkFigure1(b *testing.B) {
	benchExperiment(b, func(o experiments.Options) error {
		_, err := experiments.Figure1(o)
		return err
	})
}

// BenchmarkFigure2a regenerates Figure 2a (reclaim/refault totals); it
// shares Figure 1's runner and renders the 2a table.
func BenchmarkFigure2a(b *testing.B) {
	benchExperiment(b, func(o experiments.Options) error {
		res, err := experiments.Figure1(o)
		if err == nil {
			_ = res.Figure2aString()
		}
		return err
	})
}

// BenchmarkFigure2b regenerates Figure 2b (FPS vs BG-refault deciles).
func BenchmarkFigure2b(b *testing.B) {
	benchExperiment(b, func(o experiments.Options) error {
		_, err := experiments.Figure2b(o)
		return err
	})
}

// BenchmarkFigure3 regenerates Figure 3 (the eight-user study).
func BenchmarkFigure3(b *testing.B) {
	benchExperiment(b, func(o experiments.Options) error {
		_, err := experiments.Figure3(o)
		return err
	})
}

// BenchmarkFigure4 regenerates Figure 4 (per-process reclaim study).
func BenchmarkFigure4(b *testing.B) {
	benchExperiment(b, func(o experiments.Options) error {
		_, err := experiments.Figure4(o)
		return err
	})
}

// BenchmarkFigure8 regenerates Figure 8 (FPS/RIA, schemes × scenarios ×
// devices).
func BenchmarkFigure8(b *testing.B) {
	benchExperiment(b, func(o experiments.Options) error {
		_, err := experiments.Figure8(o)
		return err
	})
}

// BenchmarkFigure8Parallel regenerates Figure 8 with the pool opened to
// GOMAXPROCS, tracking how well the harness scales the headline matrix.
func BenchmarkFigure8Parallel(b *testing.B) {
	var cells atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := experiments.Options{
			Fast: true, Rounds: 1, Seed: int64(i + 1), Workers: 0,
			Progress: func(harness.Progress) { cells.Add(1) },
		}
		if _, err := experiments.Figure8(o); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(cells.Load())/secs, "cells/sec")
	}
}

// BenchmarkFigure9 regenerates Figure 9 (FPS/RIA vs cached-app count).
func BenchmarkFigure9(b *testing.B) {
	benchExperiment(b, func(o experiments.Options) error {
		_, err := experiments.Figure9(o)
		return err
	})
}

// BenchmarkFigure10 regenerates Figure 10 (refault/reclaim per scheme).
func BenchmarkFigure10(b *testing.B) {
	benchExperiment(b, func(o experiments.Options) error {
		_, err := experiments.Figure10(o)
		return err
	})
}

// BenchmarkTable5 regenerates Table 5 (power manager vs Ice); it shares
// Figure 10's runner and renders the Table 5 view.
func BenchmarkTable5(b *testing.B) {
	benchExperiment(b, func(o experiments.Options) error {
		res, err := experiments.Figure10(o)
		if err == nil {
			_ = res.Table5String()
		}
		return err
	})
}

// BenchmarkSystemPressure regenerates §6.2.2 (I/O and CPU reduction).
func BenchmarkSystemPressure(b *testing.B) {
	benchExperiment(b, func(o experiments.Options) error {
		_, err := experiments.SystemPressure(o)
		return err
	})
}

// BenchmarkFigure11 regenerates Figure 11 (launch speed and hot-launch
// counts).
func BenchmarkFigure11(b *testing.B) {
	benchExperiment(b, func(o experiments.Options) error {
		_, err := experiments.Figure11(o)
		return err
	})
}

// BenchmarkAblations regenerates the ICE design-point ablation table.
func BenchmarkAblations(b *testing.B) {
	benchExperiment(b, func(o experiments.Options) error {
		_, err := experiments.Ablations(o)
		return err
	})
}

// BenchmarkPolicySweep regenerates the registry-driven scheme sweep
// (every registered scheme × device × base codec).
func BenchmarkPolicySweep(b *testing.B) {
	benchExperiment(b, func(o experiments.Options) error {
		_, err := experiments.PolicySweep(o)
		return err
	})
}

// --- micro-benchmarks on the hot paths underneath the experiments ---

// BenchmarkScenarioSecond measures simulating one second of the loaded
// video-call scenario (the inner loop of Figures 1, 8 and 9).
func BenchmarkScenarioSecond(b *testing.B) {
	sch, _ := policy.ByName("Ice")
	sys, fgName := workload.NewScenarioSystem(workload.ScenarioConfig{
		Scenario: "S-A", Device: device.P20, Scheme: sch, BGCase: workload.BGApps, Seed: 1,
	})
	rng := sim.NewRand(99)
	workload.CacheApps(sys, workload.PickBGApps(rng, 8, fgName), 500*sim.Millisecond)
	sys.AM.RequestForeground(fgName, nil)
	sys.RunUntil(sys.AM.LaunchIdle, 120*sim.Second, 20*sim.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(sim.Second)
	}
}

// BenchmarkColdLaunch measures one cold application launch under memory
// pressure (the unit of Figure 11a).
func BenchmarkColdLaunch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, fgName := workload.NewScenarioSystem(workload.ScenarioConfig{
			Scenario: "S-A", Device: device.P20, Scheme: policy.Baseline{},
			BGCase: workload.BGApps, Seed: int64(i),
		})
		rng := sim.NewRand(int64(i))
		workload.CacheApps(sys, workload.PickBGApps(rng, 8, fgName), 200*sim.Millisecond)
		b.StartTimer()
		sys.AM.RequestForeground(fgName, nil)
		sys.RunUntil(sys.AM.LaunchIdle, 120*sim.Second, 20*sim.Millisecond)
	}
}
