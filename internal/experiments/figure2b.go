package experiments

import (
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/metrics"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/workload"
)

// Figure2bResult correlates frame rate with background-refault volume:
// analysis windows are sorted by BG refault count and binned into deciles
// (Figure 2b).
type Figure2bResult struct {
	Rows []metrics.DecileRow
	// WindowSeconds is the analysis window length.
	WindowSeconds int
}

// Figure2b slices the BG-apps runs of all four scenarios into windows and
// bins them by BG-refault count. The paper uses 30 s windows over long
// captures; the simulated runs use 10 s windows so that the default
// duration still yields enough samples per decile.
func Figure2b(o Options) (Figure2bResult, error) {
	o = o.WithDefaults()
	const window = 10 // seconds
	spec := harness.Spec{
		Devices:   []string{device.P20.Name},
		Scenarios: workload.Scenarios(),
		Rounds:    o.Rounds,
	}
	sampleSets, err := mapCells(o, spec.Cells(), func(c harness.Cell) []metrics.WindowSample {
		res := workload.RunScenario(workload.ScenarioConfig{
			Scenario: c.Scenario,
			Device:   device.P20,
			Scheme:   policy.Baseline{},
			BGCase:   workload.BGApps,
			Duration: o.Duration,
			Seed:     c.Seed,
		})
		secs := len(res.Frames.FPSSeries)
		if n := len(res.MemSeries); n < secs {
			secs = n
		}
		var samples []metrics.WindowSample
		for start := 0; start+window <= secs; start += window {
			var w metrics.WindowSample
			for j := start; j < start+window; j++ {
				w.FPS += res.Frames.FPSSeries[j]
				w.BGRefaults += float64(res.MemSeries[j].RefaultBG)
				w.Reclaims += float64(res.MemSeries[j].Reclaimed)
			}
			w.FPS /= window
			samples = append(samples, w)
		}
		return samples
	})
	if err != nil {
		return Figure2bResult{}, err
	}

	var all []metrics.WindowSample
	for _, s := range sampleSets {
		all = append(all, s...)
	}
	return Figure2bResult{Rows: metrics.DecileBins(all), WindowSeconds: window}, nil
}

// String renders the decile table.
func (r Figure2bResult) String() string {
	t := newTable("Figure 2b: frame rate vs BG refaults (windows sorted by BG-refault count)",
		"Decile", "BG refaults/win", "FPS", "Reclaims/win")
	for _, row := range r.Rows {
		t.addRow(row.Decile, f1(row.MeanRefaults), f1(row.MeanFPS), f1(row.MeanReclaims))
	}
	if n := len(r.Rows); n >= 2 {
		lo, hi := r.Rows[0], r.Rows[n-1]
		if lo.MeanFPS > 0 {
			t.note("FPS drop from low to high refault decile: %.1f%% (paper: -60.6%%, 47.2fps at [0,10])",
				100*(hi.MeanFPS/lo.MeanFPS-1))
		}
	}
	return t.String()
}
