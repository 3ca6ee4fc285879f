package experiments

import (
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/workload"
)

// Figure1Cell is the outcome of one scenario under one background case:
// the FPS timeline and the reclaim/refault totals (which double as the
// Figure 2(a) table).
type Figure1Cell struct {
	Scenario  string
	Case      workload.BGCase
	AvgFPS    float64
	FPSSeries []float64
	Reclaimed uint64 // simulated pages
	Refaulted uint64
	RefaultBG uint64
}

// Figure1Result holds all scenario × case cells on the P20 (the device §2.2
// uses).
type Figure1Result struct {
	Cells []Figure1Cell
}

// Cell returns the cell for (scenario, case), or nil.
func (r *Figure1Result) Cell(scenario string, c workload.BGCase) *Figure1Cell {
	for i := range r.Cells {
		if r.Cells[i].Scenario == scenario && r.Cells[i].Case == c {
			return &r.Cells[i]
		}
	}
	return nil
}

// caseAvg averages FPS across scenarios for one case.
func (r *Figure1Result) caseAvg(c workload.BGCase) float64 {
	var xs harness.Agg
	for _, cell := range r.Cells {
		if cell.Case == c {
			xs.Add(cell.AvgFPS)
		}
	}
	return xs.Mean()
}

// figure1Cases are the four background conditions of §2.2.
func figure1Cases() []workload.BGCase {
	return []workload.BGCase{workload.BGNull, workload.BGApps, workload.BGCputester, workload.BGMemtester}
}

// Figure1 runs the four scenarios under the four background conditions of
// §2.2 and collects FPS timelines plus the reclaim/refault totals of
// Figure 2(a).
func Figure1(o Options) (Figure1Result, error) {
	o = o.WithDefaults()
	cases := figure1Cases()
	caseNames := make([]string, len(cases))
	for i, c := range cases {
		caseNames[i] = c.String()
	}
	spec := harness.Spec{
		Devices:   []string{device.P20.Name},
		Scenarios: workload.Scenarios(),
		Variants:  caseNames,
		Rounds:    o.Rounds,
	}
	runs, err := mapCells(o, spec.Cells(), func(c harness.Cell) workload.ScenarioResult {
		return workload.RunScenario(workload.ScenarioConfig{
			Scenario: c.Scenario,
			Device:   device.P20,
			Scheme:   policy.Baseline{},
			BGCase:   cases[c.Index/o.Rounds%len(cases)],
			Duration: o.Duration,
			Seed:     c.Seed,
		})
	})
	if err != nil {
		return Figure1Result{}, err
	}

	var res Figure1Result
	for g := 0; g < len(runs); g += o.Rounds {
		var fps harness.Agg
		var reclaim, refault, refaultBG harness.Counter
		var series []float64
		for r, run := range runs[g : g+o.Rounds] {
			fps.Add(run.Frames.AvgFPS())
			if r == 0 {
				series = run.Frames.FPSSeries
			}
			reclaim.Add(run.Mem.Total.Reclaimed)
			refault.Add(run.Mem.Total.Refaulted)
			refaultBG.Add(run.Mem.RefaultBG)
		}
		group := g / o.Rounds
		res.Cells = append(res.Cells, Figure1Cell{
			Scenario:  workload.Scenarios()[group/len(cases)],
			Case:      cases[group%len(cases)],
			AvgFPS:    fps.Mean(),
			FPSSeries: series,
			Reclaimed: reclaim.Mean(),
			Refaulted: refault.Mean(),
			RefaultBG: refaultBG.Mean(),
		})
	}
	return res, nil
}

// String renders the FPS comparison of Figure 1.
func (r Figure1Result) String() string {
	t := newTable("Figure 1: average FPS per scenario and background case (P20)",
		"Scenario", "BG-null", "BG-apps", "BG-cputester", "BG-memtester")
	cases := figure1Cases()
	for _, s := range workload.Scenarios() {
		row := []string{s}
		for _, c := range cases {
			if cell := r.Cell(s, c); cell != nil {
				row = append(row, f1(cell.AvgFPS))
			} else {
				row = append(row, "-")
			}
		}
		t.addRow(row...)
	}
	null := r.caseAvg(workload.BGNull)
	if null > 0 {
		t.note("vs BG-null: apps %+.1f%%, cputester %+.1f%%, memtester %+.1f%%  (paper: -51.7%% on S-A, -6.3%%, -27.8%%)",
			100*(r.caseAvg(workload.BGApps)/null-1),
			100*(r.caseAvg(workload.BGCputester)/null-1),
			100*(r.caseAvg(workload.BGMemtester)/null-1))
	}
	// The paper's Figure 1 is a timeline, not a bar: show the first
	// round's per-second FPS for the two headline cases of each scenario.
	for _, s := range workload.Scenarios() {
		if cell := r.Cell(s, workload.BGNull); cell != nil && len(cell.FPSSeries) > 1 {
			t.note("%s BG-null : %s", s, sparkline(downsample(cell.FPSSeries, 60), 60))
		}
		if cell := r.Cell(s, workload.BGApps); cell != nil && len(cell.FPSSeries) > 1 {
			t.note("%s BG-apps : %s", s, sparkline(downsample(cell.FPSSeries, 60), 60))
		}
	}
	return t.String()
}

// Figure2aString renders the reclaim/refault totals of Figure 2(a),
// summed across the four scenarios and scaled to 4 KiB-page equivalents.
func (r Figure1Result) Figure2aString() string {
	t := newTable("Figure 2a: reclaimed and refaulted pages (4KiB-equivalent, summed over scenarios)",
		"Case", "Reclaim", "Refault")
	cases := []workload.BGCase{workload.BGNull, workload.BGApps, workload.BGMemtester}
	for _, c := range cases {
		var rec, ref uint64
		for _, cell := range r.Cells {
			if cell.Case == c {
				rec += cell.Reclaimed
				ref += cell.Refaulted
			}
		}
		t.addRowf("%s|%d|%d", c, realPages(rec), realPages(ref))
	}
	t.note("paper: BG-null 76/3, BG-memtester 55,637/1,351, BG-apps 102,581/38,924")
	return t.String()
}
