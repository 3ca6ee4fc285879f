package experiments

import (
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/workload"
)

// Figure8Cell is one (device, scenario, scheme) measurement.
type Figure8Cell struct {
	Device   string
	Scenario string
	Scheme   string
	FPS      float64
	RIA      float64
	// Memory counters (simulated pages) reused by Figure 10 and Table 5.
	Reclaimed  uint64
	Refaulted  uint64
	RefaultFG  uint64
	RefaultBG  uint64
	FrozenApps float64
	// IORequests and CPUUtil feed the §6.2.2 analysis.
	IOPages uint64
	CPUUtil float64
	// Counters embeds the per-cell instrument-registry counters (integer
	// per-round mean, same arithmetic as the figure columns above), keyed
	// by instrument name. Map keys marshal sorted, so -json output stays
	// deterministic.
	Counters map[string]uint64 `json:",omitempty"`
}

// Figure8Result is the headline evaluation: FPS and RIA for the four
// schemes across the four scenarios on both devices.
type Figure8Result struct {
	Cells   []Figure8Cell
	Schemes []string
}

// Cell returns the cell for (device, scenario, scheme), or nil.
func (r *Figure8Result) Cell(dev, scenario, scheme string) *Figure8Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Device == dev && c.Scenario == scenario && c.Scheme == scheme {
			return c
		}
	}
	return nil
}

// matrixSpec declares the device × scenario × scheme × round matrix
// shared by Figures 8 and 10, Table 5 and the §6.2.2 pressure analysis.
func matrixSpec(o Options, devices []device.Profile, schemes, scenarios []string) harness.Spec {
	names := make([]string, len(devices))
	for i, d := range devices {
		names[i] = d.Name
	}
	return harness.Spec{Devices: names, Scenarios: scenarios, Schemes: schemes, Rounds: o.Rounds}
}

// runMatrix executes scenarios × schemes × rounds on the given devices
// through the harness (one cell per round) and reduces each round group
// to a Figure8Cell.
func runMatrix(o Options, devices []device.Profile, schemes []string, scenarios []string) ([]Figure8Cell, error) {
	profiles := make(map[string]device.Profile, len(devices))
	for _, d := range devices {
		profiles[d.Name] = d
	}
	matrix := matrixSpec(o, devices, schemes, scenarios).Cells()
	runs, err := mapCells(o, matrix,
		func(c harness.Cell) workload.ScenarioResult {
			sch, err := policy.ByName(c.Scheme)
			if err != nil {
				panic(err)
			}
			return workload.RunScenario(workload.ScenarioConfig{
				Scenario: c.Scenario,
				Device:   profiles[c.Device],
				Scheme:   sch,
				BGCase:   workload.BGApps,
				Duration: o.Duration,
				Seed:     c.Seed,
			})
		})
	if err != nil {
		return nil, err
	}

	cells := make([]Figure8Cell, 0, len(runs)/o.Rounds)
	for g := 0; g < len(runs); g += o.Rounds {
		var fps, ria, util, frozen harness.Agg
		var reclaimed, refaulted, refaultFG, refaultBG, ioPages harness.Counter
		var snaps harness.SnapshotAgg
		for _, res := range runs[g : g+o.Rounds] {
			snaps.Add(res.Obs)
			fps.Add(res.Frames.AvgFPS())
			ria.Add(res.Frames.RIA())
			util.Add(res.CPU.Utilization())
			frozen.Add(float64(res.FrozenApps))
			reclaimed.Add(res.Mem.Total.Reclaimed)
			refaulted.Add(res.Mem.Total.Refaulted)
			refaultFG.Add(res.Mem.RefaultFG)
			refaultBG.Add(res.Mem.RefaultBG)
			ioPages.Add(res.IO.TotalPages())
		}
		// Label from the matrix coordinates, not the result: results can
		// arrive over the wire without their Config (ScenarioResult does
		// not marshal it).
		coord := matrix[g]
		cells = append(cells, Figure8Cell{
			Device:     coord.Device,
			Scenario:   coord.Scenario,
			Scheme:     coord.Scheme,
			FPS:        fps.Mean(),
			RIA:        ria.Mean(),
			CPUUtil:    util.Mean(),
			FrozenApps: frozen.Mean(),
			Reclaimed:  reclaimed.Mean(),
			Refaulted:  refaulted.Mean(),
			RefaultFG:  refaultFG.Mean(),
			RefaultBG:  refaultBG.Mean(),
			IOPages:    ioPages.Mean(),
			Counters:   snaps.MeanCounters(),
		})
	}
	return cells, nil
}

// Figure8 runs the full scheme × scenario × device matrix with the
// device-default background population (6 on Pixel3, 8 on P20).
func Figure8(o Options) (Figure8Result, error) {
	o = o.WithDefaults()
	schemes := policy.Headline()
	cells, err := runMatrix(o, []device.Profile{device.Pixel3, device.P20}, schemes, workload.Scenarios())
	if err != nil {
		return Figure8Result{}, err
	}
	return Figure8Result{Cells: cells, Schemes: schemes}, nil
}

// String renders the FPS and RIA tables.
func (r Figure8Result) String() string {
	out := ""
	for _, devName := range []string{"Pixel3", "P20"} {
		t := newTable("Figure 8 ("+devName+"): FPS / RIA per scheme",
			append([]string{"Scenario"}, r.Schemes...)...)
		for _, s := range workload.Scenarios() {
			row := []string{s}
			for _, p := range r.Schemes {
				if c := r.Cell(devName, s, p); c != nil {
					row = append(row, f1(c.FPS)+" / "+pct(c.RIA))
				} else {
					row = append(row, "-")
				}
			}
			t.addRow(row...)
		}
		out += t.String() + "\n"
	}
	return out + "paper (S-A, Pixel3): 25.4 / 29.3 / 24.1 / 37.2 fps; PUBG P20 RIA 46%→28%\n"
}
