package experiments

import (
	"fmt"

	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/workload"
)

// Figure9Cell is one (device, BG count, scheme) point: FPS/RIA averaged
// over the four scenarios.
type Figure9Cell struct {
	Device string
	NumBG  int
	Scheme string
	FPS    float64
	RIA    float64
}

// Figure9Result sweeps the cached-app count with and without ICE.
type Figure9Result struct {
	Cells []Figure9Cell
}

// Cell returns the cell for (device, numBG, scheme), or nil.
func (r *Figure9Result) Cell(dev string, numBG int, scheme string) *Figure9Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Device == dev && c.NumBG == numBG && c.Scheme == scheme {
			return c
		}
	}
	return nil
}

// figure9Counts returns the swept BG counts per device ("F" = 0,
// "2B+F" = 2, ..., up to the device's full population).
func figure9Counts(dev device.Profile) []int {
	if dev.Name == "Pixel3" {
		return []int{0, 2, 4, 6}
	}
	return []int{0, 2, 4, 6, 8}
}

// figure9Matrix enumerates the Figure 9 cells nested device → BG count
// → scheme → scenario → round, so each (device, count, scheme) group is
// a contiguous block of len(scenarios)·rounds cells. The per-device
// count lists differ, so the matrix is built explicitly rather than
// from a single harness.Spec.
func figure9Matrix(o Options) []harness.Cell {
	var cells []harness.Cell
	for _, d := range []device.Profile{device.Pixel3, device.P20} {
		for _, n := range figure9Counts(d) {
			for _, p := range []string{"LRU+CFS", "Ice"} {
				for _, s := range workload.Scenarios() {
					for r := 0; r < o.Rounds; r++ {
						cells = append(cells, harness.Cell{
							Device: d.Name, Scheme: p, Scenario: s,
							Variant: fmt.Sprintf("bg=%d", n), Round: r,
						})
					}
				}
			}
		}
	}
	return cells
}

// Figure9 sweeps the number of cached applications on both devices for
// LRU+CFS and Ice, averaging FPS/RIA across the four scenarios.
func Figure9(o Options) (Figure9Result, error) {
	o = o.WithDefaults()
	// Exported fields: cell results cross process boundaries as JSON
	// when the daemon shards a matrix (harness.ExecHooks).
	type sample struct{ FPS, RIA float64 }
	cells := figure9Matrix(o)
	runs, err := mapCells(o, cells, func(c harness.Cell) sample {
		var numBG int
		fmt.Sscanf(c.Variant, "bg=%d", &numBG)
		dev, _ := device.ByName(c.Device)
		sch, err := policy.ByName(c.Scheme)
		if err != nil {
			panic(err)
		}
		bgCase := workload.BGApps
		if numBG == 0 {
			bgCase = workload.BGNull
		}
		res := workload.RunScenario(workload.ScenarioConfig{
			Scenario: c.Scenario,
			Device:   dev,
			Scheme:   sch,
			BGCase:   bgCase,
			NumBG:    numBG,
			Duration: o.Duration,
			Seed:     c.Seed,
		})
		return sample{FPS: res.Frames.AvgFPS(), RIA: res.Frames.RIA()}
	})
	if err != nil {
		return Figure9Result{}, err
	}

	// Reduce scenario × round groups: the matrix nests device → count →
	// scheme → scenario → round, so one Figure9Cell spans a contiguous
	// block of len(scenarios)·rounds runs.
	group := len(workload.Scenarios()) * o.Rounds
	var res Figure9Result
	for g := 0; g < len(runs); g += group {
		var fps, ria harness.Agg
		for _, s := range runs[g : g+group] {
			fps.Add(s.FPS)
			ria.Add(s.RIA)
		}
		c := cells[g]
		var numBG int
		fmt.Sscanf(c.Variant, "bg=%d", &numBG)
		res.Cells = append(res.Cells, Figure9Cell{
			Device: c.Device, NumBG: numBG, Scheme: c.Scheme,
			FPS: fps.Mean(), RIA: ria.Mean(),
		})
	}
	return res, nil
}

// Speedup returns Ice FPS over LRU+CFS FPS at the device's full BG
// population (the paper's 1.57× on Pixel3 6B+F and 1.44× on P20 8B+F).
func (r Figure9Result) Speedup(dev string) float64 {
	full := 6
	if dev == "P20" {
		full = 8
	}
	base := r.Cell(dev, full, "LRU+CFS")
	ice := r.Cell(dev, full, "Ice")
	if base == nil || ice == nil || base.FPS == 0 {
		return 0
	}
	return ice.FPS / base.FPS
}

// String renders both device sweeps.
func (r Figure9Result) String() string {
	out := ""
	for _, d := range []device.Profile{device.Pixel3, device.P20} {
		t := newTable("Figure 9 ("+d.Name+"): FPS / RIA vs number of cached BG apps",
			"Case", "LRU+CFS", "Ice")
		for _, n := range figure9Counts(d) {
			label := "F"
			if n > 0 {
				label = fmt.Sprintf("%dB+F", n)
			}
			row := []string{label}
			for _, p := range []string{"LRU+CFS", "Ice"} {
				if c := r.Cell(d.Name, n, p); c != nil {
					row = append(row, f1(c.FPS)+" / "+pct(c.RIA))
				} else {
					row = append(row, "-")
				}
			}
			t.addRow(row...)
		}
		t.note("Ice speedup at full population: %.2fx (paper: %s)",
			r.Speedup(d.Name), map[string]string{"Pixel3": "1.57x", "P20": "1.44x"}[d.Name])
		out += t.String() + "\n"
	}
	return out
}
