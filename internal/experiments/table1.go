package experiments

import (
	"fmt"

	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/workload"
)

// Table1Row is one row of Table 1: CPU utilisation with N apps cached in
// the background and no foreground app.
type Table1Row struct {
	NumBG   int
	Average float64
	Peak    float64
}

// Table1Result reproduces Table 1.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 runs the CPU-utilisation study for N ∈ {0, 2, 4, 6, 8}.
func Table1(o Options) (Table1Result, error) {
	o = o.WithDefaults()
	window := 10 * sim.Second // the paper's ten-second observation
	counts := []int{0, 2, 4, 6, 8}
	cells := make([]harness.Cell, len(counts))
	for i, n := range counts {
		cells[i] = harness.Cell{
			Device:  workload.DefaultCPUStudyDevice.Name,
			Variant: fmt.Sprintf("bg=%d", n),
		}
	}
	rows, err := mapCells(o, cells, func(c harness.Cell) Table1Row {
		n := counts[c.Index]
		r := workload.RunCPUStudy(workload.DefaultCPUStudyDevice, n, o.Rounds, window, c.Seed)
		return Table1Row{NumBG: n, Average: r.Average, Peak: r.Peak}
	})
	if err != nil {
		return Table1Result{}, err
	}
	return Table1Result{Rows: rows}, nil
}

// String renders the paper-style table.
func (r Table1Result) String() string {
	t := newTable("Table 1: CPU utilisation with N apps in the BG (no FG app)",
		"BG apps", "Average", "Peak")
	for _, row := range r.Rows {
		t.addRow(itoa(row.NumBG), pct(row.Average), pct(row.Peak))
	}
	t.note("paper: 0→43%%/52%%, 2→46%%/58%%, 4→47%%/63%%, 6→51%%/67%%, 8→55%%/69%%")
	return t.String()
}
