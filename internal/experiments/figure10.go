package experiments

import (
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/workload"
)

// Figure10Result compares refault and reclaim volume per scheme on the P20
// (Figure 10), and carries the power-manager comparison of Table 5.
type Figure10Result struct {
	// Cells reuse the Figure-8 cell type, P20 only, plus "PowerManager".
	Cells []Figure8Cell
}

// Cell returns the cell for (scenario, scheme), or nil.
func (r *Figure10Result) Cell(scenario, scheme string) *Figure8Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Scenario == scenario && c.Scheme == scheme {
			return c
		}
	}
	return nil
}

// Figure10 measures reclaim/refault per scheme (including the vendor power
// manager of Table 5) across the four scenarios on the P20.
func Figure10(o Options) (Figure10Result, error) {
	o = o.WithDefaults()
	schemes := []string{"LRU+CFS", "UCSG", "Acclaim", "Ice", "PowerManager"}
	cells, err := runMatrix(o, []device.Profile{device.P20}, schemes, workload.Scenarios())
	if err != nil {
		return Figure10Result{}, err
	}
	return Figure10Result{Cells: cells}, nil
}

// schemeTotals sums refault/reclaim across scenarios for one scheme.
func (r *Figure10Result) schemeTotals(scheme string) (refault, reclaim uint64) {
	for _, c := range r.Cells {
		if c.Scheme == scheme {
			refault += c.Refaulted
			reclaim += c.Reclaimed
		}
	}
	return
}

// String renders Figure 10.
func (r Figure10Result) String() string {
	t := newTable("Figure 10 (P20): refaulted / reclaimed pages (4KiB-equivalent) per scheme",
		"Scenario", "LRU+CFS", "UCSG", "Acclaim", "Ice")
	for _, s := range workload.Scenarios() {
		row := []string{s}
		for _, p := range []string{"LRU+CFS", "UCSG", "Acclaim", "Ice"} {
			if c := r.Cell(s, p); c != nil {
				row = append(row, itoa(int(realPages(c.Refaulted)))+" / "+itoa(int(realPages(c.Reclaimed))))
			} else {
				row = append(row, "-")
			}
		}
		t.addRow(row...)
	}
	lRef, lRec := r.schemeTotals("LRU+CFS")
	iRef, iRec := r.schemeTotals("Ice")
	if lRef > 0 && lRec > 0 {
		t.note("Ice vs LRU+CFS: refaults %s, reclaims %s of baseline (paper: refault -40.5..-57.6%%, reclaim 70.7%%)",
			pct(float64(iRef)/float64(lRef)), pct(float64(iRec)/float64(lRec)))
	}
	uRef, uRec := r.schemeTotals("UCSG")
	if lRef > iRef && lRec > iRec && lRef >= uRef && lRec >= uRec {
		t.note("UCSG reduction relative to Ice's: refault %s, reclaim %s (paper: 51.7%% and 53.9%%)",
			pct(float64(lRef-uRef)/float64(lRef-iRef)), pct(float64(lRec-uRec)/float64(lRec-iRec)))
	}
	return t.String()
}

// Table5String renders the power-manager comparison, in thousands of
// 4 KiB-equivalent pages, like the paper's Table 5.
func (r Figure10Result) Table5String() string {
	t := newTable("Table 5 (P20): refault / reclaim (x1K pages) — power manager vs Ice",
		"Scenario", "PM refault", "PM reclaim", "Ice refault", "Ice reclaim")
	for _, s := range workload.Scenarios() {
		pm := r.Cell(s, "PowerManager")
		ice := r.Cell(s, "Ice")
		if pm == nil || ice == nil {
			continue
		}
		t.addRowf("%s|%.3f|%.3f|%.3f|%.3f", s,
			float64(realPages(pm.Refaulted))/1000, float64(realPages(pm.Reclaimed))/1000,
			float64(realPages(ice.Refaulted))/1000, float64(realPages(ice.Reclaimed))/1000)
	}
	lRef, lRec := r.schemeTotals("LRU+CFS")
	pRef, pRec := r.schemeTotals("PowerManager")
	if lRef > 0 && lRec > 0 {
		t.note("power manager vs LRU+CFS: refault %s, reclaim %s of baseline (paper: -33.5%% and -22.4%%)",
			pct(float64(pRef)/float64(lRef)), pct(float64(pRec)/float64(lRec)))
	}
	return t.String()
}
