package experiments

import (
	"github.com/eurosys23/ice/internal/app"
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/workload"
)

// Figure4Result is the §3.2 refault-source study: reclaim every page of
// each of 40 apps while cached, then watch what refaults within 30 s.
type Figure4Result struct {
	Rows []workload.ReclaimStudyRow
	// DisabledGCRefaults is the total refault count with idle GC disabled,
	// for the "still 77% observed" comparison.
	TotalRefaults       uint64
	DisabledGCRefaults  uint64
	TotalReclaimed      uint64
	FileShare           float64 // of refaulted pages
	AnonShare           float64
	NativeShareOfAnon   float64
	JavaShareOfAnon     float64
	OverallRefaultRatio float64
}

// Figure4 runs the per-process-reclaim study over the 40-app catalog
// (Fast: the 20-app catalog), both with GC enabled and disabled. Both
// arms deliberately share the base seed so the GC toggle is the only
// difference between them (a paired comparison).
func Figure4(o Options) (Figure4Result, error) {
	o = o.WithDefaults()
	apps := app.Catalog40()
	if o.Fast {
		apps = app.Catalog()
	}
	cells := []harness.Cell{
		{Device: device.P20.Name, Variant: "gc-on"},
		{Device: device.P20.Name, Variant: "gc-off"},
	}
	rowSets, err := mapCells(o, cells, func(c harness.Cell) []workload.ReclaimStudyRow {
		return workload.RunReclaimStudy(device.P20, o.Seed, apps, c.Variant == "gc-off")
	})
	if err != nil {
		return Figure4Result{}, err
	}
	rowsGC, rowsNoGC := rowSets[0], rowSets[1]

	var res Figure4Result
	res.Rows = rowsGC
	var file, native, java, reclaimed uint64
	for _, row := range rowsGC {
		file += row.RefaultFile
		native += row.RefaultNative
		java += row.RefaultJava
		reclaimed += uint64(row.Reclaimed)
	}
	res.TotalRefaults = file + native + java
	res.TotalReclaimed = reclaimed
	for _, row := range rowsNoGC {
		res.DisabledGCRefaults += row.RefaultTotal()
	}
	if res.TotalRefaults > 0 {
		anon := native + java
		res.FileShare = float64(file) / float64(res.TotalRefaults)
		res.AnonShare = float64(anon) / float64(res.TotalRefaults)
		if anon > 0 {
			res.NativeShareOfAnon = float64(native) / float64(anon)
			res.JavaShareOfAnon = float64(java) / float64(anon)
		}
	}
	if reclaimed > 0 {
		res.OverallRefaultRatio = float64(res.TotalRefaults) / float64(reclaimed)
	}
	return res, nil
}

// String renders the categorisation summary plus the per-app rows.
func (r Figure4Result) String() string {
	t := newTable("Figure 4: refaulted-page categorisation after per-process reclaim (30s window)",
		"App", "Reclaimed", "Refaulted", "Ratio", "File", "Native", "Java")
	for _, row := range r.Rows {
		t.addRowf("%s|%d|%d|%s|%d|%d|%d", row.App,
			realPages(uint64(row.Reclaimed)), realPages(row.RefaultTotal()), pct(row.RefaultRatio()),
			realPages(row.RefaultFile), realPages(row.RefaultNative), realPages(row.RefaultJava))
	}
	t.note("overall refault ratio %s (paper: >30%%)", pct(r.OverallRefaultRatio))
	t.note("refaulted pages: file %s / anon %s (paper: 48.6%% / 51.4%%)", pct(r.FileShare), pct(r.AnonShare))
	t.note("anonymous split: native %s / Java %s (paper: 56.6%% / 43.4%%)", pct(r.NativeShareOfAnon), pct(r.JavaShareOfAnon))
	if r.TotalRefaults > 0 {
		t.note("refaults remaining with idle GC disabled: %s (paper: 77%%)",
			pct(float64(r.DisabledGCRefaults)/float64(r.TotalRefaults)))
	}
	return t.String()
}
