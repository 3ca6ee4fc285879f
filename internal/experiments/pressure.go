package experiments

import (
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/workload"
)

// PressureResult is the §6.2.2 system-pressure analysis: I/O volume and
// CPU utilisation with and without ICE over the scenario mix.
type PressureResult struct {
	BaselineIOPages uint64
	IceIOPages      uint64
	BaselineCPUUtil float64
	IceCPUUtil      float64
}

// SystemPressure aggregates I/O and CPU over the four scenarios (P20,
// BG-apps) for LRU+CFS vs Ice, reproducing §6.2.2's "I/O size reduced by
// 9.2%" and "CPU utilisation 55.8% → 47.3%".
func SystemPressure(o Options) (PressureResult, error) {
	o = o.WithDefaults()
	cells, err := runMatrix(o, []device.Profile{device.P20}, []string{"LRU+CFS", "Ice"}, workload.Scenarios())
	if err != nil {
		return PressureResult{}, err
	}
	var res PressureResult
	var nBase, nIce int
	for _, c := range cells {
		switch c.Scheme {
		case "LRU+CFS":
			res.BaselineIOPages += c.IOPages
			res.BaselineCPUUtil += c.CPUUtil
			nBase++
		case "Ice":
			res.IceIOPages += c.IOPages
			res.IceCPUUtil += c.CPUUtil
			nIce++
		}
	}
	if nBase > 0 {
		res.BaselineCPUUtil /= float64(nBase)
	}
	if nIce > 0 {
		res.IceCPUUtil /= float64(nIce)
	}
	return res, nil
}

// IOReduction returns the relative I/O saving.
func (r PressureResult) IOReduction() float64 {
	if r.BaselineIOPages == 0 {
		return 0
	}
	return 1 - float64(r.IceIOPages)/float64(r.BaselineIOPages)
}

// String renders the comparison.
func (r PressureResult) String() string {
	t := newTable("§6.2.2: I/O and CPU pressure (P20, scenario mix)",
		"Scheme", "I/O pages (4KiB-eq)", "CPU util")
	t.addRowf("LRU+CFS|%d|%s", realPages(r.BaselineIOPages), pct(r.BaselineCPUUtil))
	t.addRowf("Ice|%d|%s", realPages(r.IceIOPages), pct(r.IceCPUUtil))
	t.note("I/O reduced by %s (paper: 9.2%%); CPU %s → %s (paper: 55.8%% → 47.3%%)",
		pct(r.IOReduction()), pct(r.BaselineCPUUtil), pct(r.IceCPUUtil))
	return t.String()
}
