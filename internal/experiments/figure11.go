package experiments

import (
	"github.com/eurosys23/ice/internal/app"
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/workload"
)

// Figure11SchemeRow summarises one scheme's launch-loop outcome.
type Figure11SchemeRow struct {
	Scheme      string
	MeanAll     sim.Time
	MeanCold    sim.Time
	MeanHot     sim.Time
	HotPerRound []int // rounds 2..N
	LMKKills    int
	IOPages     uint64
	CPUUtil     float64
}

// Figure11Result reproduces the §6.3 launch experiments: launch latency
// (11a), hot-launch counts per round (11b), and the worst-case hot launch.
type Figure11Result struct {
	Rows []Figure11SchemeRow
	// WorstCaseHot is the §6.3.1 adversarial measurement: thaw + full
	// refault on launch. NormalHot is the ordinary hot launch on the same
	// system.
	WorstCaseHot sim.Time
	NormalHot    sim.Time
	Rounds       int
}

// Figure11 runs the launch loop under LRU+CFS and Ice on the P20 (whose
// 6 GB cache ~7-8 of the 20 apps under the stock system, as the paper
// reports), plus the worst-case hot-launch probe.
func Figure11(o Options) (Figure11Result, error) {
	o = o.WithDefaults()
	rounds, dwell := 10, 30*sim.Second
	apps := app.Catalog()
	if o.Fast {
		rounds, dwell = 3, 4*sim.Second
		apps = apps[:10]
	}
	schemes := []string{"LRU+CFS", "Ice"}
	cells := make([]harness.Cell, 0, len(schemes)+1)
	for _, p := range schemes {
		cells = append(cells, harness.Cell{Device: device.P20.Name, Scheme: p, Scenario: "launch-loop"})
	}
	cells = append(cells, harness.Cell{Device: device.P20.Name, Scenario: "worst-case-hot"})

	// Exported fields: cell results cross process boundaries as JSON
	// when the daemon shards a matrix (harness.ExecHooks).
	type launchOut struct {
		Row           Figure11SchemeRow
		Worst, Normal sim.Time
	}
	outs, err := mapCells(o, cells, func(c harness.Cell) launchOut {
		if c.Scenario == "worst-case-hot" {
			worst, normal := workload.WorstCaseHotLaunch(device.P20, c.Seed, apps)
			return launchOut{Worst: worst, Normal: normal}
		}
		sch, err := policy.ByName(c.Scheme)
		if err != nil {
			panic(err)
		}
		ll := workload.RunLaunchLoop(workload.LaunchLoopConfig{
			Device: device.P20,
			Scheme: sch,
			Rounds: rounds,
			Dwell:  dwell,
			Apps:   apps,
			Seed:   c.Seed,
		})
		return launchOut{Row: Figure11SchemeRow{
			Scheme:      c.Scheme,
			MeanAll:     ll.MeanAll(),
			MeanCold:    ll.MeanCold(),
			MeanHot:     ll.MeanHot(),
			HotPerRound: ll.HotPerRound[1:],
			LMKKills:    ll.LMKKills,
			IOPages:     ll.IO.TotalPages(),
			CPUUtil:     ll.CPU.Utilization(),
		}}
	})
	if err != nil {
		return Figure11Result{}, err
	}
	res := Figure11Result{Rounds: rounds}
	for _, out := range outs[:len(schemes)] {
		res.Rows = append(res.Rows, out.Row)
	}
	res.WorstCaseHot = outs[len(schemes)].Worst
	res.NormalHot = outs[len(schemes)].Normal
	return res, nil
}

// HotLaunchGain returns Ice's hot-launch-count increase over the baseline
// for rounds 2+ (the paper's "25% more applications could be hot
// launched").
func (r Figure11Result) HotLaunchGain() float64 {
	var base, ice int
	for _, row := range r.Rows {
		var total int
		for _, h := range row.HotPerRound {
			total += h
		}
		switch row.Scheme {
		case "LRU+CFS":
			base = total
		case "Ice":
			ice = total
		}
	}
	if base == 0 {
		return 0
	}
	return float64(ice)/float64(base) - 1
}

// String renders Figure 11a/11b.
func (r Figure11Result) String() string {
	t := newTable("Figure 11a: application launching time (P20 launch loop)",
		"Scheme", "Avg", "Cold", "Hot", "LMK kills", "Hot launches r2+")
	for _, row := range r.Rows {
		var hot int
		for _, h := range row.HotPerRound {
			hot += h
		}
		t.addRow(row.Scheme, row.MeanAll.String(), row.MeanCold.String(), row.MeanHot.String(),
			itoa(row.LMKKills), itoa(hot))
	}
	var base, ice *Figure11SchemeRow
	for i := range r.Rows {
		switch r.Rows[i].Scheme {
		case "LRU+CFS":
			base = &r.Rows[i]
		case "Ice":
			ice = &r.Rows[i]
		}
	}
	if base != nil && ice != nil && base.MeanAll > 0 && base.MeanCold > 0 {
		t.note("Ice vs LRU+CFS: avg %+.1f%% (paper: -36.6%%), cold %+.1f%% (paper: -28.8%%), hot launches %+.1f%% (paper: +25%%)",
			100*(float64(ice.MeanAll)/float64(base.MeanAll)-1),
			100*(float64(ice.MeanCold)/float64(base.MeanCold)-1),
			100*r.HotLaunchGain())
	}
	if r.NormalHot > 0 {
		t.note("worst-case hot launch: %v = %.2fx of ordinary hot launch %v (paper: 839ms = 1.98x)",
			r.WorstCaseHot, float64(r.WorstCaseHot)/float64(r.NormalHot), r.NormalHot)
	}
	return t.String()
}
