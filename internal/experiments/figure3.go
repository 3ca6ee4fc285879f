package experiments

import (
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/workload"
)

// Figure3UserRow summarises one simulated volunteer (Figure 3a).
type Figure3UserRow struct {
	User          string
	Device        string
	EvictedPerDay float64 // 4 KiB-equivalent pages
	RefaultPerDay float64
	RefaultRatio  float64
	BGShare       float64
}

// Figure3Result holds the user study: per-user daily averages (3a) and one
// user's cumulative timeline (3b).
type Figure3Result struct {
	Users []Figure3UserRow

	// Timeline is User-1's (P20) cumulative eviction/refault counts,
	// sampled once per session (Figure 3b).
	TimelineEvicted   []uint64
	TimelineRefaulted []uint64
}

// Figure3 simulates the eight volunteers of Table 2. The paper collected
// one month; the simulation compresses each day into a fixed number of
// usage sessions (Fast: 2 days × 4 sessions; default: 5 days × 8).
func Figure3(o Options) (Figure3Result, error) {
	o = o.WithDefaults()
	days, sessions := 5, 8
	if o.Fast {
		days, sessions = 2, 4
	}
	cfgs := workload.StudyUsers(o.Seed, days)
	cells := make([]harness.Cell, len(cfgs))
	for i, cfg := range cfgs {
		cells[i] = harness.Cell{Device: cfg.Device.Name, Variant: userName(i)}
	}
	// Cell results cross process boundaries as JSON when the daemon
	// shards a matrix (harness.ExecHooks), so userOut carries exported
	// fields and only the timeline slices the reduction reads.
	type userOut struct {
		Row          Figure3UserRow
		CumEvicted   []uint64
		CumRefaulted []uint64
	}
	outs, err := mapCells(o, cells, func(c harness.Cell) userOut {
		cfg := cfgs[c.Index]
		cfg.SessionsPerDay = sessions
		ur := workload.RunUser(cfg)
		return userOut{
			CumEvicted:   ur.CumEvicted,
			CumRefaulted: ur.CumRefaulted,
			Row: Figure3UserRow{
				User:          c.Variant,
				Device:        cfg.Device.Name,
				EvictedPerDay: float64(realPages(ur.TotalEvicted())) / float64(days),
				RefaultPerDay: float64(realPages(ur.TotalRefaulted())) / float64(days),
				RefaultRatio:  ur.RefaultRatio(),
				BGShare:       ur.BGShare(),
			},
		}
	})
	if err != nil {
		return Figure3Result{}, err
	}
	res := Figure3Result{Users: make([]Figure3UserRow, len(outs))}
	for i, out := range outs {
		res.Users[i] = out.Row
	}
	res.TimelineEvicted = outs[0].CumEvicted
	res.TimelineRefaulted = outs[0].CumRefaulted
	return res, nil
}

func userName(i int) string {
	return "User-" + string(rune('1'+i))
}

// AvgRefaultRatio averages the per-user refault ratios.
func (r Figure3Result) AvgRefaultRatio() float64 {
	var xs harness.Agg
	for _, u := range r.Users {
		xs.Add(u.RefaultRatio)
	}
	return xs.Mean()
}

// AvgBGShare averages the per-user background-refault shares.
func (r Figure3Result) AvgBGShare() float64 {
	var xs harness.Agg
	for _, u := range r.Users {
		xs.Add(u.BGShare)
	}
	return xs.Mean()
}

// String renders Figure 3a plus the 3b summary.
func (r Figure3Result) String() string {
	t := newTable("Figure 3a: page reclaim/refault per user-day (4KiB-equivalent)",
		"User", "Device", "Evicted/day", "Refault/day", "Ratio", "BG share")
	for _, u := range r.Users {
		t.addRowf("%s|%s|%.0f|%.0f|%s|%s", u.User, u.Device,
			u.EvictedPerDay, u.RefaultPerDay, pct(u.RefaultRatio), pct(u.BGShare))
	}
	t.note("average refault ratio %s (paper: ≈39%%), BG share %s (paper: >60%%, 65%% on P20)",
		pct(r.AvgRefaultRatio()), pct(r.AvgBGShare()))
	if n := len(r.TimelineEvicted); n > 0 {
		t.note("Figure 3b timeline (User-1): final cumulative evicted=%d refaulted=%d over %d samples",
			realPages(r.TimelineEvicted[n-1]), realPages(r.TimelineRefaulted[n-1]), n)
		max := float64(r.TimelineEvicted[n-1])
		ev := make([]float64, n)
		rf := make([]float64, n)
		for i := 0; i < n; i++ {
			ev[i] = float64(r.TimelineEvicted[i])
			rf[i] = float64(r.TimelineRefaulted[i])
		}
		t.note("evicted  : %s", sparkline(downsample(ev, 60), max))
		t.note("refaulted: %s", sparkline(downsample(rf, 60), max))
	}
	return t.String()
}
