package experiments

import (
	"github.com/eurosys23/ice/internal/core"
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/workload"
)

// AblationRow is one ICE variant's outcome on the S-A scenario (P20).
type AblationRow struct {
	Variant    string
	FPS        float64
	RIA        float64
	Refaulted  uint64
	Reclaimed  uint64
	FrozenApps float64
	// MeanHotResume captures the launch-responsiveness cost of aggressive
	// freezing (measured on a post-scenario hot switch).
	ThawActions uint64
}

// AblationResult compares ICE design points: the full system against
// freeze-all-background, fixed (memory-blind) intensity, process-grain
// freezing, and no whitelist.
type AblationResult struct {
	Rows []AblationRow
}

// ablationVariants enumerates the design points DESIGN.md calls out.
func ablationVariants() []struct {
	name string
	cfg  func() core.Config
} {
	return []struct {
		name string
		cfg  func() core.Config
	}{
		{"Ice (full)", core.DefaultConfig},
		{"freeze-all-BG", func() core.Config {
			c := core.DefaultConfig()
			c.FreezeAllBG = true
			return c
		}},
		{"fixed-intensity (R=16)", func() core.Config {
			c := core.DefaultConfig()
			c.FixedR = 16
			return c
		}},
		{"process-grain", func() core.Config {
			c := core.DefaultConfig()
			c.ProcessGrain = true
			return c
		}},
		{"no-whitelist", func() core.Config {
			c := core.DefaultConfig()
			c.DisableWhitelist = true
			return c
		}},
		{"no-thaw-on-launch", func() core.Config {
			c := core.DefaultConfig()
			c.DisableThawOnLaunch = true
			return c
		}},
		{"predictive-thaw", func() core.Config {
			c := core.DefaultConfig()
			c.PredictiveThaw = true
			return c
		}},
	}
}

// Ablations runs each ICE variant on the video-call scenario (P20).
func Ablations(o Options) (AblationResult, error) {
	o = o.WithDefaults()
	variants := ablationVariants()
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.name
	}
	spec := harness.Spec{
		Devices:   []string{device.P20.Name},
		Scenarios: []string{"S-A"},
		Schemes:   []string{"Ice"},
		Variants:  names,
		Rounds:    o.Rounds,
	}
	// Exported fields: cell results cross process boundaries as JSON
	// when the daemon shards a matrix (harness.ExecHooks).
	type sample struct {
		FPS, RIA, Frozen     float64
		Refaulted, Reclaimed uint64
		Thaws                uint64
	}
	runs, err := mapCells(o, spec.Cells(), func(c harness.Cell) sample {
		ice := &policy.Ice{Config: variants[c.Index/o.Rounds].cfg()}
		sres := workload.RunScenario(workload.ScenarioConfig{
			Scenario: c.Scenario,
			Device:   device.P20,
			Scheme:   ice,
			BGCase:   workload.BGApps,
			Duration: o.Duration,
			Seed:     c.Seed,
		})
		s := sample{
			FPS:       sres.Frames.AvgFPS(),
			RIA:       sres.Frames.RIA(),
			Frozen:    float64(sres.FrozenApps),
			Refaulted: sres.Mem.Total.Refaulted,
			Reclaimed: sres.Mem.Total.Reclaimed,
		}
		if ice.Framework != nil {
			s.Thaws = ice.Framework.Stats().ThawActions
		}
		return s
	})
	if err != nil {
		return AblationResult{}, err
	}

	res := AblationResult{Rows: make([]AblationRow, len(variants))}
	for i := range variants {
		var fps, ria, frozen harness.Agg
		var refaulted, reclaimed, thaws harness.Counter
		for _, s := range runs[i*o.Rounds : (i+1)*o.Rounds] {
			fps.Add(s.FPS)
			ria.Add(s.RIA)
			frozen.Add(s.Frozen)
			refaulted.Add(s.Refaulted)
			reclaimed.Add(s.Reclaimed)
			thaws.Add(s.Thaws)
		}
		res.Rows[i] = AblationRow{
			Variant:     variants[i].name,
			FPS:         fps.Mean(),
			RIA:         ria.Mean(),
			FrozenApps:  frozen.Mean(),
			Refaulted:   refaulted.Mean(),
			Reclaimed:   reclaimed.Mean(),
			ThawActions: thaws.Mean(),
		}
	}
	return res, nil
}

// String renders the ablation table.
func (r AblationResult) String() string {
	t := newTable("Ablations: ICE design points (S-A, P20, BG-apps)",
		"Variant", "FPS", "RIA", "Refault", "Reclaim", "Frozen apps", "Thaws")
	for _, row := range r.Rows {
		t.addRow(row.Variant, f1(row.FPS), pct(row.RIA),
			itoa(int(realPages(row.Refaulted))), itoa(int(realPages(row.Reclaimed))),
			f1(row.FrozenApps), itoa(int(row.ThawActions)))
	}
	return t.String()
}
