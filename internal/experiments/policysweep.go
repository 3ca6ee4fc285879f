package experiments

import (
	"fmt"

	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/workload"
)

// PolicySweepCell is one (device, scheme, codec) measurement on the
// scrolling scenario.
type PolicySweepCell struct {
	Device string
	Scheme string
	// Codec is the device's base ZRAM preset for the cell. Schemes that
	// install a per-page CodecFn (Ariadne) route stores past it.
	Codec      string
	FPS        float64
	RIA        float64
	LMKKills   float64
	FrozenApps float64
	Reclaimed  uint64
	Refaulted  uint64
	ZramStores uint64
}

// PolicySweepResult covers every registered scheme — headline figures
// plus the related-work schemes — across the memory-size and codec axes.
type PolicySweepResult struct {
	Cells   []PolicySweepCell
	Schemes []string
	Codecs  []string
}

// Cell returns the cell for (device, scheme, codec), or nil.
func (r *PolicySweepResult) Cell(dev, scheme, codec string) *PolicySweepCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Device == dev && c.Scheme == scheme && c.Codec == codec {
			return c
		}
	}
	return nil
}

// policySweepCodecs is the base-codec axis: the fast preset Android ships
// with and the dense one vendors move to under memory pressure.
var policySweepCodecs = []string{"lz4", "zstd"}

// PolicySweep runs every registered scheme (policy.Names — the registry
// is the single source of truth, so schemes added there appear here
// automatically) over the memory-size axis (Pixel3 4 GB vs P20 6 GB) and
// the base-codec axis, on the scrolling scenario S-C.
func PolicySweep(o Options) (PolicySweepResult, error) {
	o = o.WithDefaults()
	schemes := policy.Names()
	devices := []device.Profile{device.Pixel3, device.P20}
	profiles := make(map[string]device.Profile, len(devices))
	names := make([]string, len(devices))
	for i, d := range devices {
		profiles[d.Name] = d
		names[i] = d.Name
	}
	matrix := harness.Spec{
		Devices:  names,
		Schemes:  schemes,
		Variants: policySweepCodecs,
		Rounds:   o.Rounds,
	}.Cells()
	runs, err := mapCells(o, matrix,
		func(c harness.Cell) workload.ScenarioResult {
			sch, err := policy.ByName(c.Scheme)
			if err != nil {
				panic(err)
			}
			dev := profiles[c.Device]
			dev.ZramCodec = c.Variant
			return workload.RunScenario(workload.ScenarioConfig{
				Scenario: "S-C",
				Device:   dev,
				Scheme:   sch,
				BGCase:   workload.BGApps,
				Duration: o.Duration,
				Seed:     c.Seed,
			})
		})
	if err != nil {
		return PolicySweepResult{}, err
	}

	cells := make([]PolicySweepCell, 0, len(runs)/o.Rounds)
	for g := 0; g < len(runs); g += o.Rounds {
		var fps, ria, kills, frozen harness.Agg
		var reclaimed, refaulted, stores harness.Counter
		for _, res := range runs[g : g+o.Rounds] {
			fps.Add(res.Frames.AvgFPS())
			ria.Add(res.Frames.RIA())
			kills.Add(float64(res.LMKKills))
			frozen.Add(float64(res.FrozenApps))
			reclaimed.Add(res.Mem.Total.Reclaimed)
			refaulted.Add(res.Mem.Total.Refaulted)
			stores.Add(res.Zram.StoredTotal)
		}
		coord := matrix[g]
		cells = append(cells, PolicySweepCell{
			Device:     coord.Device,
			Scheme:     coord.Scheme,
			Codec:      coord.Variant,
			FPS:        fps.Mean(),
			RIA:        ria.Mean(),
			LMKKills:   kills.Mean(),
			FrozenApps: frozen.Mean(),
			Reclaimed:  reclaimed.Mean(),
			Refaulted:  refaulted.Mean(),
			ZramStores: stores.Mean(),
		})
	}
	return PolicySweepResult{Cells: cells, Schemes: schemes, Codecs: policySweepCodecs}, nil
}

// String renders one FPS/RIA table per device with a scheme row per
// registered scheme and a column per base codec.
func (r PolicySweepResult) String() string {
	out := ""
	for _, devName := range []string{"Pixel3", "P20"} {
		cols := []string{"Scheme"}
		for _, codec := range r.Codecs {
			cols = append(cols, codec+" FPS/RIA", codec+" kills")
		}
		t := newTable("Policy sweep ("+devName+", S-C): scheme × base codec", cols...)
		for _, s := range r.Schemes {
			row := []string{s}
			for _, codec := range r.Codecs {
				if c := r.Cell(devName, s, codec); c != nil {
					row = append(row, f1(c.FPS)+" / "+pct(c.RIA), fmt.Sprintf("%.1f", c.LMKKills))
				} else {
					row = append(row, "-", "-")
				}
			}
			t.addRow(row...)
		}
		out += t.String() + "\n"
	}
	return out + "all schemes resolved through the policy registry; Ariadne's CodecFn overrides the base codec per page\n"
}
