package experiments

import (
	"bytes"
	"fmt"

	"github.com/eurosys23/ice/internal/app"
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/trace"
	"github.com/eurosys23/ice/internal/workload"
	"github.com/eurosys23/ice/internal/zram"
)

// RunSpec is one device × scenario × scheme × background-case
// configuration repeated over Rounds rounds with derived seeds: the unit
// that cmd/icesim and the icesimd daemon's run jobs both execute. Zero
// fields take the defaults noted here when Resolve fills them.
type RunSpec struct {
	Device      string // default P20
	Scenario    string // default S-A
	Scheme      string // default LRU+CFS
	BGCase      string // null|apps|cputester|memtester (default apps)
	NumBG       int    // cached apps under BG-apps, at most 19 (0 = device default)
	ZramCodec   string // lz4|zstd|snappy (default lz4)
	DurationSec int    // measured window (default 60)
	Rounds      int    // default 1
	Seed        int64  // base seed, used as given
	Trace       bool   // record round 0 for the Perfetto export
}

// Resolve fills the spec's defaults in place, validates every name and
// count, and replaces the scheme's spelling with its canonical name, so
// two specs that run the same simulation are equal and seed their
// rounds alike. It returns the scenario configuration of one run at the
// spec's Seed.
func (s *RunSpec) Resolve() (workload.ScenarioConfig, error) {
	if s.Device == "" {
		s.Device = "P20"
	}
	dev, ok := device.ByName(s.Device)
	if !ok {
		return workload.ScenarioConfig{}, fmt.Errorf("unknown device %q", s.Device)
	}
	if s.Scenario == "" {
		s.Scenario = "S-A"
	}
	if _, ok := app.ScenarioApps[s.Scenario]; !ok {
		return workload.ScenarioConfig{}, fmt.Errorf("unknown scenario %q (have %v)", s.Scenario, workload.Scenarios())
	}
	if s.Scheme == "" {
		s.Scheme = "LRU+CFS"
	}
	sch, err := policy.ByName(s.Scheme)
	if err != nil {
		return workload.ScenarioConfig{}, err
	}
	s.Scheme = sch.Name()
	if s.BGCase == "" {
		s.BGCase = "apps"
	}
	bc, err := workload.ParseBGCase(s.BGCase)
	if err != nil {
		return workload.ScenarioConfig{}, err
	}
	// Every catalog app but the foreground one can be cached.
	if maxBG := len(app.Catalog()) - 1; s.NumBG < 0 || s.NumBG > maxBG {
		return workload.ScenarioConfig{}, fmt.Errorf("%d background apps out of range [0, %d]", s.NumBG, maxBG)
	}
	if s.ZramCodec == "" {
		s.ZramCodec = zram.DefaultCodec
	}
	if _, err := zram.Preset(s.ZramCodec); err != nil {
		return workload.ScenarioConfig{}, err
	}
	dev.ZramCodec = s.ZramCodec
	if s.DurationSec < 0 {
		return workload.ScenarioConfig{}, fmt.Errorf("negative duration %d", s.DurationSec)
	}
	if s.DurationSec == 0 {
		s.DurationSec = 60
	}
	if s.Rounds <= 0 {
		s.Rounds = 1
	}
	if s.Rounds > MaxRounds {
		return workload.ScenarioConfig{}, fmt.Errorf("%d rounds, over the limit of %d", s.Rounds, MaxRounds)
	}
	return workload.ScenarioConfig{
		Scenario: s.Scenario,
		Device:   dev,
		Scheme:   sch,
		BGCase:   bc,
		NumBG:    s.NumBG,
		Duration: sim.Time(s.DurationSec) * sim.Second,
		Seed:     s.Seed,
	}, nil
}

// RunCell is one round's outcome of a run: the headline user-experience
// metrics plus the round's instrument-registry counters (the paper's
// vmstat-equivalent).
type RunCell struct {
	Round      int               `json:"round"`
	FPS        float64           `json:"fps"`
	RIA        float64           `json:"ria"`
	Reclaimed  uint64            `json:"reclaimed"`
	Refaulted  uint64            `json:"refaulted"`
	RefaultFG  uint64            `json:"refault_fg"`
	RefaultBG  uint64            `json:"refault_bg"`
	LMKKills   int               `json:"lmk_kills"`
	FrozenApps int               `json:"frozen_apps"`
	Counters   map[string]uint64 `json:"counters,omitempty"`
}

// RunOutcome is a run reduced: one cell per round, the FPS and RIA means
// over the rounds and, for a traced spec, round 0's Chrome trace-event
// JSON (loadable in Perfetto). Its JSON form is the body of icesimd's
// run-job payload; the trace is served apart.
type RunOutcome struct {
	Cells   []RunCell `json:"cells"`
	MeanFPS float64   `json:"mean_fps"`
	MeanRIA float64   `json:"mean_ria"`
	Trace   []byte    `json:"-"`
}

// RunRounds resolves the spec and runs its rounds through the harness,
// one cell per round with a derived seed and its own scheme instance.
// Of the options only the execution environment applies (Workers, Ctx,
// Slots, Progress, Hooks); the spec carries the rounds, seed and
// duration.
func RunRounds(spec RunSpec, o Options) (RunOutcome, error) {
	base, err := spec.Resolve()
	if err != nil {
		return RunOutcome{}, err
	}
	cells := make([]harness.Cell, spec.Rounds)
	for r := range cells {
		cells[r] = harness.Cell{
			Device: spec.Device, Scheme: spec.Scheme, Scenario: spec.Scenario,
			Variant: base.BGCase.String(), Round: r,
		}
	}
	o.Seed = spec.Seed
	runs, err := mapCells(o, cells, func(c harness.Cell) workload.ScenarioResult {
		// Each round needs its own scheme instance: policies carry
		// per-run framework state.
		sch, err := policy.ByName(c.Scheme)
		if err != nil {
			panic(err)
		}
		cfg := base
		cfg.Scheme = sch
		cfg.Seed = c.Seed
		if spec.Trace && c.Round == 0 {
			cfg.TraceCap = 1 << 17
		}
		return workload.RunScenario(cfg)
	})
	if err != nil {
		return RunOutcome{}, err
	}

	// The reduction reads res.Trace only at round 0, which a sharding
	// coordinator always keeps local (trace buffers cannot cross the
	// JSON wire); every other field below survives the round trip.
	out := RunOutcome{Cells: make([]RunCell, 0, len(runs))}
	var fps, ria harness.Agg
	for r, res := range runs {
		counters := make(map[string]uint64, len(res.Obs.Counters))
		for _, c := range res.Obs.Counters {
			counters[c.Name] = c.Value
		}
		cell := RunCell{
			Round:      r,
			FPS:        res.Frames.AvgFPS(),
			RIA:        res.Frames.RIA(),
			Reclaimed:  res.Mem.Total.Reclaimed,
			Refaulted:  res.Mem.Total.Refaulted,
			RefaultFG:  res.Mem.RefaultFG,
			RefaultBG:  res.Mem.RefaultBG,
			LMKKills:   res.LMKKills,
			FrozenApps: res.FrozenApps,
			Counters:   counters,
		}
		fps.Add(cell.FPS)
		ria.Add(cell.RIA)
		out.Cells = append(out.Cells, cell)

		if r == 0 && spec.Trace && res.Trace != nil {
			var buf bytes.Buffer
			if err := trace.ExportChrome(&buf, res.Trace.Events(), res.Subjects); err != nil {
				return RunOutcome{}, err
			}
			out.Trace = buf.Bytes()
		}
	}
	out.MeanFPS = fps.Mean()
	out.MeanRIA = ria.Mean()
	return out, nil
}
