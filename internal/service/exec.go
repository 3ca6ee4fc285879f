package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/experiments"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/trace"
	"github.com/eurosys23/ice/internal/workload"
)

// RunCell is one round's outcome of a KindRun job: the headline user-
// experience metrics plus the full per-cell instrument-registry
// counters (the paper's vmstat-equivalent).
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

// RunResult is a KindRun job's payload.
type RunResult struct {
	Spec    JobSpec   `json:"spec"`
	Cells   []RunCell `json:"cells"`
	MeanFPS float64   `json:"mean_fps"`
	MeanRIA float64   `json:"mean_ria"`
}

// ExperimentResult is a KindExperiment job's payload: the registry ID,
// the paper-style rendering, and the runner's structured result.
type ExperimentResult struct {
	ID     string      `json:"id"`
	Text   string      `json:"text"`
	Result interface{} `json:"result"`
}

// execute runs a normalised job spec to completion (or cancellation),
// returning the marshalled result payload and, for traced runs, the
// Perfetto trace-event JSON. slots is the daemon's global cell budget;
// progress receives the harness callback stream. hooks distributes the
// matrix across nodes (see harness.ExecHooks): a coordinator passes its
// steal config and a resumed job's saved payloads, a worker a cell
// range + sink.
func execute(ctx context.Context, spec JobSpec, slots chan struct{}, progress func(harness.Progress), hooks harness.ExecHooks) (result, traceJSON []byte, err error) {
	// Priority decides when a job runs, never what it computes; strip
	// it so the marshalled result (which embeds the spec) is
	// byte-identical across scheduling classes — and to the
	// pre-tenancy daemon's payloads.
	spec.Priority = ""
	switch spec.Kind {
	case KindRun:
		return executeRun(ctx, spec, slots, progress, hooks)
	case KindExperiment:
		return executeExperiment(ctx, spec, slots, progress, hooks)
	}
	return nil, nil, fmt.Errorf("unknown job kind %q", spec.Kind) // unreachable after normalize
}

func executeRun(ctx context.Context, spec JobSpec, slots chan struct{}, progress func(harness.Progress), hooks harness.ExecHooks) (result, traceJSON []byte, err error) {
	profile, _ := device.ByName(spec.Device) // validated by normalize
	profile.ZramCodec = spec.ZramCodec
	bc, _ := parseBGCase(spec.BGCase)

	cells := make([]harness.Cell, spec.Rounds)
	for r := range cells {
		cells[r] = harness.Cell{
			Device: spec.Device, Scheme: spec.Scheme, Scenario: spec.Scenario,
			Variant: bc.String(), Round: r,
		}
	}
	runs, err := harness.MapContext(ctx,
		harness.Config{BaseSeed: spec.Seed, Workers: spec.Workers, Progress: progress, Slots: slots, ExecHooks: hooks},
		cells,
		func(c harness.Cell) workload.ScenarioResult {
			sch, perr := policy.ByName(c.Scheme)
			if perr != nil {
				panic(perr)
			}
			traceCap := 0
			if spec.Trace && c.Round == 0 {
				traceCap = 1 << 17
			}
			return workload.RunScenario(workload.ScenarioConfig{
				Scenario: c.Scenario,
				Device:   profile,
				Scheme:   sch,
				BGCase:   bc,
				NumBG:    spec.NumBG,
				Duration: sim.Time(spec.DurationSec) * sim.Second,
				Seed:     c.Seed,
				TraceCap: traceCap,
			})
		})
	if err != nil {
		return nil, nil, err
	}

	// The reduction reads res.Trace only at round 0, which a sharding
	// coordinator always keeps local (trace buffers cannot cross the
	// JSON wire); every other field below survives the round trip.
	out := RunResult{Spec: spec, Cells: make([]RunCell, 0, len(runs))}
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
			if terr := trace.ExportChrome(&buf, res.Trace.Events(), res.Subjects); terr != nil {
				return nil, nil, terr
			}
			traceJSON = buf.Bytes()
		}
	}
	out.MeanFPS = fps.Mean()
	out.MeanRIA = ria.Mean()

	// json.Marshal is deterministic (struct field order, sorted map
	// keys), so a cache miss re-computation is byte-identical too.
	result, err = json.Marshal(out)
	return result, traceJSON, err
}

func executeExperiment(ctx context.Context, spec JobSpec, slots chan struct{}, progress func(harness.Progress), hooks harness.ExecHooks) (result, traceJSON []byte, err error) {
	runner, _ := experiments.ByID(spec.Experiment) // validated by normalize
	opts := experiments.Options{
		Fast:     spec.Fast,
		Rounds:   spec.Rounds,
		Seed:     spec.Seed,
		Workers:  spec.Workers,
		Ctx:      ctx,
		Slots:    slots,
		Progress: progress,
		Hooks:    hooks,
	}
	if spec.DurationSec > 0 {
		opts.Duration = sim.Time(spec.DurationSec) * sim.Second
	}
	render, data, err := runner.Run(opts)
	if err != nil {
		return nil, nil, err
	}
	result, err = json.Marshal(ExperimentResult{ID: runner.ID, Text: render(), Result: data})
	return result, nil, err
}
