package service

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/eurosys23/ice/internal/experiments"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/sim"
)

// RunResult is a KindRun job's payload: the normalised spec, then the
// run's per-round cells and means.
type RunResult struct {
	Spec JobSpec `json:"spec"`
	experiments.RunOutcome
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
// Perfetto trace-event JSON. budget is the job's or served range's
// pass through the daemon's cell gate; progress receives the harness
// callback stream. hooks distributes the matrix across nodes (see
// harness.ExecHooks): a coordinator passes its steal config, a worker a
// cell range + sink.
func execute(ctx context.Context, spec JobSpec, budget harness.Budget, progress func(harness.Progress), hooks harness.ExecHooks) (result, traceJSON []byte, err error) {
	// Priority decides when a job runs, never what it computes; strip
	// it so the marshalled result (which embeds the spec) is
	// byte-identical across scheduling classes — and to the
	// pre-tenancy daemon's payloads.
	spec.Priority = ""
	o := experiments.Options{Workers: spec.Workers, Ctx: ctx, Budget: budget, Progress: progress, Hooks: hooks}
	switch spec.Kind {
	case KindRun:
		out, err := experiments.RunRounds(spec.run(), o)
		if err != nil {
			return nil, nil, err
		}
		// json.Marshal is deterministic (struct field order, sorted map
		// keys), so a cache miss re-computation is byte-identical too.
		result, err = json.Marshal(RunResult{Spec: spec, RunOutcome: out})
		return result, out.Trace, err
	case KindExperiment:
		runner, _ := experiments.ByID(spec.Experiment) // validated by normalize
		o.Fast, o.Rounds, o.Seed = spec.Fast, spec.Rounds, spec.Seed
		if spec.DurationSec > 0 {
			o.Duration = sim.Time(spec.DurationSec) * sim.Second
		}
		render, data, err := runner.Run(o)
		if err != nil {
			return nil, nil, err
		}
		result, err = json.Marshal(ExperimentResult{ID: runner.ID, Text: render(), Result: data})
		return result, nil, err
	}
	return nil, nil, fmt.Errorf("unknown job kind %q", spec.Kind) // unreachable after normalize
}
