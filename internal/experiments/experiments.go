// Package experiments reproduces every table and figure of the paper's
// motivation and evaluation sections. Each runner returns a structured
// result with a paper-style textual rendering; cmd/experiments, the root
// benchmark suite and EXPERIMENTS.md all consume the same runners.
//
// Runners honour Options.Fast, which shrinks rounds and durations so the
// whole suite can execute in seconds under `go test -bench`. Full-fidelity
// runs use the defaults, mirroring the paper's ten-round methodology.
//
// Every runner executes its cell matrix through internal/harness: a
// bounded worker pool with hash-derived per-cell seeds, panic isolation,
// per-cell timing and progress reporting. Results are reduced from the
// harness's matrix-ordered output, so they are byte-identical at any
// worker count.
//
// Beside the registry, run.go holds the run path that cmd/icesim and the
// icesimd daemon's run jobs share: RunSpec.Resolve and RunRounds.
package experiments

import (
	"context"

	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/sim"
)

// Options tunes experiment scale.
type Options struct {
	// Rounds of repetition with re-randomised background populations
	// (default 10, the paper's count; Fast: 2).
	Rounds int
	// Duration of each measured scenario window (default 60 s; Fast: 15 s).
	Duration sim.Time
	// Seed is the base random seed; each matrix cell derives its own
	// seed from it via harness.DeriveSeed.
	Seed int64
	// Fast shrinks everything for smoke tests and benchmarks.
	Fast bool
	// Workers bounds how many matrix cells simulate concurrently
	// (<=0: GOMAXPROCS, 1: serial). Each cell owns an isolated
	// simulated device, so results are identical at any worker count.
	Workers int
	// Progress, when non-nil, receives a callback after every completed
	// matrix cell (serialised by the harness).
	Progress func(harness.Progress)
	// Ctx, when non-nil, cancels the run matrix: once Ctx is done no
	// further cell starts and the runner returns an error wrapping
	// Ctx.Err() (see harness.MapContext). Nil means run to completion.
	Ctx context.Context
	// Slots, when non-nil, is a cell-execution budget shared across
	// concurrent runners (see harness.Config.Slots); the icesimd daemon
	// uses it to bound total in-flight simulations across jobs.
	Slots chan struct{}
	// Hooks distributes the run matrix across processes (see
	// harness.ExecHooks): a worker daemon restricts execution to a cell
	// range and sinks per-cell JSON, a coordinator lets peers steal
	// chunks. The zero value keeps execution fully local.
	Hooks harness.ExecHooks
}

// MaxRounds bounds the rounds a run spec or an icesimd experiment job
// may ask for. A runner allocates a record per round and matrix cell
// before any cell runs, so an unbounded count from a caller could
// exhaust the process's memory before anything else checks it.
const MaxRounds = 1000

// WithDefaults fills the unset scale options: Seed 0, and Rounds or
// Duration at or below 0, take the paper's (or Fast's) values. Every
// runner applies it, and the icesimd daemon applies it to experiment
// jobs so their cache key hashes the effective rounds and seed.
func (o Options) WithDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 20230509 // EuroSys'23 opening day
	}
	if o.Rounds <= 0 {
		if o.Fast {
			o.Rounds = 2
		} else {
			o.Rounds = 10
		}
	}
	if o.Duration <= 0 {
		if o.Fast {
			o.Duration = 15 * sim.Second
		} else {
			o.Duration = 60 * sim.Second
		}
	}
	return o
}

// config adapts the options to a harness pool configuration.
func (o Options) config() harness.Config {
	return harness.Config{BaseSeed: o.Seed, Workers: o.Workers, Progress: o.Progress, Slots: o.Slots, ExecHooks: o.Hooks}
}

// ctx returns the run context (Background when unset).
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// mapCells executes one runner's cell matrix through the harness,
// honouring Options.Ctx. Every runner funnels its matrix through here so
// daemon-side job cancellation reaches all 13 experiments uniformly.
func mapCells[T any](o Options, cells []harness.Cell, fn func(harness.Cell) T) ([]T, error) {
	return harness.MapContext(o.ctx(), o.config(), cells, fn)
}
