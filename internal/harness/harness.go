// Package harness executes declarative experiment run-matrices on a
// bounded worker pool.
//
// Every experiment in this repository has the same shape: a cross
// product of coordinates (device × scheme × scenario × variant × round)
// where each cell is an independent, seeded, deterministic simulation.
// The harness owns everything that used to be re-implemented per
// runner:
//
//   - a Cell spec naming the coordinates of one simulation,
//   - deterministic, collision-free seed derivation (a hash of the cell
//     coordinates mixed with the base seed, replacing ad-hoc arithmetic
//     like seed + d*7919 + s*389 that silently collides as matrices grow),
//   - a bounded worker pool (default GOMAXPROCS) so a 40-cell figure no
//     longer launches 40 full device simulations at once,
//   - panic recovery that converts a failed cell into a structured
//     *CellError instead of killing the process,
//   - per-cell wall-clock timing and a progress callback with
//     completed/total counts and an ETA.
//
// Results are collected in matrix order, so output is byte-identical at
// any worker count as long as each cell is deterministic in its seed.
package harness

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"github.com/eurosys23/ice/internal/obs"
)

// Cell is one point of a run matrix: the coordinates of a single
// simulation. Unused axes stay "". Index and Seed are stamped by the
// harness before the cell is executed: Index is the cell's position in
// the matrix (stable across worker counts) and Seed is derived from the
// base seed and the coordinates via DeriveSeed.
type Cell struct {
	Device   string
	Scheme   string
	Scenario string
	// Variant is a free-form axis for matrices with a dimension beyond
	// device/scheme/scenario (BG-app count, ablation variant, GC mode).
	Variant string
	Round   int

	Index int
	Seed  int64
}

// String renders the coordinates compactly for errors and progress.
func (c Cell) String() string {
	s := fmt.Sprintf("cell %d", c.Index)
	for _, part := range []struct{ k, v string }{
		{"device", c.Device}, {"scheme", c.Scheme},
		{"scenario", c.Scenario}, {"variant", c.Variant},
	} {
		if part.v != "" {
			s += " " + part.k + "=" + part.v
		}
	}
	return s + fmt.Sprintf(" round=%d", c.Round)
}

// DeriveSeed maps the base seed plus a cell's coordinates onto a
// positive, well-mixed simulation seed (FNV-1a over the coordinate
// tuple). Distinct coordinates produce distinct seeds with overwhelming
// probability regardless of how the matrix grows; the experiments suite
// asserts uniqueness across its largest matrices.
func DeriveSeed(base int64, c Cell) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	for _, s := range []string{c.Device, c.Scheme, c.Scenario, c.Variant} {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	binary.LittleEndian.PutUint64(b[:], uint64(c.Round))
	h.Write(b[:])
	seed := int64(h.Sum64() >> 1) // keep it positive
	if seed == 0 {
		seed = 1 // 0 means "use the default seed" to several callers
	}
	return seed
}

// Range is a half-open interval [From, To) of stamped cell indices.
// The zero Range is empty.
type Range struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Len reports how many indices the range covers.
func (r Range) Len() int {
	if r.To <= r.From {
		return 0
	}
	return r.To - r.From
}

// Cells returns the Range [from, to) for Config.Range: "execute only
// these cells of the matrix". Worker nodes use it to run a
// coordinator-assigned chunk.
func Cells(from, to int) *Range {
	return &Range{From: from, To: to}
}

// ErrRangePartial marks a run whose Config.Range excluded part of the
// matrix: the in-range cells completed, out-of-range result slots are
// zero, and any reduction over the full matrix would be wrong. Callers
// executing a range on purpose (worker nodes) detect it with
// errors.Is and consume the per-cell Sink output instead of the
// reduced result.
var ErrRangePartial = errors.New("harness: range-restricted run, results incomplete")

// ErrBadRange refuses a Config.Range that is empty or reaches outside
// the matrix. MapContext returns it before any cell runs, so a worker
// handed a range its matrix does not have simulates nothing.
var ErrBadRange = errors.New("harness: cell range empty or outside the matrix")

// ExecHooks carries the distributed-execution hooks through layers
// that do not care about them (experiment options, the service job
// path). The zero value means plain local execution.
type ExecHooks struct {
	// Range, when non-nil, restricts execution to the stamped cell
	// indices in [Range.From, Range.To); every other result slot stays
	// zero and the run error wraps ErrRangePartial (unless the range
	// covers the whole matrix). A range that is empty or not within
	// the matrix is refused with ErrBadRange. Worker nodes run
	// coordinator-assigned chunks this way.
	Range *Range
	// Sink, when non-nil, receives each completed cell's result
	// marshalled as JSON, keyed by matrix index. Calls are serialised
	// by the harness. A cell whose result does not marshal yields a
	// *CellError. This is how a worker captures per-cell payloads
	// without knowing the runner's concrete result type.
	Sink func(index int, result []byte)
	// Steal, when non-nil, lets remote lease loops (spawned by
	// Steal.Run) pull whole chunks of the run's LeaseQueue alongside
	// the local pool — see lease.go. Ignored under Range (worker nodes
	// do not steal).
	Steal *StealConfig
	// ObsSink, when non-nil, receives the instrument-registry snapshot
	// of every LOCALLY executed cell whose result implements
	// obs.SnapshotProvider. Merged (remote) cells are excluded on
	// purpose: the executing worker folds its own cells, so a fleet
	// aggregation never double-counts a cell. Calls may be concurrent —
	// the sink must synchronise.
	ObsSink func(obs.Snapshot)
}

// Budget is a cell-execution budget shared by concurrent runs. Acquire
// blocks until the caller may execute one cell, or reports false,
// holding nothing, once ctx ends; Release returns what a successful
// Acquire took. Keep is a worker's call between two cells in place of
// Release and Acquire: it reports true, still holding the unit for the
// next cell, when no waiter would be granted the unit ahead of a fresh
// Acquire by the same worker; otherwise it releases the unit as Release
// does and reports false. All three must be safe for concurrent use.
type Budget interface {
	Acquire(ctx context.Context) bool
	Release()
	Keep() bool
}

// Config tunes one harness run.
type Config struct {
	// BaseSeed feeds DeriveSeed for every cell.
	BaseSeed int64
	// Workers bounds how many cells run concurrently. <=0 means
	// runtime.GOMAXPROCS(0); 1 runs the matrix serially.
	Workers int
	// Progress, when non-nil, is invoked after every completed cell.
	// Calls are serialised by the harness, so the callback may keep
	// unsynchronised state.
	Progress func(Progress)
	// Budget, when non-nil, is an execution budget shared across
	// concurrent Map/MapContext calls (one daemon serving many jobs):
	// every executing cell holds one unit of it. Workers still bounds
	// this call's own concurrency. Merged (remote) cells take no unit;
	// the process that executes them accounts for them.
	Budget Budget

	// ExecHooks distribute a run across processes; the zero value
	// keeps execution fully local.
	ExecHooks
}

// Progress reports harness advancement after each completed cell.
type Progress struct {
	Completed int
	Total     int
	// Elapsed is the wall-clock time since the run started; ETA
	// extrapolates the remaining time from the mean cell rate so far.
	Elapsed time.Duration
	ETA     time.Duration
	// Cell is the cell that just completed and CellTime its wall-clock
	// execution time.
	Cell     Cell
	CellTime time.Duration
	// Failed counts cells that panicked so far.
	Failed int
}

// CellError is a cell whose function panicked. The harness recovers the
// panic and reports it as a structured error so one bad cell cannot take
// down the whole process (or CLI) with a bare stack trace.
type CellError struct {
	Cell  Cell
	Panic interface{}
	Stack []byte
}

// Error implements error.
func (e *CellError) Error() string {
	return fmt.Sprintf("%s: panic: %v", e.Cell, e.Panic)
}

// Errs extracts the per-cell errors from an error returned by Map,
// in matrix order. It returns nil if err is nil or foreign.
func Errs(err error) []*CellError {
	var joined interface{ Unwrap() []error }
	if errors.As(err, &joined) {
		var out []*CellError
		for _, e := range joined.Unwrap() {
			var ce *CellError
			if errors.As(e, &ce) {
				out = append(out, ce)
			}
		}
		return out
	}
	var ce *CellError
	if errors.As(err, &ce) {
		return []*CellError{ce}
	}
	return nil
}

// Map executes fn for every cell with at most cfg.Workers cells in
// flight and returns the results in matrix order. Index and Seed are
// stamped on each cell before execution; any Seed already present is
// overwritten. A panicking cell yields a zero result slot and a
// *CellError; all cell errors are joined (in matrix order) into the
// returned error while the remaining cells still run to completion.
//
// Map never aborts mid-matrix; use MapContext for cancellation.
func Map[T any](cfg Config, cells []Cell, fn func(Cell) T) ([]T, error) {
	return MapContext(context.Background(), cfg, cells, fn)
}

// MapContext is Map with cooperative cancellation. Cells are claimed in
// matrix order; once ctx is cancelled no further cell starts, while
// cells already in flight run to completion (a cell function is not
// interruptible). Without remote executors the completed cells
// therefore always form a prefix of the matrix, and because each cell
// is deterministic in its seed that prefix is byte-identical to the
// same prefix of an uncancelled run.
//
// On cancellation the result slice still has full matrix length — slots
// whose cell never ran hold zero values — and the returned error joins
// any per-cell errors with ctx.Err(). Callers distinguish "cancelled"
// from "cells panicked" with errors.Is(err, context.Canceled) (or
// DeadlineExceeded) and Errs.
//
// Every run takes one path: the cells to execute are queued on a
// LeaseQueue (lease.go) that one local worker pool drains. The
// ExecHooks in cfg only shape that queue. Range queues just the
// in-range cells, and the error wraps ErrRangePartial when cells were
// excluded; an empty Range or one outside the matrix returns
// ErrBadRange before anything runs. Steal lets remote executors lease
// whole chunks alongside the local pool. The merged matrix is
// byte-identical to a plain local run in every configuration.
func MapContext[T any](ctx context.Context, cfg Config, cells []Cell, fn func(Cell) T) ([]T, error) {
	if r := cfg.Range; r != nil && (r.From < 0 || r.To <= r.From || r.To > len(cells)) {
		return nil, fmt.Errorf("%w: [%d,%d) of %d cells", ErrBadRange, r.From, r.To, len(cells))
	}
	stamped := make([]Cell, len(cells))
	for i := range cells {
		c := cells[i]
		c.Index = i
		c.Seed = DeriveSeed(cfg.BaseSeed, c)
		stamped[i] = c
	}
	n := len(stamped)
	out := make([]T, n)
	tr := &tracker{total: n, start: time.Now(), progress: cfg.Progress, sink: cfg.Sink}

	// A worker's Range is a lease that arrived over the wire: it bounds
	// what is queued, and nothing under it is stolen again.
	from, to, steal := 0, n, cfg.Steal
	if cfg.Range != nil {
		from, to, steal = cfg.Range.From, cfg.Range.To, nil
	}
	partial := to-from < n

	inject := func(r Range, payloads [][]byte) bool {
		if len(payloads) != r.Len() {
			return false
		}
		vals := make([]T, len(payloads))
		for k, p := range payloads {
			if json.Unmarshal(p, &vals[k]) != nil {
				return false
			}
		}
		for k := range vals {
			i := r.From + k
			out[i] = vals[k]
			tr.complete(stamped[i], 0, nil, payloads[k])
		}
		return true
	}
	chunkCells := 0
	if steal != nil {
		chunkCells = steal.ChunkCells
	}
	q := newLeaseQueue(Range{From: from, To: to}, chunkCells, inject)
	stop := context.AfterFunc(ctx, q.cancelAll)
	if steal != nil && steal.Run != nil && to > from {
		go steal.Run(ctx, q)
	}
	runPool(ctx, cfg, stamped, out, tr, fn, q, to-from)
	// Barrier: after this no remote merge is running or can start, so
	// returning (and letting the caller read out) is safe even if a
	// Steal.Run loop is still unwinding a dispatch.
	q.cancelAll()
	stop()

	cellErrs := tr.cellErrs
	if len(cellErrs) == 0 && ctx.Err() == nil && !partial {
		return out, nil
	}
	sort.Slice(cellErrs, func(i, j int) bool { return cellErrs[i].Cell.Index < cellErrs[j].Cell.Index })
	errs := make([]error, 0, len(cellErrs)+2)
	for _, ce := range cellErrs {
		errs = append(errs, ce)
	}
	if partial {
		errs = append(errs, ErrRangePartial)
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		errs = append(errs, ctxErr)
	}
	return out, errors.Join(errs...)
}

// tracker is the shared completion state of one MapContext run. The
// local pool and merged (remote) cells all report through
// it, so progress counts and Sink calls stay serialised no matter where
// a cell was computed.
type tracker struct {
	total    int
	start    time.Time
	progress func(Progress)
	sink     func(int, []byte)

	mu       sync.Mutex
	done     int
	cellErrs []*CellError
}

// complete records one finished cell; sunk is its marshalled result
// for the Sink (nil when no sink is configured or the cell errored).
func (tr *tracker) complete(c Cell, cellTime time.Duration, cerr *CellError, sunk []byte) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.done++
	if cerr != nil {
		tr.cellErrs = append(tr.cellErrs, cerr)
	}
	if tr.sink != nil && cerr == nil && sunk != nil {
		tr.sink(c.Index, sunk)
	}
	if tr.progress != nil {
		p := Progress{
			Completed: tr.done,
			Total:     tr.total,
			Elapsed:   time.Since(tr.start),
			Cell:      c,
			CellTime:  cellTime,
			Failed:    len(tr.cellErrs),
		}
		if tr.done > 0 {
			p.ETA = time.Duration(float64(p.Elapsed) / float64(tr.done) * float64(p.Total-tr.done))
		}
		tr.progress(p)
	}
}

// runPool is the run's local worker pool: at most cfg.Workers (and
// never more than the queued cells) workers, each claiming one cell
// at a time from q. A worker acquires its Budget unit BEFORE it claims
// anything. A worker abandoning on cancellation while it waits for
// the budget has then claimed nothing, so every claimed cell runs to
// completion; claiming first and abandoning later would let a
// later-index cell that already held a unit complete while an earlier
// one never runs, breaking the completed-prefix guarantee. When
// nothing is claimable while remote leases are outstanding, the worker
// releases its unit before it waits, so an idle run never starves its
// neighbours. Between two cells a worker asks the Budget to keep its
// unit rather than releasing it and asking again, so no waiter the
// Budget would serve after it takes the unit in between; a worker
// whose context ends while it holds a kept unit releases it.
func runPool[T any](ctx context.Context, cfg Config, stamped []Cell, out []T, tr *tracker, fn func(Cell) T, q *LeaseQueue, queued int) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for range min(workers, queued) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := false // a unit kept from the last cell
			for ctx.Err() == nil && (held || cfg.acquire(ctx)) {
				i, ok := q.claim()
				if !ok {
					cfg.release()
					held = false
					if q.await() {
						continue
					}
					return
				}
				c := stamped[i]
				cerr, sunk, cellTime := computeCell(cfg, c, &out[i], tr, fn)
				held = cfg.keep()
				tr.complete(c, cellTime, cerr, sunk)
			}
			if held {
				cfg.release()
			}
		}()
	}
	wg.Wait()
}

// acquire takes one Budget unit, reporting false — holding nothing —
// if ctx ends first.
func (cfg *Config) acquire(ctx context.Context) bool {
	return cfg.Budget == nil || cfg.Budget.Acquire(ctx)
}

// keep asks to hold the unit acquire took for the next cell, reporting
// false if it was released instead.
func (cfg *Config) keep() bool {
	return cfg.Budget == nil || cfg.Budget.Keep()
}

// release returns the unit acquire took.
func (cfg *Config) release() {
	if cfg.Budget != nil {
		cfg.Budget.Release()
	}
}

// computeCell executes one claimed cell: runs fn, feeds the ObsSink,
// and marshals the result for the Sink. The caller releases execution
// budgets and reports completion to the tracker.
func computeCell[T any](cfg Config, c Cell, slot *T, tr *tracker, fn func(Cell) T) (cerr *CellError, sunk []byte, cellTime time.Duration) {
	cellStart := time.Now()
	cerr = runCell(c, slot, fn)
	if cerr == nil && cfg.ObsSink != nil {
		if p, ok := any(*slot).(obs.SnapshotProvider); ok {
			cfg.ObsSink(p.ObsSnapshot())
		}
	}
	if cerr == nil && tr.sink != nil {
		b, merr := json.Marshal(*slot)
		if merr != nil {
			cerr = &CellError{Cell: c, Panic: fmt.Sprintf("marshal result for sink: %v", merr)}
		}
		sunk = b
	}
	return cerr, sunk, time.Since(cellStart)
}

// runCell runs fn for one cell, converting a panic into a *CellError.
func runCell[T any](c Cell, slot *T, fn func(Cell) T) (cerr *CellError) {
	defer func() {
		if r := recover(); r != nil {
			cerr = &CellError{Cell: c, Panic: r, Stack: debug.Stack()}
		}
	}()
	*slot = fn(c)
	return nil
}
