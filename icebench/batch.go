package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/eurosys23/ice/internal/experiments"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/sim"
)

// batchWorkload is an in-process batch workload: a fixed list of
// experiments regenerated back to back, the way `cmd/experiments -run
// a,b` does. A pass is one run of every experiment in the list.
type batchWorkload struct {
	name string
	ids  []string
	// rounds overrides Options.Rounds (0 keeps the experiment's
	// full-fidelity default).
	rounds int
}

var matrixWorkload = batchWorkload{name: "matrix", ids: []string{"fig8", "policy-sweep"}, rounds: 1}

// batchWorkers is the harness pool size: one worker per core of the
// two-core machine the benchmark is sized for.
const batchWorkers = 2

// cellCounts are the exact simulated work counts of a pass, from the
// per-cell instrument snapshots (Options.Hooks.ObsSink). They depend
// only on the seed, never on the worker count or on timing.
type cellCounts struct {
	Cells        uint64 // cells that delivered a snapshot
	Quanta       uint64 // Σ sched.quanta.*
	ReclaimScans uint64
	ReclaimPages uint64
	RefaultPages uint64
	ZramPages    uint64 // stored + loaded
	IOPages      uint64 // read + written
	Frames       uint64 // frame.latency_us observations
	LMKKills     uint64
}

func (c *cellCounts) addSnapshot(s obs.Snapshot) {
	c.Cells++
	for _, ctr := range s.Counters {
		switch {
		case strings.HasPrefix(ctr.Name, "sched.quanta."):
			c.Quanta += ctr.Value
		case ctr.Name == "mm.reclaim.scans":
			c.ReclaimScans += ctr.Value
		case ctr.Name == "mm.reclaim.pages":
			c.ReclaimPages += ctr.Value
		case ctr.Name == "mm.refault.pages":
			c.RefaultPages += ctr.Value
		case ctr.Name == "zram.stored.pages", ctr.Name == "zram.loaded.pages":
			c.ZramPages += ctr.Value
		case ctr.Name == "io.pages_read", ctr.Name == "io.pages_written":
			c.IOPages += ctr.Value
		case ctr.Name == "lmk.kills":
			c.LMKKills += ctr.Value
		}
	}
	if h, ok := s.Hist("frame.latency_us"); ok {
		c.Frames += h.Count
	}
}

// fill sets the per-cell count inputs of the layer block.
func (c cellCounts) fill(in *layerInputs) {
	div := func(v, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / float64(n)
	}
	n := c.Cells
	in.quanta, in.reclaimScans, in.refaults = div(c.Quanta, n), div(c.ReclaimScans, n), div(c.RefaultPages, n)
	in.refaultRatio = div(c.RefaultPages, c.ReclaimPages)
	in.zramPages, in.ioPages, in.frames, in.lmkKills = div(c.ZramPages, n), div(c.IOPages, n), div(c.Frames, n), div(c.LMKKills, n)
}

// passResult is everything one pass produced.
type passResult struct {
	cells    int
	failed   int
	cellMs   []float64
	busy     time.Duration
	wall     time.Duration
	cpu      time.Duration // process CPU time of the pass
	cal      time.Duration // CPU time of the calibration run right before it
	reduceMs []float64     // per experiment: Run return − last cell completion
	digest   string
	counts   cellCounts
	failures []string // one line per panicked cell
}

// runPass regenerates every experiment of the workload once. Spans go to
// tr (nil when untraced); corrupt flips one payload byte before digesting
// (the self-test of the output check).
func (w batchWorkload) runPass(seed int64, workers int, tr *tracer, req string, corrupt bool) (passResult, error) {
	var pr passResult
	h := sha256.New()
	var mu sync.Mutex // ObsSink calls may be concurrent
	start, cpu0 := time.Now(), cpuTime()
	for _, id := range w.ids {
		runner, ok := experiments.ByID(id)
		if !ok {
			return pr, fmt.Errorf("unknown experiment %q", id)
		}
		runID := tr.newID()
		runStart := time.Now()
		var lastCell time.Time
		opts := experiments.Options{
			Seed:    seed,
			Workers: workers,
			Rounds:  w.rounds,
			Progress: func(p harness.Progress) {
				now := time.Now()
				lastCell = now
				pr.cells++
				pr.cellMs = append(pr.cellMs, ms(p.CellTime))
				pr.busy += p.CellTime
				tr.add(span{Name: "cell " + p.Cell.String(), Layer: "harness", Parent: runID, Req: req + "/" + id,
					Start: now.Add(-p.CellTime), End: now})
			},
			Hooks: harness.ExecHooks{ObsSink: func(s obs.Snapshot) {
				mu.Lock()
				pr.counts.addSnapshot(s)
				mu.Unlock()
			}},
		}
		render, data, err := runner.Run(opts)
		end := time.Now()
		tr.add(span{ID: runID, Name: "Runner.Run " + id, Layer: "experiments", Req: req + "/" + id, Start: runStart, End: end})
		if err != nil {
			// A panicked cell leaves the experiment without a result. The
			// digest records which cells failed, so a reference path that
			// fails the same cells agrees; the cells still count as failed.
			errs := harness.Errs(err)
			if len(errs) == 0 {
				return pr, fmt.Errorf("%s: %w", id, err)
			}
			fmt.Fprintf(h, "%s\x00failed", id)
			for _, ce := range errs {
				fmt.Fprintf(h, "\x00%d", ce.Cell.Index)
				pr.failures = append(pr.failures, fmt.Sprintf("%s %s: %v", id, ce.Cell, ce.Panic))
			}
			pr.failed += len(errs)
			continue
		}
		if !lastCell.IsZero() {
			pr.reduceMs = append(pr.reduceMs, ms(end.Sub(lastCell)))
		}
		payload, err := json.Marshal(data)
		if err != nil {
			return pr, fmt.Errorf("%s: marshal result: %w", id, err)
		}
		if corrupt {
			payload[len(payload)/2] ^= 1
			corrupt = false
		}
		// Only deterministic bytes: the marshalled result and the
		// rendered text. Timings never reach the digest.
		fmt.Fprintf(h, "%s\x00%d\x00", id, len(payload))
		h.Write(payload)
		text := render()
		fmt.Fprintf(h, "\x00%d\x00%s\x00", len(text), text)
	}
	pr.wall, pr.cpu = time.Since(start), cpuTime()-cpu0
	pr.digest = hex.EncodeToString(h.Sum(nil))
	return pr, nil
}

// warm is the set-up: every experiment of the workload at a one-second
// window and one round, so lazy initialisation (scheme registry, device
// tables, codec presets) and heap growth happen before the measured
// window. It always uses the default seed, so set-up does the same work
// at every --seed. It returns the cells that panicked.
func (w batchWorkload) warm() ([]string, error) {
	var failures []string
	for _, id := range w.ids {
		runner, _ := experiments.ByID(id)
		o := experiments.Options{Seed: defaultSeed, Workers: batchWorkers, Rounds: 1, Duration: sim.Second, Fast: true}
		if _, _, err := runner.Run(o); err != nil {
			errs := harness.Errs(err)
			if len(errs) == 0 {
				return nil, fmt.Errorf("warm-up %s: %w", id, err)
			}
			for _, ce := range errs {
				failures = append(failures, fmt.Sprintf("%s %s: %v", id, ce.Cell, ce.Panic))
			}
		}
	}
	return failures, nil
}

// window runs passes back to back until the measuring time is over.
// An untraced window calibrates before each pass; a traced one does not,
// so its profile holds only the workload.
func (w batchWorkload) window(cfg config, tr *tracer, corrupt bool) ([]passResult, error) {
	deadline := time.Now().Add(cfg.window())
	var passes []passResult
	for i := 0; ; i++ {
		var cal time.Duration
		if tr == nil {
			cal = calibrate()
		}
		pr, err := w.runPass(cfg.seed, batchWorkers, tr, fmt.Sprintf("pass%d", i), corrupt && i == 0)
		pr.cal = cal
		if err != nil {
			return passes, err
		}
		passes = append(passes, pr)
		if !time.Now().Before(deadline) {
			return passes, nil
		}
	}
}

// reference is the serial (Workers 1) pass a seed that is not pinned is
// checked against: a different harness interleaving that must give the
// same bytes and the same counts.
func (w batchWorkload) reference(seed int64) (passResult, error) {
	p, err := w.runPass(seed, 1, nil, "reference", false)
	if err != nil {
		return p, fmt.Errorf("reference pass: %w", err)
	}
	return p, nil
}

// run is one invocation of a batch workload.
func (w batchWorkload) run(cfg config) (*outcome, error) {
	o := &outcome{correct: true}
	var setups, setupWalls []float64
	for i := 0; i < setupReps; i++ {
		cal := calibrate()
		t, c := time.Now(), cpuTime()
		failures, err := w.warm()
		if err != nil {
			return nil, err
		}
		setupWalls = append(setupWalls, time.Since(t).Seconds())
		setups = append(setups, scaledMs(cpuTime()-c, cal)/1000)
		if i == 0 {
			for _, f := range failures {
				o.notes = append(o.notes, "set-up: cell failed: "+f)
			}
		}
	}

	ref, pinned := pinnedDigest(w.name, cfg.seed)
	var refCounts *cellCounts
	if !pinned {
		p, err := w.reference(cfg.seed)
		if err != nil {
			return nil, err
		}
		ref, refCounts = p.digest, &p.counts
		o.notes = append(o.notes, "reference derived from a Workers 1 pass (seed not pinned)")
	}
	check := func(label string, passes []passResult) {
		for i, p := range passes {
			o.attempted += p.cells
			o.failed += p.failed
			if i == 0 {
				for _, f := range p.failures {
					o.notes = append(o.notes, fmt.Sprintf("%s passes: cell failed, as on the reference path: %s", label, f))
				}
			}
			if p.digest != ref {
				o.problem("%s pass %d: result bytes differ from the reference (digest %.16s…, reference %.16s…)", label, i, p.digest, ref)
			}
			want := passes[0].counts
			if refCounts != nil {
				want = *refCounts
			}
			if p.counts != want {
				o.problem("%s pass %d: work counts %+v differ from %+v", label, i, p.counts, want)
			}
		}
	}

	passes, err := w.window(cfg, nil, cfg.corrupt)
	if err != nil {
		return nil, err
	}
	check("untraced", passes)
	// Rates are medians over passes, so a short stall of the shared host
	// moves one pass, not the run's figure.
	rate := func(ps []passResult) (cellsPerS float64, wall time.Duration) {
		var cellRates []float64
		for _, p := range ps {
			wall += p.wall
			cellRates = append(cellRates, float64(p.cells)/p.wall.Seconds())
		}
		return median(cellRates), wall
	}
	cellsPerS, wall := rate(passes)
	var refCost, cost, cal []float64
	for _, p := range passes {
		refCost = append(refCost, scaledMs(p.cpu, p.cal)/float64(p.cells))
		cost = append(cost, ms(p.cpu)/float64(p.cells))
		cal = append(cal, ms(p.cal))
	}
	var cellMs, reduceMs []float64
	for _, p := range passes {
		cellMs = append(cellMs, p.cellMs...)
		reduceMs = append(reduceMs, p.reduceMs...)
	}
	o.e2e = []metric{
		{Name: "setup_s", Unit: "s", Value: median(setups), N: len(setups)},
		{Name: "ref_cpu_ms_per_cell", Unit: "ms", Value: median(refCost), N: len(passes)},
		{Name: "peak_rss_mb", Unit: "MB", Value: peakRSSMB()},
	}
	o.detail = []metric{
		{Name: "setup_wall_s", Unit: "s", Value: median(setupWalls), N: len(setupWalls)},
		{Name: "cells_per_s", Unit: "cells/s", Value: cellsPerS, N: len(passes)},
		{Name: "cpu_ms_per_cell", Unit: "ms", Value: median(cost), N: len(passes)},
		{Name: "calibration_ms", Unit: "ms", Value: median(cal), N: len(passes)},
	}
	o.detail = append(o.detail, percentiles("cell_ms", "ms", cellMs)...)
	o.detail = append(o.detail, percentiles("experiments.reduce_ms", "ms", reduceMs)...)
	o.detail = append(o.detail,
		metric{Name: "cells_per_pass", Unit: "cells", Value: float64(passes[0].cells)},
		metric{Name: "passes", Unit: "count", Value: float64(len(passes))},
		metric{Name: "window_s", Unit: "s", Value: wall.Seconds()})
	if !cfg.traced {
		return o, nil
	}

	tr := &tracer{}
	prof, err := startProfiler()
	if err != nil {
		return nil, err
	}
	tpasses, err := w.window(cfg, tr, false)
	shares, mallocs, allocBytes, raw, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	check("traced", tpasses)
	tCellsPerS, twall := rate(tpasses)
	in := layerInputs{workers: batchWorkers, wall: twall, shares: shares, mallocs: mallocs, allocBytes: allocBytes,
		overhead: cellsPerS/tCellsPerS - 1}
	for _, p := range tpasses {
		in.cellBusy += p.busy
		in.cellsFailed += p.failed
		in.cells += uint64(p.cells)
	}
	tpasses[0].counts.fill(&in)
	o.layer = in.metrics()
	path, err := writeTrace(cfg, tr.spans, raw)
	if err != nil {
		return nil, err
	}
	o.notes = append(o.notes, spanSelfTimes(tr.spans), "trace written to "+path)
	return o, nil
}
