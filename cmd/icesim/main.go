// Command icesim runs one interactive scenario on a simulated device and
// prints the user-experience and memory-management outcome.
//
// Usage:
//
//	icesim -device P20 -scenario S-A -scheme Ice -bg 8 -duration 60
//	icesim -device Pixel3 -scenario S-D -scheme LRU+CFS -case memtester
//	icesim -scheme Ice -rounds 10 -workers 4   # repeated, pooled rounds
//	icesim -zram-codec zstd                    # denser, slower zram tier
//
// Schemes: LRU+CFS, UCSG, Acclaim, Ice, PowerManager, SWAM, Ariadne
// (case-insensitive, or a registered alias).
// Cases: null, apps, cputester, memtester.
// Cached BG apps (-bg): 0-19, 0 = the device default.
// Zram codecs: lz4 (default), zstd, snappy.
//
// The flags resolve through the run path icesimd's run jobs share
// (internal/experiments RunSpec): the same defaults and validation, and
// an unknown name or out-of-range count exits 2 with a one-line error.
// With -rounds > 1, experiments.RunRounds runs the rounds through the
// internal/harness bounded worker pool with seeds derived per round,
// and the per-round and mean FPS/RIA/memory outcomes are reported; they
// equal the cells of an icesimd run job with the same spec.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/eurosys23/ice/internal/experiments"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/trace"
	"github.com/eurosys23/ice/internal/workload"
)

// options is the fully validated CLI configuration: flag parsing and
// name resolution live in parseFlags so they are testable without
// running a simulation.
type options struct {
	run      experiments.RunSpec     // resolved: defaults filled, scheme canonical
	cfg      workload.ScenarioConfig // the single run at the raw -seed
	workers  int
	series   bool
	traceN   int
	traceOut string
	stats    bool
}

// parseFlags parses args (not including the program name) and resolves
// the run they describe through the run path icesimd's run jobs share.
// Usage/parse errors come back wrapped around flag.ErrHelp semantics:
// the caller decides the exit code.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("icesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		devName   = fs.String("device", "P20", "device profile: Pixel3, P20, P40, Pixel4")
		scenario  = fs.String("scenario", "S-A", "scenario: S-A (video call), S-B (short video), S-C (scrolling), S-D (game)")
		scheme    = fs.String("scheme", "LRU+CFS", "management scheme")
		bgCase    = fs.String("case", "apps", "background case: null, apps, cputester, memtester")
		numBG     = fs.Int("bg", 0, "cached BG apps, 0-19 (0 = device default)")
		duration  = fs.Int("duration", 60, "measured seconds")
		seed      = fs.Int64("seed", 1, "random seed")
		rounds    = fs.Int("rounds", 1, "repetitions with re-derived seeds (1 = single verbose run)")
		workers   = fs.Int("workers", 0, "max rounds in flight when -rounds > 1 (0 = GOMAXPROCS)")
		series    = fs.Bool("series", false, "print the per-second FPS series")
		traceN    = fs.Int("trace", 0, "record a Systrace-like event ring of this capacity and print its summary")
		traceOut  = fs.String("trace-out", "", "write the recorded trace as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing)")
		stats     = fs.Bool("stats", false, "dump the instrument-registry snapshot (counters, gauges, histograms)")
		zramCodec = fs.String("zram-codec", "", "zram compression preset: lz4, zstd, snappy (empty = device default, lz4)")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}

	run := experiments.RunSpec{
		Device: *devName, Scenario: *scenario, Scheme: *scheme, BGCase: *bgCase,
		NumBG: *numBG, ZramCodec: *zramCodec, DurationSec: *duration,
		Rounds: *rounds, Seed: *seed,
	}
	cfg, err := run.Resolve()
	if err != nil {
		return options{}, err
	}
	return options{
		run: run, cfg: cfg, workers: *workers,
		series: *series, traceN: *traceN, traceOut: *traceOut, stats: *stats,
	}, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if o.run.Rounds > 1 {
		if err := runRounds(os.Stdout, o); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// A Perfetto export needs a recorded trace; give -trace-out a roomy
	// default ring when -trace didn't size one explicitly.
	traceCap := o.traceN
	if o.traceOut != "" && traceCap == 0 {
		traceCap = 1 << 17
	}

	cfg := o.cfg
	cfg.TraceCap = traceCap
	res := workload.RunScenario(cfg)

	fmt.Printf("device    : %s\n", cfg.Device)
	fmt.Printf("scenario  : %s (%s), scheme %s, %v\n", cfg.Scenario, cfg.BGCase, o.run.Scheme, res.Config.Duration)
	fmt.Printf("frames    : %s\n", res.Frames)
	fmt.Printf("memory    : reclaimed=%d refaulted=%d (FG %d / BG %d, 4KiB-eq x16)\n",
		res.Mem.Total.Reclaimed, res.Mem.Total.Refaulted, res.Mem.RefaultFG, res.Mem.RefaultBG)
	fmt.Printf("          : refault ratio %.1f%%, BG share %.1f%%, direct-reclaim episodes %d\n",
		100*res.Mem.RefaultRatio(), 100*res.Mem.BGRefaultShare(), res.Mem.DirectReclaimEpisodes)
	fmt.Printf("cpu       : utilisation %.1f%% (peak %.1f%%)\n",
		100*res.CPU.Utilization(), 100*res.CPU.PeakUtilization())
	fmt.Printf("flash i/o : %d requests, %d pages read, %d written\n",
		res.IO.TotalRequests(), res.IO.PagesRead, res.IO.PagesWritten)
	fmt.Printf("zram      : %d stored, %d loaded, %d rejected-full\n",
		res.Zram.StoredTotal, res.Zram.LoadedTotal, res.Zram.RejectedFull)
	fmt.Printf("lmk kills : %d\n", res.LMKKills)
	if res.Distances.Count > 0 {
		fmt.Printf("workingset: refault distance mean=%.0f p50≤%d p90≤%d (n=%d)\n",
			res.Distances.Mean(), res.Distances.Percentile(50), res.Distances.Percentile(90), res.Distances.Count)
	}
	if res.FrozenApps > 0 {
		fmt.Printf("ice       : %d applications frozen\n", res.FrozenApps)
	}
	if o.series {
		fmt.Printf("fps series: ")
		for _, f := range res.Frames.FPSSeries {
			fmt.Printf("%.0f ", f)
		}
		fmt.Println()
	}
	if res.Trace != nil && o.traceN > 0 {
		fmt.Println("trace summary (count × event, total args):")
		for _, s := range res.Trace.Summarize() {
			fmt.Printf("  %6d  %-8s %-14s argsum=%d arg2sum=%d\n",
				s.Count, s.Cat, s.Name, s.ArgSum, s.Arg2Sum)
		}
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := trace.ExportChrome(f, res.Trace.Events(), res.Subjects); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace     : %d events exported to %s\n", res.Trace.Len(), o.traceOut)
	}
	if o.stats {
		fmt.Println("instrument registry:")
		fmt.Print(res.Obs.String())
	}
}

// runRounds runs the resolved spec's rounds over the harness pool and
// writes the per-round plus aggregate outcomes to w.
func runRounds(w io.Writer, o options) error {
	out, err := experiments.RunRounds(o.run, experiments.Options{Workers: o.workers})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "device    : %s\n", o.cfg.Device)
	fmt.Fprintf(w, "scenario  : %s (%s), scheme %s, %d rounds (workers %d)\n",
		o.run.Scenario, o.cfg.BGCase, o.run.Scheme, o.run.Rounds, o.workers)
	var fps harness.Agg
	var reclaimed, refaulted harness.Counter
	for _, c := range out.Cells {
		fmt.Fprintf(w, "round %-3d : fps=%.1f ria=%.1f%% reclaimed=%d refaulted=%d\n",
			c.Round, c.FPS, 100*c.RIA, c.Reclaimed, c.Refaulted)
		fps.Add(c.FPS)
		reclaimed.Add(c.Reclaimed)
		refaulted.Add(c.Refaulted)
	}
	fmt.Fprintf(w, "mean      : fps=%.1f (p50=%.1f) ria=%.1f%% reclaimed=%d refaulted=%d\n",
		out.MeanFPS, fps.Percentile(50), 100*out.MeanRIA, reclaimed.Mean(), refaulted.Mean())
	return nil
}
