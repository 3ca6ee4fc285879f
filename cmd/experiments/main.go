// Command experiments regenerates the paper's tables and figures on the
// simulated devices.
//
// Usage:
//
//	experiments -run all              # everything (slow, full fidelity)
//	experiments -run fig8 -fast       # one experiment, reduced scale
//	experiments -run fig8 -workers 4  # at most 4 simulations in flight
//	experiments -progress             # live completed/total + ETA on stderr
//	experiments -list                 # enumerate experiment IDs and axes
//
// Experiment IDs: table1, fig1, fig2a, fig2b, fig3, fig4, fig8, fig9,
// fig10, table5, pressure, fig11, ablations.
//
// The CLI resolves experiments through the shared registry in
// internal/experiments — the same table the icesimd daemon serves — so
// the two front-ends can never drift.
//
// Every experiment executes its cell matrix through internal/harness: a
// bounded worker pool (default GOMAXPROCS) with per-cell seeds, timing
// and panic isolation. A failed cell renders as a structured error (and
// a JSON error object under -json) instead of a bare stack trace, and
// the process exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/eurosys23/ice/internal/experiments"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/policy"
)

// cellTiming is one per-cell wall-clock measurement for -json output.
type cellTiming struct {
	Device   string  `json:"device,omitempty"`
	Scheme   string  `json:"scheme,omitempty"`
	Scenario string  `json:"scenario,omitempty"`
	Variant  string  `json:"variant,omitempty"`
	Round    int     `json:"round"`
	Millis   float64 `json:"ms"`
}

// cellFailure is one failed cell for the structured JSON error object.
type cellFailure struct {
	Cell  string `json:"cell"`
	Panic string `json:"panic"`
}

func main() {
	var (
		run      = flag.String("run", "all", "experiment ID, comma list, or 'all'")
		list     = flag.Bool("list", false, "list experiment IDs and axes, then exit")
		fast     = flag.Bool("fast", false, "reduced rounds/durations")
		rounds   = flag.Int("rounds", 0, "override repetition count")
		seed     = flag.Int64("seed", 0, "override base seed")
		workers  = flag.Int("workers", 0, "max simulations in flight (0 = GOMAXPROCS, 1 = serial)")
		progress = flag.Bool("progress", false, "report completed/total cells and ETA on stderr")
		asJSON   = flag.Bool("json", false, "emit structured JSON (with per-cell timings) instead of tables")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	// stopProfiles flushes both profiles (idempotently); every exit path
	// after this point must go through it — os.Exit skips defers.
	var cpuFile *os.File
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		cpuFile = f
	}
	stopProfiles := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			cpuFile = nil
		}
		if *memProf != "" {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				*memProf = ""
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
			*memProf = ""
		}
	}
	defer stopProfiles()

	all := experiments.Registry()
	if *list {
		fmt.Println("experiments:")
		for _, r := range all {
			fmt.Printf("  %-12s %-50s %s\n", r.ID, r.Desc, r.Axes)
		}
		fmt.Println("\nschemes (accepted anywhere a scheme name is taken):")
		for _, info := range policy.Infos() {
			name := info.Name
			if len(info.Aliases) > 0 {
				name += " (" + strings.Join(info.Aliases, ", ") + ")"
			}
			axes := ""
			if len(info.Axes) > 0 {
				axes = "axes: " + strings.Join(info.Axes, ", ")
			}
			fmt.Printf("  %-22s %-60s %s\n", name, info.Desc, axes)
		}
		return
	}

	want := map[string]bool{}
	if *run != "all" {
		for _, id := range strings.Split(*run, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			if _, ok := experiments.ByID(id); !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	failed := false
	for _, r := range all {
		if *run != "all" && !want[r.ID] {
			continue
		}
		if *rounds > 0 && r.Reads&experiments.ScaleRounds == 0 {
			fmt.Fprintf(os.Stderr, "%s ignores -rounds\n", r.ID)
		}

		var timings []cellTiming
		cellUs := &obs.Histogram{}
		opts := experiments.Options{
			Fast: *fast, Rounds: *rounds, Seed: *seed, Workers: *workers,
			Progress: func(p harness.Progress) {
				cellUs.Observe(p.CellTime.Microseconds())
				if *asJSON {
					timings = append(timings, cellTiming{
						Device: p.Cell.Device, Scheme: p.Cell.Scheme,
						Scenario: p.Cell.Scenario, Variant: p.Cell.Variant,
						Round:  p.Cell.Round,
						Millis: float64(p.CellTime.Microseconds()) / 1000,
					})
				}
				if *progress {
					fmt.Fprintf(os.Stderr, "\r[%s] %d/%d cells, elapsed %v, eta %v   ",
						r.ID, p.Completed, p.Total,
						p.Elapsed.Round(time.Millisecond), p.ETA.Round(time.Millisecond))
					if p.Completed == p.Total {
						fmt.Fprintln(os.Stderr)
					}
				}
			},
		}

		start := time.Now()
		render, data, err := r.Run(opts)
		elapsed := time.Since(start)

		if err != nil {
			failed = true
			if *asJSON {
				var cells []cellFailure
				for _, ce := range harness.Errs(err) {
					cells = append(cells, cellFailure{Cell: ce.Cell.String(), Panic: fmt.Sprint(ce.Panic)})
				}
				obj := map[string]interface{}{
					"id":         r.ID,
					"elapsed_ms": float64(elapsed.Microseconds()) / 1000,
					"error": map[string]interface{}{
						"message": err.Error(),
						"cells":   cells,
					},
				}
				if encErr := enc.Encode(obj); encErr != nil {
					fmt.Fprintln(os.Stderr, encErr)
				}
			} else {
				fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.ID, err)
			}
			continue
		}

		if *asJSON {
			obj := map[string]interface{}{
				"id":         r.ID,
				"elapsed_ms": float64(elapsed.Microseconds()) / 1000,
				"cells":      timings,
				"result":     data,
			}
			if cellUs.Count() > 0 {
				obj["cell_us"] = map[string]interface{}{
					"count": cellUs.Count(),
					"p50":   cellUs.Percentile(50),
					"p99":   cellUs.Percentile(99),
					"max":   cellUs.Max(),
				}
			}
			if err := enc.Encode(obj); err != nil {
				fmt.Fprintln(os.Stderr, err)
				stopProfiles()
				os.Exit(1)
			}
			continue
		}
		fmt.Printf("=== %s: %s ===\n", r.ID, r.Desc)
		fmt.Println(render())
		fmt.Printf("(%s in %v)\n\n", r.ID, elapsed.Round(time.Millisecond))
	}
	if failed {
		stopProfiles()
		os.Exit(1)
	}
}
