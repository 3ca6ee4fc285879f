// Command icebench is the repository's benchmark. It runs one workload
// of the simulator or of icesimd at a seed, measures it for a fixed
// time, checks every result byte against a reference, and prints the
// metrics, ending with one JSON line:
//
//	icebench --workload matrix|daemon --seed N --seconds S --trace 0|1
//
// Workloads:
//
//	matrix  fig8 + policy-sweep at 60 s windows, one round: 60 short cells
//	daemon  an in-process icesimd coordinator plus one worker peer, driven
//	        over HTTP by two closed-loop clients with a seeded mix of cold
//	        jobs and memory, disk and peer cache hits
//
// With --trace 0 the last line carries the end-to-end metrics of an
// untraced run. With --trace 1 the measuring time is split between an
// untraced window and a traced one (spans and a CPU profile); the last
// line carries the per-layer metrics, and the spans are written as
// Chrome trace-event JSON under --out. See README.md for why each
// workload and metric exists.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/eurosys23/ice/internal/metrics"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median of their CPU times, each scaled by a calibration run right
// before it (calib.go), and setup_wall_s the median of their wall times.
const setupReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string // directory for the trace, the profile and daemon state
	// corrupt flips one payload byte before it is checked; the
	// benchmark's own test uses it to prove the check can fail.
	corrupt bool
	// maxDecks, when positive, runs exactly that many daemon decks
	// instead of measuring for seconds (tests of exact counts).
	maxDecks int
}

// window is the length of one measured window. A traced invocation
// measures twice, untraced then traced, in the same total time.
func (c config) window() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.traced {
		d /= 2
	}
	return d
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("icebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "matrix", "workload: matrix or daemon")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measuring time of one window, in seconds")
	fs.IntVar(&trace, "trace", 0, "1: add a traced run and report per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for trace output and daemon state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "icebench: --trace must be 0 or 1")
		return 2
	}
	cfg.traced = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "icebench: --seconds must be positive")
		return 2
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "icebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res.print(stdout, cfg)
	if !res.correct {
		for _, p := range res.problems {
			fmt.Fprintf(stderr, "icebench: %s: %s\n", cfg.workload, p)
		}
		return 1
	}
	return 0
}

func runWorkload(cfg config) (*outcome, error) {
	switch cfg.workload {
	case "matrix":
		return matrixWorkload.run(cfg)
	case "daemon":
		return runDaemon(cfg)
	}
	return nil, fmt.Errorf("unknown workload (want matrix or daemon)")
}

// metric is one reported number. N, when non-zero, is the sample count
// behind a percentile.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// outcome is one invocation's verdict and numbers.
type outcome struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	e2e       []metric // end-to-end metrics of the untraced run
	layer     []metric // per-layer metrics of the traced run
	detail    []metric // per-workload numbers shown in the report only
	notes     []string
}

func (o *outcome) problem(format string, args ...interface{}) {
	o.correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// print writes the human-readable report, then the JSON result line.
func (o *outcome) print(w io.Writer, cfg config) {
	fmt.Fprintf(w, "icebench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.traced)
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		for _, m := range ms {
			n := ""
			if m.N > 0 {
				n = fmt.Sprintf("  (n=%d)", m.N)
			}
			fmt.Fprintf(w, "  %-36s %14.6g %-8s%s\n", m.Name, m.Value, m.Unit, n)
		}
	}
	section("end-to-end", o.e2e)
	section("workload detail", o.detail)
	section("per-layer (traced run)", o.layer)
	for _, n := range o.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "FAIL: %s\n", p)
	}
	ms := o.e2e
	if cfg.traced {
		ms = o.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(ms))
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN; a metric that could not be computed makes
			// the run unusable rather than silently zero.
			o.problem("metric %s is %v", m.Name, m.Value)
			m.Value = 0
		}
		vals[m.Name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct, o.attempted, o.failed, vals})
	fmt.Fprintf(w, "%s\n", line)
}

// cpuTime is the CPU time the process has used so far, user and system.
// Unlike wall time it leaves out most of the time the host takes the
// machine's vCPUs away for other tenants (steal).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return metrics.Percentile(xs, 50) }

// percentiles adds exact p50 and, when at least 100 samples back it, p90
// of xs as detail metrics.
func percentiles(name, unit string, xs []float64) []metric {
	if len(xs) == 0 {
		return nil
	}
	out := []metric{{Name: name + "_p50", Unit: unit, Value: metrics.Percentile(xs, 50), N: len(xs)}}
	if len(xs) >= 100 {
		out = append(out, metric{Name: name + "_p90", Unit: unit, Value: metrics.Percentile(xs, 90), N: len(xs)})
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// profiler captures a CPU profile and allocation counters around the
// traced window.
type profiler struct {
	buf    bytes.Buffer
	before runtime.MemStats
}

func startProfiler() (*profiler, error) {
	p := &profiler{}
	runtime.ReadMemStats(&p.before)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns the layer shares, the allocation
// deltas, and the raw profile.
func (p *profiler) stop() (shares map[string]float64, mallocs, bytesAlloc uint64, raw []byte, err error) {
	pprof.StopCPUProfile()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	samples, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, 0, 0, nil, err
	}
	return selfShares(samples), after.Mallocs - p.before.Mallocs, after.TotalAlloc - p.before.TotalAlloc, p.buf.Bytes(), nil
}

// layerInputs feed the per-layer block every workload reports, in the
// order BENCHMARK.json lists it. A layer the workload does not exercise
// reads 0 (see README.md).
type layerInputs struct {
	cellBusy     time.Duration
	workers      int
	wall         time.Duration
	cellsFailed  int
	shares       map[string]float64
	cells        uint64 // cells behind the per-cell ratios
	mallocs      uint64
	allocBytes   uint64
	quanta       float64 // per cell
	reclaimScans float64
	refaults     float64
	refaultRatio float64
	zramPages    float64
	ioPages      float64
	frames       float64
	lmkKills     float64
	hitRatio     float64 // the tier rows are per job
	diskHits     float64
	peerHits     float64
	peerMisses   float64
	hitJobsPerS  float64
	leasesPerJob float64
	remoteShare  float64
	requeues     uint64
	peerFailures uint64
	overhead     float64
}

func (in layerInputs) metrics() []metric {
	perCell := func(v uint64) float64 {
		if in.cells == 0 {
			return 0
		}
		return float64(v) / float64(in.cells)
	}
	idle := 0.0
	if in.wall > 0 && in.workers > 0 {
		idle = 1 - float64(in.cellBusy)/(float64(in.workers)*float64(in.wall))
	}
	out := []metric{
		{Name: "harness.cell_busy_s", Unit: "s", Value: in.cellBusy.Seconds()},
		{Name: "harness.pool_idle_frac", Unit: "frac", Value: idle},
		{Name: "harness.cells_failed", Unit: "count", Value: float64(in.cellsFailed)},
	}
	for _, l := range profileLayers {
		out = append(out, metric{Name: l + ".self_share", Unit: "frac", Value: in.shares[l]})
	}
	out = append(out,
		metric{Name: "runtime.gc_share", Unit: "frac", Value: in.shares["gc"]},
		metric{Name: "allocs_per_cell", Unit: "count", Value: perCell(in.mallocs)},
		metric{Name: "alloc_mb_per_cell", Unit: "MB", Value: perCell(in.allocBytes) / (1 << 20)},
		metric{Name: "sched.quanta_per_cell", Unit: "count", Value: in.quanta},
		metric{Name: "mm.reclaim_scans_per_cell", Unit: "count", Value: in.reclaimScans},
		metric{Name: "mm.refaults_per_cell", Unit: "count", Value: in.refaults},
		metric{Name: "mm.refault_ratio", Unit: "frac", Value: in.refaultRatio},
		metric{Name: "zram.pages_per_cell", Unit: "count", Value: in.zramPages},
		metric{Name: "io.pages_per_cell", Unit: "count", Value: in.ioPages},
		metric{Name: "android.frames_per_cell", Unit: "count", Value: in.frames},
		metric{Name: "lmk.kills_per_cell", Unit: "count", Value: in.lmkKills},
		metric{Name: "service.cache.hit_ratio", Unit: "frac", Value: in.hitRatio},
		metric{Name: "service.store.disk_hits_per_job", Unit: "1/job", Value: in.diskHits},
		metric{Name: "service.cache.peer_hits_per_job", Unit: "1/job", Value: in.peerHits},
		metric{Name: "service.cache.peer_misses_per_job", Unit: "1/job", Value: in.peerMisses},
		metric{Name: "service.hit_jobs_per_s", Unit: "jobs/s", Value: in.hitJobsPerS},
		metric{Name: "shard.leases_per_job", Unit: "count", Value: in.leasesPerJob},
		metric{Name: "shard.remote_cell_share", Unit: "frac", Value: in.remoteShare},
		metric{Name: "shard.requeues", Unit: "count", Value: float64(in.requeues)},
		metric{Name: "shard.peer_failures", Unit: "count", Value: float64(in.peerFailures)},
		metric{Name: "tracing_overhead_frac", Unit: "frac", Value: in.overhead},
	)
	return out
}

// writeTrace writes the spans and the raw CPU profile of a traced run.
func writeTrace(cfg config, spans []span, profile []byte) (string, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("icebench-%s-%d", cfg.workload, cfg.seed))
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		return "", err
	}
	if err := os.WriteFile(base+".trace.json", buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	if err := os.WriteFile(base+".cpu.pprof", profile, 0o644); err != nil {
		return "", err
	}
	return base + ".trace.json", nil
}

// spanSelfTimes renders the per-layer span self times as a note.
func spanSelfTimes(spans []span) string {
	st := selfTime(spans)
	names := make([]string, 0, len(st))
	for k := range st {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%.3fs", k, st[k].Seconds())
	}
	return "span self time: " + strings.Join(parts, " ")
}
