package experiments

// registry.go is the single authoritative name → runner table. Both
// cmd/experiments (the CLI) and internal/service (the icesimd daemon)
// address experiments through it, so the two front-ends can never
// drift: registering a runner here makes it reachable from both.

// Runner is one registered experiment: a stable ID, a one-line
// description, a human-readable sketch of the run-matrix axes, the scale
// options it reads, and the execution function. Exec returns the
// paper-style textual renderer plus the structured result for JSON
// output.
type Runner struct {
	ID   string
	Desc string
	// Axes sketches the cell matrix the runner sweeps ("device ×
	// scenario × scheme × round"); `experiments -list` and the daemon's
	// GET /experiments both surface it as the parameter schema.
	Axes string
	// Reads is the set of scale options the runner reads. It ignores the
	// others, so the icesimd daemon keys a job as if they were unset.
	Reads Scale
	exec  func(Options) (func() string, interface{}, error)
}

// Scale is a set of the scale options Options.Rounds and Options.Duration.
type Scale uint8

// The scale options.
const (
	ScaleRounds Scale = 1 << iota
	ScaleDuration
)

// Run executes the experiment with the given options.
func (r Runner) Run(o Options) (render func() string, data interface{}, err error) {
	return r.exec(o)
}

// registry lists every experiment in paper order. IDs are part of the
// public CLI and HTTP surface; never reuse or rename one.
var registry = []Runner{
	{"table1", "CPU utilisation vs cached BG apps", "device(P20) × bg-count{0,2,4,6,8} × round",
		ScaleRounds,
		func(o Options) (func() string, interface{}, error) {
			r, err := Table1(o)
			return r.String, r, err
		}},
	{"fig1", "FPS per scenario and BG case", "device(P20) × scenario × bg-case × round",
		ScaleRounds | ScaleDuration,
		func(o Options) (func() string, interface{}, error) {
			r, err := Figure1(o)
			return r.String, r, err
		}},
	{"fig2a", "reclaim/refault totals per BG case", "device(P20) × scenario × bg-case × round",
		ScaleRounds | ScaleDuration,
		func(o Options) (func() string, interface{}, error) {
			r, err := Figure1(o)
			return r.Figure2aString, r, err
		}},
	{"fig2b", "frame rate vs BG-refault deciles", "device(P20) × scenario × round, 30 s windows",
		ScaleRounds | ScaleDuration,
		func(o Options) (func() string, interface{}, error) {
			r, err := Figure2b(o)
			return r.String, r, err
		}},
	{"fig3", "user study: refault ratio and BG share", "user(8) × device × day",
		0,
		func(o Options) (func() string, interface{}, error) {
			r, err := Figure3(o)
			return r.String, r, err
		}},
	{"fig4", "per-process reclaim refault categorisation", "device(P20) × app(40)",
		0,
		func(o Options) (func() string, interface{}, error) {
			r, err := Figure4(o)
			return r.String, r, err
		}},
	{"fig8", "FPS/RIA per scheme, scenario, device", "device{Pixel3,P20} × scenario × scheme × round",
		ScaleRounds | ScaleDuration,
		func(o Options) (func() string, interface{}, error) {
			r, err := Figure8(o)
			return r.String, r, err
		}},
	{"fig9", "FPS/RIA vs number of cached apps", "device{Pixel3,P20} × scenario × scheme × bg-count × round",
		ScaleRounds | ScaleDuration,
		func(o Options) (func() string, interface{}, error) {
			r, err := Figure9(o)
			return r.String, r, err
		}},
	{"fig10", "refault/reclaim per scheme", "device(P20) × scenario × scheme × round",
		ScaleRounds | ScaleDuration,
		func(o Options) (func() string, interface{}, error) {
			r, err := Figure10(o)
			return r.String, r, err
		}},
	{"table5", "power-manager freezing vs Ice", "device(P20) × scenario × scheme × round",
		ScaleRounds | ScaleDuration,
		func(o Options) (func() string, interface{}, error) {
			r, err := Figure10(o)
			return r.Table5String, r, err
		}},
	{"pressure", "I/O and CPU pressure reduction", "device(P20) × scenario × scheme{LRU+CFS,Ice} × round",
		ScaleRounds | ScaleDuration,
		func(o Options) (func() string, interface{}, error) {
			r, err := SystemPressure(o)
			return r.String, r, err
		}},
	{"fig11", "application launching (speed, hot-launch ratio)", "device(P20) × scheme{LRU+CFS,Ice} × round, 20-app launch loop",
		0,
		func(o Options) (func() string, interface{}, error) {
			r, err := Figure11(o)
			return r.String, r, err
		}},
	{"ablations", "ICE design-point ablations", "device(P20) × scenario × variant × round",
		ScaleRounds | ScaleDuration,
		func(o Options) (func() string, interface{}, error) {
			r, err := Ablations(o)
			return r.String, r, err
		}},
	{"policy-sweep", "all registered schemes × memory size × codec", "device{Pixel3,P20} × scheme(registry) × zram-codec{lz4,zstd} × round",
		ScaleRounds | ScaleDuration,
		func(o Options) (func() string, interface{}, error) {
			r, err := PolicySweep(o)
			return r.String, r, err
		}},
}

// Registry returns every registered experiment in paper order. The
// returned slice is a copy; callers may reorder it freely.
func Registry() []Runner {
	out := make([]Runner, len(registry))
	copy(out, registry)
	return out
}

// ByID returns the runner registered under id.
func ByID(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs returns the registered experiment IDs in paper order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, r := range registry {
		ids[i] = r.ID
	}
	return ids
}
