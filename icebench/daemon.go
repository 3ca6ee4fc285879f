package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/service"
)

// Job classes of the daemon workload, named by the tier that must
// answer them.
const (
	classCold = iota // new spec: simulated, chunks leased by the worker
	classMem         // answered from the coordinator's memory tier
	classDisk        // answered from the coordinator's disk tier
	classPeer        // answered from the worker's cache over HTTP
	numClasses
)

var classNames = [numClasses]string{"cold", "mem_hit", "disk_hit", "peer_hit"}

// deck is the class mix of one deck of requests: one cold job and one
// hit of each tier per client. Whole decks keep the per-class shares
// exact in every run. Nothing in the repository says how often
// icesimd's callers hit each tier, so every class gets an equal share:
// an unverified assumption (see README.md).
var deck = [numClasses]int{classCold: 2, classMem: 2, classDisk: 2, classPeer: 2}

const (
	// coldRounds cells per cold job; with one-cell chunks the worker
	// leases part of every cold job.
	coldRounds = 6
	// warmupDecks run unmeasured before the first measured window, so
	// the measured windows start with a settled heap and full tiers.
	warmupDecks = 4
	// rateGroup consecutive decks make one sample of each rate.
	rateGroup = 2
	// Pool sizes. Every deck adds six entries to the coordinator's
	// memory tier (two cold results and four promotions). Disk entries
	// are reused round-robin: coordCacheEntries is small enough that a
	// disk hit's promotion has left the memory tier before the same spec
	// comes round again, yet large enough that the memPool specs, touched
	// every other deck, never leave it. Peer and cold specs are used once
	// each; a run that exhausts either pool ends its measured window early.
	// A run of 15 s (BENCHMARK.json's run_seconds) ends about 76 decks in,
	// warm-up included, so peerPool leaves room for a daemon twice as
	// fast; the worker's memory tier holds all of it.
	memPool           = 4
	diskPool          = 48
	peerPool          = 300
	coldPool          = 600
	coordCacheEntries = 32
)

// daemonSpecs builds the first n pool entries of a class from the
// workload seed. The shapes are the run specs ci.sh submits to icesimd:
// a cold job is the spec its sharded leg splits between a coordinator
// and a worker (Pixel3, S-C, Ice, 2 s windows, 6 rounds), and a hit
// entry is the spec its smoke leg resubmits for a memory hit and, after
// a restart on the same state dir, for a disk hit (the same, one round).
// Entries differ only in their seeds.
func daemonSpecs(seed int64, class, n int) []service.JobSpec {
	rounds := 1
	if class == classCold {
		rounds = coldRounds
	}
	specs := make([]service.JobSpec, n)
	for i := range specs {
		specs[i] = service.JobSpec{
			Kind:        service.KindRun,
			Device:      "Pixel3",
			Scenario:    "S-C",
			Scheme:      "Ice",
			DurationSec: 2,
			Rounds:      rounds,
			// Distinct seeds per class keep every pool disjoint.
			Seed: int64(class+1)<<40 | int64(i+1)<<20 | (seed & (1<<20 - 1)),
		}
	}
	return specs
}

// node is one in-process icesimd: a Manager behind service.NewServer on
// a loopback listener.
type node struct {
	m    *service.Manager
	srv  *http.Server
	url  string
	done chan struct{}
}

func startNode(cfg service.Config) (*node, error) {
	m, err := service.OpenManager(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Drain(context.Background())
		return nil, err
	}
	n := &node{m: m, srv: &http.Server{Handler: service.NewServer(m)}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		n.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n, nil
}

// close drains the manager, then stops the server and waits for it.
func (n *node) close() {
	n.m.Drain(context.Background())
	n.srv.Close()
	<-n.done
}

// jobOutcome is one job as a client saw it. Only the digest of the
// result bytes is kept, not the bytes.
type jobOutcome struct {
	cached  bool
	state   string
	digest  string        // of the result bytes, or failedDigest
	total   time.Duration // POST /jobs → last result byte
	submit  time.Duration // the POST itself
	wait    time.Duration // stream until the terminal event (cold only)
	result  time.Duration // GET /jobs/{id}/result
	end     time.Time     // when the last result byte arrived
	elapsed float64       // the job's own elapsed_ms (cold only)
	failed  int           // failed cells
}

// runJob submits spec over HTTP and streams it to completion, the way an
// icesimd caller does, then fetches and digests the result bytes. When
// corrupt is set, the first job to read a result clears it and flips one
// byte before digesting (the self-test of the output check).
func runJob(ctx context.Context, c *http.Client, base string, spec service.JobSpec, tr *tracer, req string, corrupt *atomic.Bool) (jobOutcome, error) {
	out := jobOutcome{digest: failedDigest}
	jobID := tr.newID()
	start := time.Now()
	body, _ := json.Marshal(spec) // plain data; cannot fail
	t := time.Now()
	resp, err := httpDo(ctx, c, http.MethodPost, base+"/jobs", body)
	if err != nil {
		return out, err
	}
	if resp.status != http.StatusAccepted {
		return out, fmt.Errorf("POST /jobs: status %d: %s", resp.status, resp.body)
	}
	out.submit = time.Since(t)
	tr.add(span{Name: "POST /jobs", Layer: "service", Parent: jobID, Req: req, Start: t, End: t.Add(out.submit)})
	var view service.JobView
	if err := json.Unmarshal(resp.body, &view); err != nil {
		return out, fmt.Errorf("POST /jobs: %w", err)
	}
	out.cached, out.state = view.Cached, view.State
	if view.State != service.StateDone {
		t = time.Now()
		ev, err := streamToEnd(ctx, c, base+"/jobs/"+view.ID+"/stream")
		if err != nil {
			return out, err
		}
		out.wait = time.Since(t)
		tr.add(span{Name: "GET /jobs/{id}/stream", Layer: "service", Parent: jobID, Req: req, Start: t, End: t.Add(out.wait)})
		out.state, out.elapsed, out.failed = ev.State, ev.ElapsedMs, ev.FailedCells
	}
	if out.state != service.StateDone {
		out.total = time.Since(start)
		out.end = start.Add(out.total)
		tr.add(span{ID: jobID, Name: "job", Layer: "job", Req: req, Start: start, End: start.Add(out.total)})
		return out, nil
	}
	t = time.Now()
	resp, err = httpDo(ctx, c, http.MethodGet, base+"/jobs/"+view.ID+"/result", nil)
	if err != nil {
		return out, err
	}
	out.result = time.Since(t)
	out.total = time.Since(start)
	out.end = start.Add(out.total)
	tr.add(span{Name: "GET /jobs/{id}/result", Layer: "service", Parent: jobID, Req: req, Start: t, End: t.Add(out.result)})
	tr.add(span{ID: jobID, Name: "job", Layer: "job", Req: req, Start: start, End: start.Add(out.total)})
	if resp.status != http.StatusOK {
		return out, fmt.Errorf("GET result: status %d: %s", resp.status, resp.body)
	}
	if b := resp.body; len(b) > 0 && corrupt != nil && corrupt.CompareAndSwap(true, false) {
		b[len(b)/2] ^= 1
	}
	out.digest = digest(resp.body)
	return out, nil
}

type httpResp struct {
	status int
	body   []byte
}

func httpDo(ctx context.Context, c *http.Client, method, url string, body []byte) (httpResp, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return httpResp{}, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return httpResp{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return httpResp{}, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return httpResp{status: resp.StatusCode, body: b}, nil
}

// streamToEnd reads the job's NDJSON stream and returns its terminal
// event.
func streamToEnd(ctx context.Context, c *http.Client, url string) (service.StreamEvent, error) {
	var last service.StreamEvent
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return last, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return last, fmt.Errorf("GET stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return last, fmt.Errorf("stream event: %w", err)
		}
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	switch last.State {
	case service.StateDone, service.StateFailed, service.StateCancelled:
		return last, nil
	}
	return last, fmt.Errorf("stream ended in state %q", last.State)
}

// failedDigest stands for the bytes of a job that ended without a
// result (a simulated cell panicked). A reference path that fails the
// same job agrees with it; the job still counts as failed.
const failedDigest = "failed"

// twoClients calls fn(i) for every i in [0, n) from two goroutines, each
// taking the next i once its previous call returned: a closed loop of two
// clients.
func twoClients(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for cl := 0; cl < 2; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runSpecs runs every spec on the node with two concurrent clients and
// returns the digest of each result (failedDigest for a failed job).
func runSpecs(ctx context.Context, c *http.Client, base string, specs []service.JobSpec) ([]string, error) {
	out := make([]string, len(specs))
	var mu sync.Mutex
	var firstErr error
	twoClients(len(specs), func(i int) {
		o, err := runJob(ctx, c, base, specs[i], nil, "", nil)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		out[i] = o.digest
	})
	return out, firstErr
}

// daemonEnv is one set-up of the daemon workload: a fresh state dir, a
// worker peer holding the peer pool, and a coordinator whose disk tier
// holds the disk pool (written by an earlier Manager on the same state
// dir) and whose memory tier holds the mem pool.
type daemonEnv struct {
	dir         string
	worker      *node
	coord       *node
	client      *http.Client
	pools       [numClasses][]service.JobSpec
	poolDigests [numClasses][]string // digests of the bytes each warmed entry was created with
	consumed    [numClasses]int      // pool entries handed out so far
}

func setupDaemon(ctx context.Context, seed int64, baseDir string) (_ *daemonEnv, err error) {
	if err := os.MkdirAll(baseDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(baseDir, "icebench-state-")
	if err != nil {
		return nil, err
	}
	env := &daemonEnv{dir: dir, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	env.pools[classCold] = daemonSpecs(seed, classCold, coldPool)
	env.pools[classMem] = daemonSpecs(seed, classMem, memPool)
	env.pools[classDisk] = daemonSpecs(seed, classDisk, diskPool)
	env.pools[classPeer] = daemonSpecs(seed, classPeer, peerPool)

	warm := func(n *node, class int) error {
		digests, err := runSpecs(ctx, env.client, n.url, env.pools[class])
		if err != nil {
			return fmt.Errorf("warm %s pool: %w", classNames[class], err)
		}
		for i, d := range digests {
			if d == failedDigest {
				return fmt.Errorf("warm %s pool: entry %d failed", classNames[class], i)
			}
		}
		env.poolDigests[class] = digests
		return nil
	}

	// An earlier Manager on the same state dir writes the disk pool
	// while the worker warms the peer pool; the coordinator then boots
	// from the state dir, so the disk entries are on its disk only.
	seeder, err := startNode(service.Config{MaxWorkers: 1, MaxQueuedJobs: diskPool, StateDir: dir, Node: "seeder"})
	if err != nil {
		return nil, err
	}
	if env.worker, err = startNode(service.Config{MaxWorkers: 1, MaxQueuedJobs: peerPool, CacheEntries: peerPool, WorkerEndpoint: true, Role: "worker", Node: "worker"}); err != nil {
		seeder.close()
		return nil, err
	}
	seedErr := make(chan error, 1)
	go func() {
		err := warm(seeder, classDisk)
		seeder.close()
		seedErr <- err
	}()
	err = warm(env.worker, classPeer)
	if serr := <-seedErr; err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	env.coord, err = startNode(service.Config{
		MaxWorkers: 1, StateDir: dir, CacheEntries: coordCacheEntries,
		Peers: []string{env.worker.url[len("http://"):]}, ShardChunkCells: 1,
		Role: "coordinator", Node: "coordinator",
	})
	if err != nil {
		return nil, err
	}
	if n := env.coord.m.ProbePeers(ctx); n != 1 {
		return nil, fmt.Errorf("coordinator sees %d healthy peers, want 1", n)
	}
	if err := warm(env.coord, classMem); err != nil {
		return nil, err
	}
	return env, nil
}

// close stops every node and removes the state dir. The pools and
// their digests stay readable; closing twice is a no-op.
func (e *daemonEnv) close() {
	if e.coord != nil {
		e.coord.close()
		e.coord = nil
	}
	if e.worker != nil {
		e.worker.close()
		e.worker = nil
	}
	e.client.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

// metricsSnapshot fetches a node's structured /metrics.
func metricsSnapshot(ctx context.Context, c *http.Client, base string) (obs.Snapshot, error) {
	var s obs.Snapshot
	resp, err := httpDo(ctx, c, http.MethodGet, base+"/metrics?format=json", nil)
	if err != nil {
		return s, err
	}
	if resp.status != http.StatusOK {
		return s, fmt.Errorf("GET /metrics: status %d", resp.status)
	}
	return s, json.Unmarshal(resp.body, &s)
}

// counterDelta returns after − before for a counter (0 when absent).
func counterDelta(before, after obs.Snapshot, name string) uint64 {
	a, _ := after.Counter(name)
	b, _ := before.Counter(name)
	return a - b
}

// request is one job of a deck.
type request struct {
	class int
	spec  service.JobSpec
	index int // position in its pool
}

// nextDeck draws the next deck from the pools, continuing where set-up
// and earlier windows left off: cold and peer specs are used once each,
// disk specs round-robin, mem specs cyclically. The hits come in a
// seeded order. It reports false once the cold or peer pool has run dry.
func (e *daemonEnv) nextDeck(rng *rand.Rand) (cold, hits []request, ok bool) {
	for _, c := range []int{classCold, classPeer} {
		if e.consumed[c]+deck[c] > len(e.pools[c]) {
			return nil, nil, false
		}
	}
	for c, n := range deck {
		for k := 0; k < n; k++ {
			i := e.consumed[c] % len(e.pools[c])
			e.consumed[c]++
			r := request{class: c, spec: e.pools[c][i], index: i}
			if c == classCold {
				cold = append(cold, r)
			} else {
				hits = append(hits, r)
			}
		}
	}
	rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
	return cold, hits, true
}

// deckTime is when one deck's phases ran, and the process CPU time at
// its start and end. The first deck of each rate group of an untraced
// window also records the calibration run right before it.
type deckTime struct {
	start, hits, end time.Time
	cpuStart, cpuEnd time.Duration
	cal              time.Duration
}

// daemonWindow is what one window of the daemon produced.
type daemonWindow struct {
	jobs      []jobOutcome
	reqs      []request
	decks     []deckTime
	start     time.Time
	wall      time.Duration
	exhausted bool
	before    [2]obs.Snapshot // coordinator, worker
	after     [2]obs.Snapshot
	errs      []error
}

// runDaemonWindow drives the closed loop deck by deck, until length has
// passed (finishing the current deck, and running at least one rate
// group) or maxDecks decks are done. A deck
// is two phases, each run by two clients that stream a job to completion
// before sending their next: the cold jobs, then the hits. The clients
// enter each phase together, so no hit overlaps a simulation: with both
// cores simulating, a hit mostly times its wait for a core (tens of
// milliseconds) rather than the hit path. Spans go to tr (nil when
// untraced); corrupt is passed to runJob.
func runDaemonWindow(ctx context.Context, env *daemonEnv, seed int64, length time.Duration, maxDecks int, tr *tracer, corrupt *atomic.Bool) (daemonWindow, error) {
	var w daemonWindow
	var err error
	for i, n := range []*node{env.coord, env.worker} {
		if w.before[i], err = metricsSnapshot(ctx, env.client, n.url); err != nil {
			return w, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	phase := func(reqs []request) {
		twoClients(len(reqs), func(i int) {
			r := reqs[i]
			o, err := runJob(ctx, env.client, env.coord.url, r.spec, tr, fmt.Sprintf("d%d/%s/%d", len(w.decks), classNames[r.class], r.index), corrupt)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				w.errs = append(w.errs, err)
				return
			}
			w.jobs = append(w.jobs, o)
			w.reqs = append(w.reqs, r)
		})
	}
	w.start = time.Now()
	deadline := w.start.Add(length)
	for (maxDecks > 0 && len(w.decks) < maxDecks) || (maxDecks <= 0 && (len(w.decks) < rateGroup || time.Now().Before(deadline))) {
		cold, hits, ok := env.nextDeck(rng)
		if !ok {
			w.exhausted = true
			break
		}
		var cal time.Duration
		if tr == nil && len(w.decks)%rateGroup == 0 {
			cal = calibrate()
		}
		d := deckTime{start: time.Now(), cpuStart: cpuTime(), cal: cal}
		phase(cold)
		d.hits = time.Now()
		phase(hits)
		d.end, d.cpuEnd = time.Now(), cpuTime()
		w.decks = append(w.decks, d)
	}
	w.wall = time.Since(w.start)
	for i, n := range []*node{env.coord, env.worker} {
		if w.after[i], err = metricsSnapshot(ctx, env.client, n.url); err != nil {
			return w, err
		}
	}
	return w, nil
}

// referenceDigests derives the bytes of specs through an independent
// path: a fresh single-node Manager with no peers and no state dir.
func referenceDigests(ctx context.Context, specs []service.JobSpec) ([]string, error) {
	n, err := startNode(service.Config{MaxWorkers: 2, MaxQueuedJobs: len(specs) + 1, Node: "reference"})
	if err != nil {
		return nil, err
	}
	defer n.close()
	c := &http.Client{}
	defer c.CloseIdleConnections()
	out, err := runSpecs(ctx, c, n.url, specs)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return out, nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// runDaemon is one invocation of the daemon workload.
func runDaemon(cfg config) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{correct: true}
	var setups, setupWalls []float64
	var env *daemonEnv
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.close()
		}
		cal := calibrate()
		t, c := time.Now(), cpuTime()
		var err error
		if env, err = setupDaemon(ctx, cfg.seed, cfg.out); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupWalls = append(setupWalls, time.Since(t).Seconds())
		setups = append(setups, scaledMs(cpuTime()-c, cal)/1000)
	}
	defer env.close()

	// Unmeasured warm-up decks, cold jobs and leases included, so the
	// measured windows run at steady state. Their bytes are checked too.
	warmup, err := runDaemonWindow(ctx, env, cfg.seed, 0, warmupDecks, nil, nil)
	if err != nil {
		return nil, err
	}
	var corrupt atomic.Bool
	corrupt.Store(cfg.corrupt)
	win, err := runDaemonWindow(ctx, env, cfg.seed, cfg.window(), cfg.maxDecks, nil, &corrupt)
	if err != nil {
		return nil, err
	}
	// Read before the traced window and the reference work, which would
	// otherwise count in the untraced run's peak.
	peakRSS := peakRSSMB()
	var twin daemonWindow
	var tr *tracer
	var shares map[string]float64
	var mallocs, allocBytes uint64
	var raw []byte
	if cfg.traced {
		tr = &tracer{}
		prof, err := startProfiler()
		if err != nil {
			return nil, err
		}
		twin, err = runDaemonWindow(ctx, env, cfg.seed, cfg.window(), cfg.maxDecks, tr, nil)
		var perr error
		shares, mallocs, allocBytes, raw, perr = prof.stop()
		if err != nil {
			return nil, err
		}
		if perr != nil {
			return nil, perr
		}
	}
	env.close()

	// References: every cold spec a window used, and the mem pool (which
	// the coordinator built), re-derived on a single node.
	var refSpecs []service.JobSpec
	refSpecs = append(refSpecs, env.pools[classMem]...)
	coldUsed := max(env.consumed[classCold], pinnedColdJobs)
	refSpecs = append(refSpecs, env.pools[classCold][:coldUsed]...)
	refs, err := referenceDigests(ctx, refSpecs)
	if err != nil {
		return nil, err
	}
	memRefs, coldRefs := refs[:memPool], refs[memPool:]
	for i, d := range env.poolDigests[classMem] {
		if d != memRefs[i] {
			o.problem("mem pool entry %d: coordinator bytes differ from the single-node reference", i)
		}
	}
	if pin, ok := pinnedDigest("daemon", cfg.seed); ok {
		if got := poolPin(env.poolDigests, coldRefs); got != pin {
			o.problem("pinned digest %.16s…, got %.16s…", pin, got)
		}
	} else {
		o.notes = append(o.notes, "references derived on a single-node daemon (seed not pinned)")
	}
	warmup.check(o, env, coldRefs, "warm-up")
	win.check(o, env, coldRefs, "untraced")
	if cfg.traced {
		twin.check(o, env, coldRefs, "traced")
	}

	r := win.rates()
	o.e2e = []metric{
		{Name: "setup_s", Unit: "s", Value: median(setups), N: len(setups)},
		{Name: "ref_cpu_ms_per_cell", Unit: "ms", Value: r.refCPUPerCell, N: r.groups},
		{Name: "peak_rss_mb", Unit: "MB", Value: peakRSS},
	}
	// The raw rates are reported, not gated: on a shared host they drift
	// with the other tenants (see README.md).
	o.detail = append([]metric{
		{Name: "setup_wall_s", Unit: "s", Value: median(setupWalls), N: len(setupWalls)},
		{Name: "cells_per_s", Unit: "cells/s", Value: r.cellsPerS, N: r.groups},
		{Name: "cpu_ms_per_cell", Unit: "ms", Value: r.cpuPerCell, N: r.groups},
		{Name: "calibration_ms", Unit: "ms", Value: r.calibration, N: r.groups},
		{Name: "service.hit_jobs_per_s", Unit: "jobs/s", Value: r.hitsPerS, N: r.groups},
	}, win.detail()...)
	if win.exhausted || twin.exhausted {
		o.notes = append(o.notes, "a request pool ran dry before the measuring time ended")
	}
	if !cfg.traced {
		return o, nil
	}
	twin.layer(o, win, shares, mallocs, allocBytes)
	path, err := writeTrace(cfg, tr.spans, raw)
	if err != nil {
		return nil, err
	}
	o.notes = append(o.notes, spanSelfTimes(tr.spans), "trace written to "+path)
	return o, nil
}

// daemonRates are a window's rates, each the median over groups of
// rateGroup consecutive decks, so a short stall of the shared host moves
// one group, not the run's figure.
type daemonRates struct {
	cellsPerS     float64 // cold cells per second of wall time
	cpuPerCell    float64 // process CPU ms per cold cell, the hit phases' CPU time included
	refCPUPerCell float64 // the same, scaled by the group's calibration
	calibration   float64 // ms
	// Hit jobs per second of hit-phase time. Cold jobs take nearly all of
	// the wall time, so a rate over wall time would not see the hit path.
	hitsPerS float64
	groups   int
}

func (w daemonWindow) rates() daemonRates {
	hits := 0
	for c := classMem; c < numClasses; c++ {
		hits += deck[c]
	}
	cells := float64(rateGroup * deck[classCold] * coldRounds)
	var cellRates, costs, refCosts, cals, hitRates []float64
	for g := 0; g+rateGroup <= len(w.decks); g += rateGroup {
		ds := w.decks[g : g+rateGroup]
		first, last := ds[0], ds[len(ds)-1]
		var hitTime time.Duration
		for _, d := range ds {
			hitTime += d.end.Sub(d.hits)
		}
		cpu := last.cpuEnd - first.cpuStart
		cellRates = append(cellRates, cells/last.end.Sub(first.start).Seconds())
		costs = append(costs, ms(cpu)/cells)
		if first.cal > 0 {
			refCosts = append(refCosts, scaledMs(cpu, first.cal)/cells)
			cals = append(cals, ms(first.cal))
		}
		hitRates = append(hitRates, float64(rateGroup*hits)/hitTime.Seconds())
	}
	return daemonRates{
		cellsPerS: median(cellRates), cpuPerCell: median(costs), refCPUPerCell: median(refCosts),
		calibration: median(cals), hitsPerS: median(hitRates), groups: len(cellRates),
	}
}

func (w daemonWindow) count(class int) int {
	n := 0
	for _, r := range w.reqs {
		if r.class == class {
			n++
		}
	}
	return n
}

// check verifies every job of the window: it ended done, without a
// transport error, with the cached flag its class implies, and with the
// bytes of its reference. Then it checks the tier counters.
func (w daemonWindow) check(o *outcome, env *daemonEnv, coldRefs []string, label string) {
	o.attempted += len(w.jobs) + len(w.errs)
	for _, err := range w.errs {
		o.problem("%s: %v", label, err)
	}
	o.failed += len(w.errs)
	var failedJobs uint64
	for i, j := range w.jobs {
		r := w.reqs[i]
		want := env.poolDigests[r.class]
		if r.class == classCold {
			want = coldRefs
		}
		got := j.digest
		switch {
		case got != want[r.index]:
			o.problem("%s %s job (pool entry %d): result bytes differ from the reference (%.16s…, reference %.16s…)",
				label, classNames[r.class], r.index, got, want[r.index])
		case j.cached != (r.class != classCold):
			o.problem("%s %s job (pool entry %d): cached=%v", label, classNames[r.class], r.index, j.cached)
		}
		if got == failedDigest {
			failedJobs++
			o.failed++
			o.notes = append(o.notes, fmt.Sprintf("%s %s job (pool entry %d) ended %s, as on the reference path", label, classNames[r.class], r.index, j.state))
		}
	}
	// Every class must have been answered by its tier: a cold job misses
	// all three.
	n := [numClasses]uint64{}
	for _, r := range w.reqs {
		n[r.class]++
	}
	coord := func(name string) uint64 { return counterDelta(w.before[0], w.after[0], name) }
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"service.cache.hits", n[classMem]},
		{"service.cache.misses", n[classDisk] + n[classPeer] + n[classCold]},
		{"service.store.disk_hits", n[classDisk]},
		{"service.store.disk_misses", n[classPeer] + n[classCold]},
		{"service.cache.peer_hits", n[classPeer]},
		{"service.cache.peer_misses", n[classCold]},
		{"service.jobs.failed", failedJobs},
	} {
		if got := coord(c.name); got != c.want {
			o.failed++
			o.problem("%s: %s delta %d, want %d", label, c.name, got, c.want)
		}
	}
}

// detail is the per-class latency report of the untraced window.
func (w daemonWindow) detail() []metric {
	var out []metric
	var queueWait, exec []float64
	for c := 0; c < numClasses; c++ {
		var total, submit, result []float64
		for i, j := range w.jobs {
			if w.reqs[i].class != c {
				continue
			}
			total = append(total, ms(j.total))
			submit = append(submit, ms(j.submit))
			result = append(result, ms(j.result))
			if c == classCold {
				exec = append(exec, j.elapsed)
				queueWait = append(queueWait, ms(j.submit+j.wait)-j.elapsed)
			}
		}
		out = append(out, percentiles("job_ms."+classNames[c], "ms", total)...)
		out = append(out,
			metric{Name: "service.submit_ms_p50." + classNames[c], Unit: "ms", Value: median(submit), N: len(submit)},
			metric{Name: "service.result_ms_p50." + classNames[c], Unit: "ms", Value: median(result), N: len(result)})
	}
	out = append(out,
		metric{Name: "service.queue_wait_ms_p50", Unit: "ms", Value: median(queueWait), N: len(queueWait)},
		metric{Name: "service.exec_ms_p50", Unit: "ms", Value: median(exec), N: len(exec)},
		metric{Name: "decks", Unit: "count", Value: float64(len(w.decks))},
		metric{Name: "window_s", Unit: "s", Value: w.wall.Seconds()})
	return out
}

// daemonCounts are a window's exact counts: the coordinator's cache-tier
// counter deltas and the simulated work both nodes folded into sim.*.
// Lease counts depend on steal timing and are not among them.
type daemonCounts struct {
	tiers [numClasses]uint64 // jobs each tier answered; cold: peer misses
	sim   cellCounts
	cells uint64 // harness.cell_us observations on both nodes
}

func (w daemonWindow) counts() daemonCounts {
	var c daemonCounts
	coord := func(name string) uint64 { return counterDelta(w.before[0], w.after[0], name) }
	c.tiers[classMem] = coord("service.cache.hits")
	c.tiers[classDisk] = coord("service.store.disk_hits")
	c.tiers[classPeer] = coord("service.cache.peer_hits")
	c.tiers[classCold] = coord("service.cache.peer_misses")
	for node := 0; node < 2; node++ {
		var d obs.Snapshot
		for _, ctr := range w.after[node].Counters {
			if strings.HasPrefix(ctr.Name, "sim.") {
				d.Counters = append(d.Counters, obs.CounterSample{
					Name: strings.TrimPrefix(ctr.Name, "sim."), Value: counterDelta(w.before[node], w.after[node], ctr.Name)})
			}
		}
		frames, _ := histDelta(w.before[node], w.after[node], "sim.frame.latency_us")
		d.Hists = append(d.Hists, obs.HistSample{Name: "frame.latency_us", Count: frames})
		c.sim.addSnapshot(d)
		n, _ := histDelta(w.before[node], w.after[node], "harness.cell_us")
		c.cells += n
	}
	c.sim.Cells = c.cells
	return c
}

func histDelta(before, after obs.Snapshot, name string) (count uint64, sum int64) {
	a, _ := after.Hist(name)
	b, _ := before.Hist(name)
	return a.Count - b.Count, a.Sum - b.Sum
}

// layer fills the per-layer block from the traced window (w); base is
// the untraced window, for the tracing overhead.
func (w daemonWindow) layer(o *outcome, base daemonWindow, shares map[string]float64, mallocs, allocBytes uint64) {
	coord := func(name string) uint64 { return counterDelta(w.before[0], w.after[0], name) }
	c := w.counts()
	baseRates, tracedRates := base.rates(), w.rates()
	var busyUs int64
	for node := 0; node < 2; node++ {
		_, us := histDelta(w.before[node], w.after[node], "harness.cell_us")
		busyUs += us
	}
	cold := uint64(w.count(classCold))
	in := layerInputs{
		cellBusy: time.Duration(busyUs) * time.Microsecond, workers: 2, wall: w.wall,
		shares: shares, cells: c.cells, mallocs: mallocs, allocBytes: allocBytes,
		hitJobsPerS:  tracedRates.hitsPerS,
		requeues:     coord("service.shard.requeues"),
		peerFailures: coord("service.shard.peer_failures"),
		overhead:     baseRates.cellsPerS/tracedRates.cellsPerS - 1,
	}
	for _, j := range w.jobs {
		in.cellsFailed += j.failed
	}
	// The tier rows are per job, from the counters: exact for a given
	// deck, so they move only if the tiers answer differently.
	if jobs := float64(len(w.jobs)); jobs > 0 {
		in.hitRatio = float64(c.tiers[classMem]+c.tiers[classDisk]+c.tiers[classPeer]) / jobs
		in.diskHits = float64(c.tiers[classDisk]) / jobs
		in.peerHits = float64(c.tiers[classPeer]) / jobs
		in.peerMisses = float64(c.tiers[classCold]) / jobs
	}
	if cold > 0 {
		in.leasesPerJob = float64(coord("service.shard.leases")) / float64(cold)
		in.remoteShare = float64(coord("service.shard.remote_cells")) / float64(cold*coldRounds)
	}
	c.sim.fill(&in)
	o.layer = in.metrics()
}
