package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/tenant"
)

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// nowFunc is the manager's clock (a seam, not configuration).
var nowFunc = time.Now

// Sentinel errors the HTTP layer maps onto status codes.
var (
	ErrDraining      = errors.New("service: draining, not accepting jobs")
	ErrQueueFull     = errors.New("service: job queue full")
	ErrNotFound      = errors.New("service: no such job")
	ErrQuotaExceeded = errors.New("service: principal queue quota exceeded")
	ErrForbidden     = errors.New("service: job belongs to another principal")
)

// BadSpecError wraps a spec validation failure (HTTP 400).
type BadSpecError struct{ Err error }

func (e *BadSpecError) Error() string { return "service: bad job spec: " + e.Err.Error() }
func (e *BadSpecError) Unwrap() error { return e.Err }

// Config tunes one Manager.
type Config struct {
	// MaxWorkers is the global cell budget shared by every running job
	// (<=0: GOMAXPROCS). No matter how many jobs run concurrently, at
	// most this many simulations are in flight.
	MaxWorkers int
	// MaxRunningJobs bounds jobs simulating concurrently (<=0: 2);
	// excess submissions queue.
	MaxRunningJobs int
	// MaxQueuedJobs bounds the queue (<=0: 64); beyond it Submit
	// returns ErrQueueFull.
	MaxQueuedJobs int
	// CacheEntries bounds the in-memory LRU result cache (<=0: 256).
	CacheEntries int
	// StateDir, when non-empty, backs the result cache with a
	// persistent disk store under this directory (see diskStore).
	// Empty keeps the daemon fully in-memory — today's behaviour,
	// byte-identical.
	StateDir string
	// CacheBytes bounds the disk store's payload bytes (<=0: 1 GiB).
	// Ignored without StateDir.
	CacheBytes int64
	// RetainTerminalJobs bounds how many terminal jobs are kept per
	// principal and state for Get/List/Result (<=0: 256). Older
	// terminal jobs are pruned; their payloads stay reachable through
	// the result cache and disk store by resubmitting the spec.
	RetainTerminalJobs int
	// Peers seeds the fleet membership with other icesimd daemons
	// ("host:port"). Seed members survive liveness pruning; runtime
	// members join via POST /internal/join (see shard.go). A node with
	// seed peers coordinates (see Role).
	Peers []string
	// WorkerEndpoint enables POST /internal/cells, letting a
	// coordinator assign this node cell ranges (icesimd -role worker).
	WorkerEndpoint bool
	// ShardChunkTimeout bounds one remote chunk dispatch attempt
	// (<=0: 5 minutes). On expiry the chunk is requeued and the next
	// puller — another peer or the local pool — runs it.
	ShardChunkTimeout time.Duration
	// ShardChunkCells caps how many cells one lease covers (<=0: the
	// matrix splits into about 16 chunks).
	ShardChunkCells int
	// PeerCacheTimeout bounds the fleet-wide cache consultation on a
	// local miss (<=0: 2 seconds). On expiry the job simulates.
	PeerCacheTimeout time.Duration
	// Role is the daemon's role ("node", "worker", "coordinator"); it
	// surfaces in /healthz and as the exposition's role const label.
	// Empty defaults to "node", and a node with seed Peers reports
	// "coordinator". A coordinator — Role "coordinator" or any node with
	// seed Peers — runs jobs with a lease queue that registered peers
	// pull chunks from, and consults peers' stores on a cache miss
	// before simulating.
	Role string
	// Node is the daemon's node name for /healthz and the exposition's
	// node const label. Empty defaults to the hostname.
	Node string
	// FleetScrapeTimeout bounds one peer scrape during GET
	// /fleet/metrics (<=0: 3 seconds). A peer that misses the deadline
	// reports ice_peer_up 0 instead of failing the fleet scrape.
	FleetScrapeTimeout time.Duration
	// AuthTokens is the principal registry (icesimd -auth-tokens). Nil
	// (or empty) runs the daemon open: every caller is the anonymous
	// principal and behaviour is identical to the pre-tenancy daemon.
	AuthTokens *tenant.Registry
	// PeerToken, when set, is attached as a bearer token to every
	// outbound peer call (shard dispatch, fleet scrape) so workers
	// running with -auth-tokens accept this coordinator.
	PeerToken string
}

// StreamEvent is one NDJSON/SSE progress line. Terminal events carry
// the final state (and error, if any); progress events mirror
// harness.Progress.
type StreamEvent struct {
	Job         string  `json:"job"`
	State       string  `json:"state"`
	Completed   int     `json:"completed"`
	Total       int     `json:"total"`
	FailedCells int     `json:"failed_cells,omitempty"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	EtaMs       float64 `json:"eta_ms,omitempty"`
	Cell        string  `json:"cell,omitempty"`
	Cached      bool    `json:"cached,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// JobView is a job's externally visible status snapshot.
type JobView struct {
	ID          string  `json:"id"`
	State       string  `json:"state"`
	Cached      bool    `json:"cached"`
	CacheKey    string  `json:"cache_key"`
	Completed   int     `json:"completed"`
	Total       int     `json:"total"`
	FailedCells int     `json:"failed_cells,omitempty"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	Error       string  `json:"error,omitempty"`
	HasTrace    bool    `json:"has_trace"`
	Principal   string  `json:"principal,omitempty"`
	Preemptions int     `json:"preemptions,omitempty"`
	Spec        JobSpec `json:"spec"`
}

// job is the Manager-internal record. All mutable fields are guarded by
// Manager.mu.
type job struct {
	id        string
	spec      JobSpec
	key       string
	principal string
	class     int // scheduling class (classInteractive/classBatch)
	cost      int // DRR cost (see jobCost)
	state     string
	cached    bool
	errMsg    string
	started   time.Time
	elapsed   time.Duration // accumulated across preemption segments
	progress  harness.Progress
	result    []byte
	trace     []byte
	cancel    context.CancelFunc
	// start is closed by the scheduler when the job is dispatched into
	// a running slot; run blocks on it. Made anew on every enqueue.
	start chan struct{}
	// partial holds completed cells' Sink payloads of a preemptible
	// (batch) run, keyed by cell index, for Prefill on resume.
	partial map[int][]byte
	// preempted marks a running job the scheduler cancelled to free a
	// slot; run requeues it instead of finishing. userCancel marks a
	// caller-requested cancel, which always wins over requeue.
	preempted   bool
	userCancel  bool
	preemptions int
	subs        map[int]chan StreamEvent
	nextSub     int
	done        chan struct{}
}

// Manager owns the daemon's jobs: authenticated submission, weighted-
// fair queueing across principals (see queue.go), execution under the
// global worker budget and per-principal cell quotas, preemption of
// batch work for interactive work, cancellation, progress fan-out, the
// two-tier result cache (in-memory LRU front, optional byte-budgeted
// disk store), bounded per-principal terminal-job retention, and
// graceful drain.
type Manager struct {
	cfg   Config
	slots chan struct{} // global cell budget
	httpc *http.Client  // shard dispatch, membership, health probes

	mu     sync.Mutex
	closed bool
	peers  []*peer // fleet membership: seed (-peers) + runtime joins
	// sessions holds every running job's steal session so membership
	// events (join, probe recovery) spawn lease loops into jobs that
	// are already running.
	sessions map[*stealSession]struct{}
	nextID   int
	jobs     map[string]*job
	order    []string // submission order for List
	fq       *fairQueue
	tenants  map[string]*tenantState
	cache    *lru[cacheEntry] // memory tier: each entry costs 1
	store    *diskStore       // nil without Config.StateDir
	// terminalByKey holds terminal job IDs per principal and state,
	// oldest first, for the retention policy — per-principal so one
	// tenant's churn cannot evict another tenant's history.
	terminalByKey map[string][]string
	wg            sync.WaitGroup

	// Instruments live on their own registry (obs instruments are not
	// atomic; every touch happens under mu). The store instruments are
	// registered only when a disk store is configured; obs instruments
	// are nil-safe, so the in-memory path pays one nil check.
	reg               *obs.Registry
	subCtr            *obs.Counter
	doneCtr           *obs.Counter
	failCtr           *obs.Counter
	cancelCtr         *obs.Counter
	preemptCtr        *obs.Counter
	requeueCtr        *obs.Counter
	authFailCtr       *obs.Counter
	cacheQuotaSkipCtr *obs.Counter
	hitCtr            *obs.Counter
	missCtr           *obs.Counter
	evictCtr          *obs.Counter
	entriesGauge      *obs.Gauge
	runningGauge      *obs.Gauge
	queuedGauge       *obs.Gauge
	retainedGauge     *obs.Gauge
	diskHitCtr        *obs.Counter
	diskMissCtr       *obs.Counter
	diskEvictCtr      *obs.Counter
	corruptCtr        *obs.Counter
	storeErrCtr       *obs.Counter
	oversizeCtr       *obs.Counter
	bootCtr           *obs.Counter
	diskBytes         *obs.Gauge
	diskEntries       *obs.Gauge
	// Shard instruments: the coordinator set is registered only on a
	// coordinator, the served set only with WorkerEndpoint; both
	// stay nil (and nil-safe) otherwise. peerCacheServedCtr is always
	// registered: any node may serve its cache to a coordinator.
	shardRemoteCtr      *obs.Counter
	shardStealCtr       *obs.Counter
	shardLeaseCtr       *obs.Counter
	shardRequeueCtr     *obs.Counter
	shardPeerFailCtr    *obs.Counter
	shardServedCtr      *obs.Counter
	shardServedCellsCtr *obs.Counter
	peerJoinCtr         *obs.Counter
	peerLeaveCtr        *obs.Counter
	peersGauge          *obs.Gauge
	peerCacheHitCtr     *obs.Counter
	peerCacheMissCtr    *obs.Counter
	peerCacheServedCtr  *obs.Counter
	// Process-level series the registry cannot see from inside a
	// simulation: uptime, Go runtime stats, GC pauses. Refreshed by
	// sampleProcessLocked on every Metrics snapshot; lastNumGC tracks
	// the PauseNs ring position between samples.
	start          time.Time
	uptimeGauge    *obs.Gauge
	goroutineGauge *obs.Gauge
	heapGauge      *obs.Gauge
	gcCyclesCtr    *obs.Counter
	gcPauseUs      *obs.Histogram
	lastNumGC      uint32
	// cellUs is the wall-clock latency distribution of locally executed
	// cells (coordinator-local and worker-served alike).
	cellUs *obs.Histogram
	// httpRoutes holds per-endpoint instrument triples, created at mux
	// wiring time (see server.go).
	httpRoutes map[string]*routeInstruments
}

// routeInstruments is the per-endpoint HTTP middleware instrument set.
type routeInstruments struct {
	requests  *obs.Counter
	errors    *obs.Counter
	latencyUs *obs.Histogram
}

// NewManager builds a Manager with its own instrument registry. It
// panics if Config.StateDir is set but cannot be initialised; daemons
// should use OpenManager and handle the error.
func NewManager(cfg Config) *Manager {
	m, err := OpenManager(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// OpenManager builds a Manager, opening (and scanning) the persistent
// result store when Config.StateDir is set.
func OpenManager(cfg Config) (*Manager, error) {
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxRunningJobs <= 0 {
		cfg.MaxRunningJobs = 2
	}
	if cfg.MaxQueuedJobs <= 0 {
		cfg.MaxQueuedJobs = 64
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.RetainTerminalJobs <= 0 {
		cfg.RetainTerminalJobs = 256
	}
	if cfg.ShardChunkTimeout <= 0 {
		cfg.ShardChunkTimeout = 5 * time.Minute
	}
	if cfg.PeerCacheTimeout <= 0 {
		cfg.PeerCacheTimeout = 2 * time.Second
	}
	if cfg.Role == "" {
		cfg.Role = "node"
	}
	if cfg.Role == "node" && len(cfg.Peers) > 0 {
		cfg.Role = "coordinator"
	}
	if cfg.Node == "" {
		if host, err := os.Hostname(); err == nil {
			cfg.Node = host
		} else {
			cfg.Node = "unknown"
		}
	}
	if cfg.FleetScrapeTimeout <= 0 {
		cfg.FleetScrapeTimeout = 3 * time.Second
	}
	reg := obs.NewRegistry()
	m := &Manager{
		cfg:               cfg,
		slots:             make(chan struct{}, cfg.MaxWorkers),
		httpc:             &http.Client{},
		sessions:          make(map[*stealSession]struct{}),
		fq:                newFairQueue(cfg.MaxRunningJobs),
		tenants:           make(map[string]*tenantState),
		jobs:              make(map[string]*job),
		cache:             newLRU[cacheEntry](int64(cfg.CacheEntries), nil),
		terminalByKey:     make(map[string][]string),
		reg:               reg,
		subCtr:            reg.Counter("service.jobs.submitted"),
		doneCtr:           reg.Counter("service.jobs.completed"),
		failCtr:           reg.Counter("service.jobs.failed"),
		cancelCtr:         reg.Counter("service.jobs.cancelled"),
		preemptCtr:        reg.Counter("service.sched.preemptions"),
		requeueCtr:        reg.Counter("service.sched.requeues"),
		authFailCtr:       reg.Counter("service.tenant.auth_failures"),
		cacheQuotaSkipCtr: reg.Counter("service.tenant.cache_quota_skipped"),
		hitCtr:            reg.Counter("service.cache.hits"),
		missCtr:           reg.Counter("service.cache.misses"),
		evictCtr:          reg.Counter("service.cache.evictions"),
		entriesGauge:      reg.Gauge("service.cache.entries"),
		runningGauge:      reg.Gauge("service.jobs.running"),
		queuedGauge:       reg.Gauge("service.jobs.queued"),
		retainedGauge:     reg.Gauge("service.jobs.retained"),
		start:             time.Now(),
		uptimeGauge:       reg.Gauge("process.uptime_seconds"),
		goroutineGauge:    reg.Gauge("process.goroutines"),
		heapGauge:         reg.Gauge("process.heap_bytes"),
		gcCyclesCtr:       reg.Counter("process.gc_cycles"),
		gcPauseUs:         reg.Histogram("process.gc_pause_us"),
		cellUs:            reg.Histogram("harness.cell_us"),
		httpRoutes:        make(map[string]*routeInstruments),
	}
	m.peerCacheServedCtr = reg.Counter("service.cache.peer_served")
	if m.coordinates() {
		m.shardRemoteCtr = reg.Counter("service.shard.remote_cells")
		m.shardStealCtr = reg.Counter("service.shard.steals")
		m.shardLeaseCtr = reg.Counter("service.shard.leases")
		m.shardRequeueCtr = reg.Counter("service.shard.requeues")
		m.shardPeerFailCtr = reg.Counter("service.shard.peer_failures")
		m.peerJoinCtr = reg.Counter("service.fleet.peer_joins")
		m.peerLeaveCtr = reg.Counter("service.fleet.peer_leaves")
		m.peersGauge = reg.Gauge("service.fleet.peers")
		m.peerCacheHitCtr = reg.Counter("service.cache.peer_hits")
		m.peerCacheMissCtr = reg.Counter("service.cache.peer_misses")
		for _, addr := range cfg.Peers {
			m.addPeerLocked(addr, true)
		}
	}
	if cfg.WorkerEndpoint {
		m.shardServedCtr = reg.Counter("service.shard.served")
		m.shardServedCellsCtr = reg.Counter("service.shard.served_cells")
	}
	if cfg.StateDir != "" {
		store, boot, err := openDiskStore(cfg.StateDir, cfg.CacheBytes, codeVersion())
		if err != nil {
			return nil, err
		}
		m.store = store
		m.diskHitCtr = reg.Counter("service.store.disk_hits")
		m.diskMissCtr = reg.Counter("service.store.disk_misses")
		m.diskEvictCtr = reg.Counter("service.store.evictions")
		m.corruptCtr = reg.Counter("service.store.corrupt_quarantined")
		m.storeErrCtr = reg.Counter("service.store.write_errors")
		m.oversizeCtr = reg.Counter("service.store.oversize_skipped")
		m.bootCtr = reg.Counter("service.store.loaded_at_boot")
		m.diskBytes = reg.Gauge("service.store.bytes")
		m.diskEntries = reg.Gauge("service.store.entries")
		m.bootCtr.Add(uint64(boot.Loaded))
		m.corruptCtr.Add(uint64(boot.Quarantined))
		m.diskEvictCtr.Add(uint64(boot.Evicted))
		m.diskBytes.Set(store.totalBytes())
		m.diskEntries.Set(int64(store.len()))
	}
	return m, nil
}

// coordinates reports whether this node dispatches its jobs' chunks to
// peers and consults their stores on a cache miss: its role is
// coordinator, or it has seed peers.
func (m *Manager) coordinates() bool {
	return m.cfg.Role == "coordinator" || len(m.cfg.Peers) > 0
}

// Metrics snapshots the service instrument registry, refreshing the
// process-level series first so every scrape sees current runtime
// state.
func (m *Manager) Metrics() obs.Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sampleProcessLocked()
	return m.reg.Snapshot()
}

// foldSim aggregates one locally executed cell's instrument snapshot
// into the service registry under the "sim." prefix: counters add,
// gauges take the latest cell's level, histograms merge bucket-exact.
// The harness calls it (via ExecHooks.ObsSink) only for cells this
// process executed, so a fleet aggregation over coordinator and workers
// never counts a cell twice.
func (m *Manager) foldSim(snap obs.Snapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range snap.Counters {
		m.reg.Counter("sim." + c.Name).Add(c.Value)
	}
	for _, g := range snap.Gauges {
		m.reg.Gauge("sim." + g.Name).Set(g.Value)
	}
	for _, h := range snap.Hists {
		m.reg.Histogram("sim." + h.Name).Absorb(h)
	}
}

// Submit validates and enqueues a job as the anonymous principal — the
// open-mode entry point, and the pre-tenancy API surface.
func (m *Manager) Submit(spec JobSpec) (JobView, error) {
	return m.SubmitAs(spec, tenant.AnonymousName)
}

// SubmitAs validates and enqueues a job on behalf of a principal. A
// cache hit returns a job that is already done — state "done", Cached
// true — without simulating or consuming any queue quota; the stored
// payload is served byte-identical to the first run's. A miss admits
// the job against the global queue bound (ErrQueueFull) and the
// principal's max-queued quota (ErrQuotaExceeded), then hands it to
// the fair scheduler.
func (m *Manager) SubmitAs(spec JobSpec, principal string) (JobView, error) {
	if err := spec.normalize(); err != nil {
		return JobView{}, &BadSpecError{Err: err}
	}
	key := CacheKey(spec, codeVersion())

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobView{}, ErrDraining
	}
	m.subCtr.Inc()
	ts := m.tenantLocked(principal)
	ts.submittedCtr.Inc()
	m.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%d", m.nextID),
		spec:      spec,
		key:       key,
		principal: principal,
		class:     classOf(spec),
		cost:      jobCost(spec),
		subs:      map[int]chan StreamEvent{},
		done:      make(chan struct{}),
	}

	// A verified disk hit is promoted into the memory tier and served
	// exactly like a memory hit; a corrupted entry has been quarantined
	// and the job simulates afresh.
	entry, tier := m.lookupLocked(key)
	switch tier {
	case tierMemory:
		m.hitCtr.Inc()
	case tierDisk:
		m.missCtr.Inc()
		m.diskHitCtr.Inc()
		m.admitLocked(key, entry)
	default:
		m.missCtr.Inc()
		m.diskMissCtr.Inc() // nil without a disk store
	}

	// Both local tiers missed: on a coordinator, ask registered peers'
	// stores before simulating. The lookup runs off-lock (it blocks on
	// the network, bounded by PeerCacheTimeout); a fully verified hit
	// is promoted into both local tiers — attributed to the submitting
	// principal like any result this node produced — and served
	// byte-identical without simulating a single cell.
	if tier == tierNone && m.coordinates() && len(m.peers) > 0 {
		m.mu.Unlock()
		var ok bool
		entry, ok = m.peerCacheLookup(context.Background(), key)
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return JobView{}, ErrDraining
		}
		if ok {
			tier = tierPeer
			m.peerCacheHitCtr.Inc()
			m.admitLocked(key, entry)
			m.persistLocked(ts, key, entry)
		} else {
			m.peerCacheMissCtr.Inc()
		}
	}
	defer m.mu.Unlock()
	if tier != tierNone {
		return m.resolveCachedLocked(j, entry), nil
	}

	if m.fq.len() >= m.cfg.MaxQueuedJobs {
		ts.rejectedCtr.Inc()
		return JobView{}, ErrQueueFull
	}
	if ts.p.MaxQueuedJobs > 0 && m.fq.queuedOf(principal) >= ts.p.MaxQueuedJobs {
		ts.rejectedCtr.Inc()
		return JobView{}, ErrQuotaExceeded
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.enqueueLocked(j, false)
	return m.viewLocked(j), nil
}

// Result tiers, as lookupLocked reports them.
const (
	tierNone = iota
	tierMemory
	tierDisk
	tierPeer
)

// lookupLocked walks the local result tiers — memory, then the verified
// disk store — and reports which one answered (tierNone on a miss). A
// corrupt disk entry is quarantined, counted, and reads as a miss. It
// moves no hit or miss counter: submission and peer serving count
// differently.
func (m *Manager) lookupLocked(key string) (cacheEntry, int) {
	if entry, ok := m.cache.get(key); ok {
		return entry, tierMemory
	}
	if m.store == nil {
		return cacheEntry{}, tierNone
	}
	entry, ok, corrupt := m.store.get(key)
	if corrupt {
		m.corruptCtr.Inc()
		m.syncStoreGaugesLocked()
	}
	if !ok {
		return cacheEntry{}, tierNone
	}
	return entry, tierDisk
}

// admitLocked puts an entry into the memory tier.
func (m *Manager) admitLocked(key string, entry cacheEntry) {
	m.evictCtr.Add(uint64(m.cache.put(key, entry, 1)))
	m.entriesGauge.Set(int64(m.cache.len()))
}

// enqueueLocked queues one segment of a job — a fresh submission, or a
// preempted job at the front of its principal's queue — and starts the
// goroutine that waits for its dispatch.
func (m *Manager) enqueueLocked(j *job, front bool) {
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.state = StateQueued
	j.start = make(chan struct{})
	m.fq.enqueue(j, m.tenantLocked(j.principal).p.Weight, front)
	m.wg.Add(1)
	go m.run(ctx, j)
	m.scheduleLocked()
}

// resolveCachedLocked completes a submission from a cached entry: the
// job is born terminal with the stored payload served byte-identical.
func (m *Manager) resolveCachedLocked(j *job, entry cacheEntry) JobView {
	j.state = StateDone
	j.cached = true
	j.result = entry.result
	j.trace = entry.trace
	j.progress = harness.Progress{} // nothing simulated
	close(j.done)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.doneCtr.Inc()
	m.recordTerminalLocked(j)
	return m.viewLocked(j)
}

// syncStoreGaugesLocked refreshes the disk store level gauges after any
// store mutation.
func (m *Manager) syncStoreGaugesLocked() {
	m.diskBytes.Set(m.store.totalBytes())
	m.diskEntries.Set(int64(m.store.len()))
}

// persistLocked attributes a result's cached bytes to the submitting
// principal and writes it through to the disk store. A principal over
// its cache-bytes quota keeps the result in the memory tier (the job
// still serves) but is not persisted. Used both for locally simulated
// results and for verified entries adopted from a peer's cache.
func (m *Manager) persistLocked(ts *tenantState, key string, entry cacheEntry) {
	persist := true
	if _, seen := ts.cacheKeys[key]; !seen {
		size := int64(len(entry.result) + len(entry.trace))
		if ts.p.MaxCacheBytes > 0 && ts.cacheBytes+size > ts.p.MaxCacheBytes {
			persist = false
			m.cacheQuotaSkipCtr.Inc()
		} else {
			ts.cacheKeys[key] = size
			ts.cacheBytes += size
			ts.cacheBytesG.Set(ts.cacheBytes)
		}
	}
	if m.store != nil && persist {
		stored, diskEvicted, serr := m.store.put(key, entry)
		switch {
		case serr != nil:
			m.storeErrCtr.Inc() // not persisted; memory tier still serves it
		case !stored:
			m.oversizeCtr.Inc() // bigger than the whole byte budget
		}
		m.diskEvictCtr.Add(uint64(diskEvicted))
		m.syncStoreGaugesLocked()
	}
}

// run drives one job segment from queued to a terminal state — or, for
// a preempted batch job, back into the queue (each requeue spawns a
// fresh run goroutine with a fresh context).
func (m *Manager) run(ctx context.Context, j *job) {
	defer m.wg.Done()

	// Wait for the scheduler's dispatch; cancellation while queued
	// resolves the job without simulating.
	m.mu.Lock()
	start := j.start
	m.mu.Unlock()
	select {
	case <-start:
	case <-ctx.Done():
		m.finish(j, nil, nil, ctx.Err())
		return
	}

	m.mu.Lock()
	spec := j.spec
	ts := m.tenantLocked(j.principal)
	quota := ts.cells
	// Batch jobs capture completed cells' payloads so preemption can
	// resume without re-execution. Traced jobs are excluded: trace
	// buffers cannot cross the JSON capture, so a preempted traced job
	// simply restarts (still byte-identical — same seeds).
	capture := j.class == classBatch && !spec.Trace
	var prefill map[int][]byte
	if len(j.partial) > 0 {
		prefill = make(map[int][]byte, len(j.partial))
		for k, v := range j.partial {
			prefill[k] = v
		}
	}
	m.mu.Unlock()

	// On a coordinator the job runs in work-stealing mode: the matrix
	// becomes a lease queue of chunks that the local pool and every
	// registered peer pull from, and the harness merges remote payloads
	// in matrix order, so the result is byte-identical to a single-node
	// run at any membership or failure pattern. Prefill injects a
	// resumed job's already-completed cells from the saved payloads
	// instead of executing them anywhere.
	hooks := harness.ExecHooks{
		Prefill:   prefill,
		Steal:     m.stealConfig(spec, j.principal),
		ObsSink:   m.foldSim,
		CellQuota: quota,
	}
	if capture {
		hooks.Sink = func(i int, b []byte) { // calls serialised by the harness
			m.mu.Lock()
			if j.partial == nil {
				j.partial = make(map[int][]byte)
			}
			j.partial[i] = append([]byte(nil), b...)
			m.mu.Unlock()
		}
	}
	result, traceJSON, err := execute(ctx, spec, m.slots, func(p harness.Progress) {
		m.publish(j, p)
	}, hooks)
	if m.requeueIfPreempted(j, err) {
		return
	}
	m.finish(j, result, traceJSON, err)
}

// requeueIfPreempted intercepts a cancelled run whose cancellation came
// from the scheduler, not the caller: the job goes back to the front of
// its principal's queue (keeping its completed cells for Prefill) and a
// fresh goroutine waits for redispatch. Reports whether it intercepted.
func (m *Manager) requeueIfPreempted(j *job, err error) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !j.preempted || j.userCancel || !errors.Is(err, context.Canceled) {
		return false
	}
	j.preempted = false
	j.preemptions++
	m.requeueCtr.Inc()
	m.releaseRunningLocked(j)
	m.enqueueLocked(j, true)
	return true
}

// publish records progress and fans it out to subscribers. Sends are
// non-blocking: a slow stream reader loses intermediate events, never
// the terminal one (finish makes room for it).
func (m *Manager) publish(j *job, p harness.Progress) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.progress = p
	// CellTime is zero for remote-injected cells; the executing worker
	// records those into its own harness.cell_us.
	if p.CellTime > 0 {
		m.cellUs.Observe(p.CellTime.Microseconds())
	}
	ev := StreamEvent{
		Job: j.id, State: j.state,
		Completed: p.Completed, Total: p.Total, FailedCells: p.Failed,
		ElapsedMs: float64(p.Elapsed.Microseconds()) / 1000,
		EtaMs:     float64(p.ETA.Microseconds()) / 1000,
		Cell:      p.Cell.String(),
	}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finish moves a job to its terminal state, stores cacheable results,
// and releases every subscriber.
func (m *Manager) finish(j *job, result, traceJSON []byte, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	wasRunning := j.state == StateRunning
	wasQueued := j.state == StateQueued
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
		j.trace = traceJSON
		entry := cacheEntry{result: result, trace: traceJSON}
		m.admitLocked(j.key, entry)
		m.persistLocked(m.tenantLocked(j.principal), j.key, entry)
		m.doneCtr.Inc()
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.errMsg = err.Error()
		m.cancelCtr.Inc()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		m.failCtr.Inc()
	}
	if wasRunning {
		m.releaseRunningLocked(j)
	}
	if wasQueued {
		m.fq.remove(j)
	}
	j.partial = nil // terminal: captured payloads are no longer needed
	m.recordTerminalLocked(j)

	// Every send to a subscriber happens under mu, so a buffer can only
	// drain under us: once a full one drops its oldest progress event,
	// the terminal send cannot block, and it is always the last event.
	ev := m.terminalEventLocked(j)
	for id, ch := range j.subs {
		if len(ch) == cap(ch) {
			select {
			case <-ch:
			default: // the reader drained it meanwhile
			}
		}
		ch <- ev
		close(ch)
		delete(j.subs, id)
	}
	close(j.done)
	m.scheduleLocked()
}

// recordTerminalLocked enrols a just-terminal job in the retention
// policy: the last RetainTerminalJobs jobs per principal and terminal
// state stay addressable; older ones are pruned from the manager so a
// long-lived daemon's job table stays bounded — and one tenant's job
// churn cannot evict another tenant's history. Pruned payloads remain
// reachable through the result cache and disk store by resubmitting
// the spec.
func (m *Manager) recordTerminalLocked(j *job) {
	key := j.principal + "\x00" + j.state
	m.terminalByKey[key] = append(m.terminalByKey[key], j.id)
	pruned := false
	for k, ids := range m.terminalByKey {
		for len(ids) > m.cfg.RetainTerminalJobs {
			delete(m.jobs, ids[0])
			ids = ids[1:]
			pruned = true
		}
		m.terminalByKey[k] = ids
	}
	if pruned {
		kept := m.order[:0]
		for _, id := range m.order {
			if _, ok := m.jobs[id]; ok {
				kept = append(kept, id)
			}
		}
		m.order = kept
	}
	retained := 0
	for _, ids := range m.terminalByKey {
		retained += len(ids)
	}
	m.retainedGauge.Set(int64(retained))
}

// terminalEventLocked renders a job's final stream event.
func (m *Manager) terminalEventLocked(j *job) StreamEvent {
	return StreamEvent{
		Job: j.id, State: j.state,
		Completed: j.progress.Completed, Total: j.progress.Total,
		FailedCells: j.progress.Failed,
		ElapsedMs:   float64(j.elapsed.Microseconds()) / 1000,
		Cached:      j.cached,
		Error:       j.errMsg,
	}
}

// Cancel requests cancellation without an ownership check — the
// open-mode surface, also used by Drain. Queued jobs resolve
// immediately; running jobs stop dispatching cells and resolve once
// in-flight cells complete. Cancelling a terminal job is a no-op
// (false).
func (m *Manager) Cancel(id string) (bool, error) {
	return m.cancelJob(id, "", false)
}

// CancelBy is Cancel with ownership enforcement: only the submitting
// principal may cancel its job (ErrForbidden otherwise).
func (m *Manager) CancelBy(id, principal string) (bool, error) {
	return m.cancelJob(id, principal, true)
}

func (m *Manager) cancelJob(id, principal string, enforce bool) (bool, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return false, ErrNotFound
	}
	if enforce && j.principal != principal {
		m.mu.Unlock()
		return false, ErrForbidden
	}
	if terminal(j.state) || j.cancel == nil {
		m.mu.Unlock()
		return false, nil
	}
	// userCancel wins over any concurrent scheduler preemption: the job
	// resolves cancelled instead of requeueing.
	j.userCancel = true
	cancel := j.cancel
	m.mu.Unlock()
	cancel()
	return true, nil
}

// Get returns a job's status snapshot.
func (m *Manager) Get(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return m.viewLocked(j), nil
}

// List returns every job in submission order.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobView, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.viewLocked(m.jobs[id]))
	}
	return out
}

func (m *Manager) viewLocked(j *job) JobView {
	elapsed := j.elapsed
	if j.state == StateRunning {
		elapsed += nowFunc().Sub(j.started)
	}
	return JobView{
		ID: j.id, State: j.state, Cached: j.cached, CacheKey: j.key,
		Completed: j.progress.Completed, Total: j.progress.Total,
		FailedCells: j.progress.Failed,
		ElapsedMs:   float64(elapsed.Microseconds()) / 1000,
		Error:       j.errMsg, HasTrace: len(j.trace) > 0,
		Principal: j.principal, Preemptions: j.preemptions,
		Spec: j.spec,
	}
}

// Result returns a terminal job's payload. ok is false while the job is
// still queued or running.
func (m *Manager) Result(id string) (payload []byte, state string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, "", ErrNotFound
	}
	return j.result, j.state, nil
}

// Trace returns a terminal job's Perfetto trace-event JSON (nil when
// the job was not traced).
func (m *Manager) Trace(id string) (payload []byte, state string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, "", ErrNotFound
	}
	return j.trace, j.state, nil
}

// Subscribe attaches a progress listener. The returned channel closes
// after the terminal event; cancelSub detaches early. For jobs already
// terminal the channel delivers the terminal event and closes.
func (m *Manager) Subscribe(id string) (events <-chan StreamEvent, cancelSub func(), err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan StreamEvent, 256)
	if terminal(j.state) {
		ch <- m.terminalEventLocked(j)
		close(ch)
		return ch, func() {}, nil
	}
	sub := j.nextSub
	j.nextSub++
	j.subs[sub] = ch
	cancelSub = func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if c, ok := j.subs[sub]; ok {
			close(c)
			delete(j.subs, sub)
		}
	}
	return ch, cancelSub, nil
}

// Drain gracefully shuts the manager down: new submissions are
// rejected, queued and running jobs finish (preempted batch jobs
// resume and complete), and Drain returns when all jobs are terminal.
// If ctx expires first, every remaining job is cancelled — as a user
// cancel, so nothing requeues — and Drain waits (briefly) for the
// pools to unwind before returning ctx's error.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
	}

	// Deadline passed: cancel everything still live and wait it out —
	// in-flight cells are not interruptible, but they are finite.
	m.mu.Lock()
	for _, j := range m.jobs {
		if !terminal(j.state) && j.cancel != nil {
			j.userCancel = true
			j.cancel()
		}
	}
	m.mu.Unlock()
	<-finished
	return ctx.Err()
}
