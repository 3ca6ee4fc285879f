// queue.go is the daemon's scheduler, in two parts that each decide
// one thing.
//
// Job admission decides when a queued job starts. Every principal owns
// one queue per class (interactive, batch), and each class has its own
// MaxRunningJobs running slots, so a running batch job never keeps an
// interactive job from starting. When a class's slot frees, the
// scheduler visits that class's backlogged principals round-robin by
// deficit round robin (DRR): each visit credits the principal's
// weight, and its head job starts once the accumulated deficit covers
// the job's cost (its cell-count estimate, capped). A weight-4
// principal therefore starts four times as many equal-cost jobs as a
// weight-1 principal when both are backlogged, and a principal that
// goes idle forfeits its credit (classic DRR deficit reset). A queued
// job holds nothing: no goroutine, no context.
//
// The cell gate decides which cell runs next. It has MaxWorkers slots
// shared by every running job and every cell range served for a
// coordinator, and it hands each freed slot to a waiting worker:
// interactive class first, oldest first within a class, passing over
// any worker whose principal is at its max-cells. Interactive cells
// therefore take every slot that frees while they wait, and no job is
// cancelled to make room. Scheduling decides only when a cell runs, so
// no result byte depends on it.
package service

import (
	"context"
	"slices"
	"sort"
	"sync"

	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/tenant"
)

// Priority classes, in scheduling order.
const (
	classInteractive = 0
	classBatch       = 1
	numClasses       = 2
)

// Job priority spellings (JobSpec.Priority).
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

// maxJobCost caps a job's DRR cost so the deficit loop converges
// quickly and a single giant matrix cannot make its principal's queue
// unschedulable for thousands of visits.
const maxJobCost = 64

// jobCost estimates a job's relative size for the deficit accounting:
// its round count (the dominant cell-matrix axis for both job kinds),
// at least 1, capped.
func jobCost(spec JobSpec) int {
	cost := spec.Rounds
	if cost < 1 {
		cost = 1
	}
	if cost > maxJobCost {
		cost = maxJobCost
	}
	return cost
}

// classOf maps a normalised spec's priority onto its class index.
func classOf(spec JobSpec) int {
	if spec.Priority == PriorityBatch {
		return classBatch
	}
	return classInteractive
}

// fairQueue is job admission: every principal's record, the running
// set, and the one record of how many jobs wait and run per class. It
// is not self-locking: the owning Manager serialises every call under
// its mutex.
type fairQueue struct {
	maxRunning int // per class
	running    map[*job]struct{}
	tenants    map[string]*tenantState
	queued     [numClasses]int
	runningN   [numClasses]int
	cursor     [numClasses]string // last-served principal per class
}

func newFairQueue(maxRunning int) *fairQueue {
	return &fairQueue{
		maxRunning: maxRunning,
		running:    make(map[*job]struct{}),
		tenants:    make(map[string]*tenantState),
	}
}

// len reports the jobs waiting in every class.
func (q *fairQueue) len() int { return q.queued[classInteractive] + q.queued[classBatch] }

// enqueue adds a job to its principal's class queue. The principal's
// record must exist.
func (q *fairQueue) enqueue(j *job) {
	t := q.tenants[j.principal]
	t.q[j.class] = append(t.q[j.class], j)
	q.queued[j.class]++
}

// remove deletes a queued job (cancelled before dispatch). It reports
// whether the job was found.
func (q *fairQueue) remove(j *job) bool {
	t := q.tenants[j.principal]
	for i, cand := range t.q[j.class] {
		if cand == j {
			t.q[j.class] = append(t.q[j.class][:i], t.q[j.class][i+1:]...)
			q.queued[j.class]--
			if len(t.q[j.class]) == 0 {
				t.deficit[j.class] = 0
			}
			return true
		}
	}
	return false
}

// popClass picks the class's next job to start by DRR across its
// backlogged principals. nil means none of the class is queued.
func (q *fairQueue) popClass(class int) *job {
	if q.queued[class] == 0 {
		return nil
	}
	// Continue the cursor principal's turn first: a principal serves
	// jobs until its deficit no longer covers its head job, so a
	// weight-4 principal drains ~4 equal-cost jobs per rotation, not 1.
	if t := q.tenants[q.cursor[class]]; t != nil && len(t.q[class]) > 0 && t.deficit[class] >= t.q[class][0].cost {
		return q.popFrom(t, class)
	}
	// Turn over: rotate through backlogged principals in name order
	// starting after the cursor, crediting each visit with the
	// principal's weight, and serve the first whose deficit covers its
	// head job.
	names := make([]string, 0, len(q.tenants))
	for name, t := range q.tenants {
		if len(t.q[class]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	start := 0
	for i, name := range names {
		if name > q.cursor[class] {
			start = i
			break
		}
	}
	// Every full pass credits each backlogged principal at least its
	// weight (>= 1) and head costs are capped, so the loop terminates
	// within maxJobCost passes.
	for pass := 0; pass <= maxJobCost; pass++ {
		for k := 0; k < len(names); k++ {
			name := names[(start+k)%len(names)]
			t := q.tenants[name]
			t.deficit[class] += t.p.Weight
			if t.deficit[class] >= t.q[class][0].cost {
				q.cursor[class] = name
				return q.popFrom(t, class)
			}
		}
	}
	return nil // unreachable: the loop above always converges
}

// popFrom serves one job from a principal's class queue, spending its
// deficit. An emptied queue forfeits leftover credit (classic DRR
// reset), so idle principals cannot hoard share.
func (q *fairQueue) popFrom(t *tenantState, class int) *job {
	head := t.q[class][0]
	t.deficit[class] -= head.cost
	t.q[class] = t.q[class][1:]
	q.queued[class]--
	if len(t.q[class]) == 0 {
		t.deficit[class] = 0
	}
	return head
}

// tenantState is the Manager's one record of a principal: its quota
// configuration and max-cells count, its class queues and DRR
// deficits, its retained terminal jobs, the disk-store bytes attributed
// to it, and its instruments.
type tenantState struct {
	p     *tenant.Principal
	cells *cellQuota // max-cells at the cell gate; nil = unlimited

	q       [numClasses][]*job // FIFO per class
	deficit [numClasses]int
	// retained holds the principal's terminal job IDs per state, oldest
	// first (see recordTerminalLocked).
	retained map[string][]string

	// cacheKeys holds the disk-store keys this principal's results were
	// persisted under, with their payload bytes; a key leaves when the
	// store evicts or quarantines it (see releaseLocked).
	cacheKeys  map[string]int64
	cacheBytes int64

	submittedCtr *obs.Counter
	rejectedCtr  *obs.Counter
	queuedG      *obs.Gauge
	runningG     *obs.Gauge
	cacheBytesG  *obs.Gauge
}

// queuedJobs reports the jobs the principal has waiting.
func (t *tenantState) queuedJobs() int {
	return len(t.q[classInteractive]) + len(t.q[classBatch])
}

// tenantLocked returns (creating if needed) a principal's record.
// Quotas and weight come from the auth registry when the principal is
// registered there; the anonymous principal runs with defaults (weight
// 1, no quotas). Records exist only for principals that submit jobs
// and, on a worker, for token-file principals whose cells it serves:
// never for a name only a request body carries.
func (m *Manager) tenantLocked(name string) *tenantState {
	ts := m.fq.tenants[name]
	if ts != nil {
		return ts
	}
	p, ok := m.cfg.AuthTokens.ByName(name)
	if !ok {
		p = &tenant.Principal{Name: name, Weight: tenant.DefaultWeight}
	}
	ts = &tenantState{
		p:            p,
		retained:     make(map[string][]string),
		cacheKeys:    make(map[string]int64),
		submittedCtr: m.reg.Counter("service.tenant.submitted." + name),
		rejectedCtr:  m.reg.Counter("service.tenant.rejected." + name),
		queuedG:      m.reg.Gauge("service.tenant.queued_jobs." + name),
		runningG:     m.reg.Gauge("service.tenant.running_jobs." + name),
		cacheBytesG:  m.reg.Gauge("service.tenant.cache_bytes." + name),
	}
	if p.MaxRunningCells > 0 {
		ts.cells = &cellQuota{max: p.MaxRunningCells}
	}
	m.fq.tenants[name] = ts
	return ts
}

// scheduleLocked starts queued jobs in every class with a free running
// slot. Every queue transition — submit, start, finish — ends here, so
// this is the one place the level gauges are set.
func (m *Manager) scheduleLocked() {
	for class := range numClasses {
		for m.fq.runningN[class] < m.fq.maxRunning {
			j := m.fq.popClass(class)
			if j == nil {
				break
			}
			m.startJobLocked(j)
		}
	}

	m.queuedGauge.Set(int64(m.fq.len()))
	m.runningGauge.Set(int64(len(m.fq.running)))
	for _, ts := range m.fq.tenants {
		ts.queuedG.Set(int64(ts.queuedJobs()))
		ts.runningG.Set(0)
	}
	for j := range m.fq.running {
		m.tenantLocked(j.principal).runningG.Add(1)
	}
}

// startJobLocked transitions a popped job to running: it gets its
// context here and its goroutine starts here, so a queued job holds
// neither.
func (m *Manager) startJobLocked(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	m.fq.running[j] = struct{}{}
	m.fq.runningN[j.class]++
	j.state = StateRunning
	j.started = nowFunc()
	go m.run(ctx, j)
}

// releaseRunningLocked takes a job whose run has returned out of the
// running set and releases its context.
func (m *Manager) releaseRunningLocked(j *job) {
	delete(m.fq.running, j)
	m.fq.runningN[j.class]--
	j.elapsed = nowFunc().Sub(j.started)
	j.cancel()
	j.cancel = nil
}

// cellGate is the one decision point for which cell runs next. It has
// a fixed number of slots, and a worker that finds none free, or whose
// principal is at its max-cells, waits. Each freed slot goes to the
// first waiting worker — interactive class first, oldest first within
// a class — whose principal's quota has room; a worker passed over for
// its quota holds nothing while it waits. Between two cells a worker
// keeps its slot unless such a waiter would come before it (keep). The
// gate has its own lock: harness workers call it off the Manager's.
type cellGate struct {
	mu      sync.Mutex
	free    int
	waiting [numClasses][]*gateWaiter // oldest first
}

// cellQuota is one principal's max-cells: how many of its cells may hold
// a gate slot at once. held is guarded by the gate's lock.
type cellQuota struct {
	max, held int
}

// room reports whether the quota admits one more cell; nil is unlimited.
func (q *cellQuota) room() bool { return q == nil || q.held < q.max }

// gateWaiter is one worker waiting at the gate. ready is closed when
// the gate grants it a slot, which also sets granted under the lock.
type gateWaiter struct {
	class   int
	quota   *cellQuota
	ready   chan struct{}
	granted bool
}

func newCellGate(slots int) *cellGate { return &cellGate{free: slots} }

// enter asks for a slot for a worker of the class under quota q. A
// worker waits only while no slot is free or its quota is full, so a
// free slot here has no waiter that could take it first: the slot is
// taken at once and enter returns nil. Otherwise it returns the
// worker's waiter, queued behind its class.
func (g *cellGate) enter(class int, q *cellQuota) *gateWaiter {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.free > 0 && q.room() {
		g.takeLocked(q)
		return nil
	}
	w := &gateWaiter{class: class, quota: q, ready: make(chan struct{})}
	g.waiting[class] = append(g.waiting[class], w)
	return w
}

// leave withdraws a waiter whose context ended. A grant that raced the
// cancel is handed on, so the worker leaves no slot behind.
func (g *cellGate) leave(w *gateWaiter) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.granted {
		g.releaseLocked(w.quota)
		return
	}
	g.waiting[w.class] = slices.DeleteFunc(g.waiting[w.class], func(x *gateWaiter) bool { return x == w })
}

// release returns a slot taken under quota q and hands it on.
func (g *cellGate) release(q *cellQuota) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.releaseLocked(q)
}

// keep is a holder's call between two cells. The worker keeps its slot,
// taken under quota q, unless a waiter would be granted it ahead of a
// fresh enter in class: one of a higher class, or any of the same class
// (each is older), whose quota has room once the slot is returned. Then
// the slot is released and handed on as release does, and keep reports
// false.
func (g *cellGate) keep(class int, q *cellQuota) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, ws := range g.waiting[:class+1] {
		for _, w := range ws {
			if w.quota.room() || w.quota == q {
				g.releaseLocked(q)
				return false
			}
		}
	}
	return true
}

func (g *cellGate) takeLocked(q *cellQuota) {
	g.free--
	if q != nil {
		q.held++
	}
}

// releaseLocked frees a slot and one unit of q, then grants free slots
// to waiters: interactive class first, oldest first within a class,
// passing over any whose quota is full.
func (g *cellGate) releaseLocked(q *cellQuota) {
	g.free++
	if q != nil {
		q.held--
	}
	for class, ws := range g.waiting {
		kept := ws[:0]
		for _, w := range ws {
			if g.free == 0 || !w.quota.room() {
				kept = append(kept, w)
				continue
			}
			g.takeLocked(w.quota)
			w.granted = true
			close(w.ready)
		}
		clear(ws[len(kept):])
		g.waiting[class] = kept
	}
}

// gateBudget is the gate as one run's harness.Budget: the class and the
// principal's quota are fixed for the run.
type gateBudget struct {
	g     *cellGate
	class int
	quota *cellQuota
}

func (b gateBudget) Acquire(ctx context.Context) bool {
	w := b.g.enter(b.class, b.quota)
	if w == nil {
		return true
	}
	select {
	case <-w.ready:
		return true
	case <-ctx.Done():
		b.g.leave(w)
		return false
	}
}

func (b gateBudget) Release() { b.g.release(b.quota) }

func (b gateBudget) Keep() bool { return b.g.keep(b.class, b.quota) }
