// queue.go is the daemon's weighted-fair job scheduler: the FIFO job
// queue of PRs 3–7 replaced by deficit round robin (DRR) over
// per-principal queues with two priority classes, so one tenant's
// queued full-fidelity matrix can no longer starve another tenant's
// interactive single-run — the daemon schedules jobs the way ICE's own
// internal/sched schedules apps (per-quantum weighted fairness,
// foreground over background).
//
// Structure: every principal owns one queue per class (interactive >
// batch). When a running slot frees, the scheduler serves the
// interactive class first; within a class it visits backlogged
// principals round-robin, crediting each visit with the principal's
// weight and dispatching the head job once the accumulated deficit
// covers the job's cost (its cell-count estimate, capped). A weight-4
// principal therefore drains cells four times faster than a weight-1
// principal when both are backlogged, and a principal that goes idle
// forfeits its credit (classic DRR deficit reset).
//
// Preemption: when interactive work is queued and every running slot
// is held, the scheduler preempts the most recently started batch job
// via its harness context — cancellation stops dispatching new cells
// while in-flight cells complete, so the job yields at a cell
// boundary. The preempted job is requeued at the front of its queue
// with its completed cells' payloads retained; on resume those are
// merged through harness.ExecHooks.Prefill, so the final result is
// byte-identical to an uninterrupted run (the harness completed-prefix
// and Sink-capture invariants make the saved payloads exactly what the
// uninterrupted run would have merged).
package service

import (
	"context"
	"sort"

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

// fairQueue is the scheduler proper: every principal's record, the
// running set, and the one record of how many jobs wait. It is not
// self-locking: the owning Manager serialises every call under its
// mutex.
type fairQueue struct {
	maxRunning int
	running    map[*job]struct{}
	tenants    map[string]*tenantState
	queued     [numClasses]int
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

// enqueue adds a job to its principal's class queue; front requeues a
// preempted job ahead of its principal's other waiting work so resume
// does not lose its turn. The principal's record must exist.
func (q *fairQueue) enqueue(j *job, front bool) {
	t := q.tenants[j.principal]
	if front {
		t.q[j.class] = append([]*job{j}, t.q[j.class]...)
	} else {
		t.q[j.class] = append(t.q[j.class], j)
	}
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

// popNext picks the next job to dispatch: interactive class first,
// DRR across backlogged principals within a class. nil means nothing
// is queued.
func (q *fairQueue) popNext() *job {
	for class := 0; class < numClasses; class++ {
		if j := q.popClass(class); j != nil {
			return j
		}
	}
	return nil
}

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
// configuration and in-flight cell budget, its class queues and DRR
// deficits, its retained terminal jobs, the disk-store bytes attributed
// to it, and its instruments.
type tenantState struct {
	p     *tenant.Principal
	cells chan struct{} // per-principal in-flight cell budget; nil = unlimited

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
	preemptedCtr *obs.Counter
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
		preemptedCtr: m.reg.Counter("service.tenant.preempted." + name),
		queuedG:      m.reg.Gauge("service.tenant.queued_jobs." + name),
		runningG:     m.reg.Gauge("service.tenant.running_jobs." + name),
		cacheBytesG:  m.reg.Gauge("service.tenant.cache_bytes." + name),
	}
	if p.MaxRunningCells > 0 {
		ts.cells = make(chan struct{}, p.MaxRunningCells)
	}
	m.fq.tenants[name] = ts
	return ts
}

// scheduleLocked dispatches queued jobs into free running slots, then
// preempts batch work if interactive work is still waiting. Every
// queue transition — submit, requeue, dispatch, finish — ends here, so
// this is the one place the level gauges are set.
func (m *Manager) scheduleLocked() {
	for len(m.fq.running) < m.fq.maxRunning {
		j := m.fq.popNext()
		if j == nil {
			break
		}
		m.startJobLocked(j)
	}
	m.maybePreemptLocked()

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
	j.state = StateRunning
	j.started = nowFunc()
	go m.run(ctx, j)
}

// releaseRunningLocked takes a job whose run has returned out of the
// running set and releases its context.
func (m *Manager) releaseRunningLocked(j *job) {
	delete(m.fq.running, j)
	j.elapsed += nowFunc().Sub(j.started)
	j.cancel()
	j.cancel = nil
}

// maybePreemptLocked cancels running batch jobs — newest first, one
// per waiting interactive job — when the interactive class is starved:
// queued interactive work and every slot held. Cancellation stops new
// cell dispatch; in-flight cells finish, so the victim yields at a
// cell boundary, and its run requeues it to resume later with its
// completed cells prefilled.
func (m *Manager) maybePreemptLocked() {
	need := m.fq.queued[classInteractive]
	if need == 0 {
		return
	}
	pending := 0
	for j := range m.fq.running {
		if j.preempted {
			pending++
		}
	}
	for need > pending {
		var victim *job
		for j := range m.fq.running {
			if j.class != classBatch || j.preempted {
				continue
			}
			if victim == nil || j.started.After(victim.started) {
				victim = j
			}
		}
		if victim == nil {
			return // nothing preemptible: all slots run interactive work
		}
		victim.preempted = true
		victim.cancel()
		m.preemptCtr.Inc()
		m.tenantLocked(victim.principal).preemptedCtr.Inc()
		pending++
	}
}
