// Package proc models processes and tasks (threads), including the Linux
// freezer mechanism that ICE's refault-driven process freezing drives, the
// Android oom_score_adj priority scores that ICE's whitelist is keyed on,
// and the UID-based application identity used for application-grain
// freezing.
//
// Tasks carry queues of Work items posted by the application and framework
// models; the scheduler (internal/sched) dispenses CPU quanta to runnable
// tasks. A frozen process's tasks never receive quanta, which is exactly the
// property ICE exploits to stop background refaults.
package proc

import (
	"fmt"

	"github.com/eurosys23/ice/internal/sim"
)

// Kind classifies processes the way ICE's process sifting does: kernel
// threads and Android service processes must never be frozen.
type Kind int

// Process kinds.
const (
	KindKernel  Kind = iota // kswapd, kworker, ...
	KindService             // system_server, surfaceflinger, binder, ...
	KindApp                 // application processes (freezable)
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindKernel:
		return "kernel"
	case KindService:
		return "service"
	case KindApp:
		return "app"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Android oom_score_adj values used by the activity manager model
// (Introduction of Android OOM adjustment levels, [13] in the paper).
const (
	AdjForeground  = 0   // the app the user is interacting with
	AdjPerceptible = 200 // music playback, downloads: perceptible in BG
	AdjService     = 100 // bound service processes
	AdjCachedBase  = 900 // cached BG apps; higher = killed earlier
	AdjCachedMax   = 999
)

// Work is a unit of execution posted to a task: an optional memory phase
// followed by a CPU phase.
type Work struct {
	// Name labels the item for traces ("frame", "gc", "sync", ...).
	Name string
	// Setup runs once when the item begins execution. It is where the
	// application model touches and allocates memory. It returns an extra
	// synchronous CPU stall (e.g. ZRAM decompression, mm-lock contention)
	// and, if the item must wait for flash I/O, the absolute completion
	// time to block until.
	Setup func() (stall sim.Time, blockUntil sim.Time)
	// CPU is the pure compute requirement of the item.
	CPU sim.Time
	// OnDone, if non-nil, runs when the item finishes, with the times the
	// item entered the queue and finished executing.
	OnDone func(posted, finished sim.Time)

	posted    sim.Time
	remaining sim.Time
	setupDone bool
}

// Task is a schedulable thread belonging to a process.
type Task struct {
	TID    int
	Name   string
	Proc   *Process
	Weight int // CFS load weight; 1024 is nice-0

	// VRuntime is the CFS virtual runtime in weighted microseconds.
	VRuntime int64

	// CPUTime is the total CPU consumed, for utilisation accounting.
	CPUTime sim.Time

	queue    []*Work
	cur      *Work
	blocked  bool
	maxQueue int

	// InRunq and UnblockFn are scheduler bookkeeping, owned by
	// internal/sched; nothing else may touch them. InRunq records whether
	// the task sits on the scheduler's runnable-candidate queue, its only
	// record of tasks. UnblockFn is the I/O-completion callback the
	// scheduler builds once at registration and arms whenever the task
	// blocks, so no completion allocates a closure.
	InRunq    bool
	UnblockFn func()
}

// DefaultWeight is the CFS nice-0 load weight.
const DefaultWeight = 1024

// defaultMaxQueue bounds a task's backlog so that a starved or frozen task
// does not accumulate unbounded deferred work.
const defaultMaxQueue = 64

// Post appends a work item to the task's queue. Items posted to a dead task
// or beyond the queue bound are refused.
func (t *Task) Post(now sim.Time, w *Work) bool {
	if !t.Proc.Alive() || len(t.queue) >= t.maxQueue {
		return false
	}
	w.posted = now
	w.remaining = w.CPU
	w.setupDone = false
	t.queue = append(t.queue, w)
	return true
}

// SetMaxQueue overrides the queue bound (the renderer uses a small bound so
// that frames drop rather than pile up).
func (t *Task) SetMaxQueue(n int) {
	if n < 1 {
		n = 1
	}
	t.maxQueue = n
}

// QueueLen reports pending items, including the one in progress.
func (t *Task) QueueLen() int {
	n := len(t.queue)
	if t.cur != nil {
		n++
	}
	return n
}

// Runnable reports whether the scheduler may give this task CPU now.
func (t *Task) Runnable(now sim.Time) bool {
	p := t.Proc
	if !p.alive || p.frozen || now < p.thawReadyAt {
		return false
	}
	if t.blocked {
		return false
	}
	return t.cur != nil || len(t.queue) > 0
}

// Blocked reports whether the task is waiting on I/O.
func (t *Task) Blocked() bool { return t.blocked }

// Block marks the task as waiting on I/O until resumed via Unblock.
func (t *Task) Block() { t.blocked = true }

// Unblock clears the I/O wait.
func (t *Task) Unblock() { t.blocked = false }

// Current returns the in-progress work item, if any, popping the queue as
// needed.
func (t *Task) Current() *Work {
	if t.cur == nil && len(t.queue) > 0 {
		t.cur = t.queue[0]
		copy(t.queue, t.queue[1:])
		t.queue = t.queue[:len(t.queue)-1]
	}
	return t.cur
}

// FinishCurrent completes the in-progress item.
func (t *Task) FinishCurrent() { t.cur = nil }

// DropQueued discards all queued (not in-progress) work; used when a
// process is killed.
func (t *Task) DropQueued() { t.queue = t.queue[:0] }

// Process is a group of tasks sharing a PID.
type Process struct {
	PID  int
	UID  int
	Name string
	Kind Kind

	// Adj is the Android oom_score_adj of the process.
	Adj int

	Tasks []*Task

	alive       bool
	frozen      bool
	frozenSince sim.Time
	thawReadyAt sim.Time
}

// Alive reports whether the process exists (LMK kills clear this).
func (p *Process) Alive() bool { return p.alive }

// Frozen reports whether the process is currently frozen.
func (p *Process) Frozen() bool { return p.frozen }

// FrozenSince returns when the process was frozen (zero when not frozen).
func (p *Process) FrozenSince() sim.Time {
	if !p.frozen {
		return 0
	}
	return p.frozenSince
}

// Freeze forces the process's tasks to hibernate, as try_to_freeze() does.
// Running tasks stop at their next quantum boundary (the scheduler consults
// Runnable each tick). Freezing a dead or already-frozen process is a no-op.
func (p *Process) Freeze(now sim.Time) bool {
	if !p.alive || p.frozen {
		return false
	}
	if p.Kind != KindApp {
		// Kernel threads and services are never freezable; the caller
		// (ICE's process sifting) should have filtered these, but the
		// mechanism itself also refuses.
		return false
	}
	p.frozen = true
	p.frozenSince = now
	return true
}

// Thaw releases a frozen process. Its tasks become runnable after latency
// (the paper reports "tens of milliseconds" to thaw an application).
func (p *Process) Thaw(now, latency sim.Time) bool {
	if !p.frozen {
		return false
	}
	p.frozen = false
	p.frozenSince = 0
	p.thawReadyAt = now + latency
	return true
}

// Kill terminates the process: tasks drop their work and never run again.
func (p *Process) Kill() {
	p.alive = false
	p.frozen = false
	for _, t := range p.Tasks {
		t.DropQueued()
		t.FinishCurrent()
		t.blocked = false
	}
}

// TotalCPU sums CPU consumed by the process's tasks.
func (p *Process) TotalCPU() sim.Time {
	var total sim.Time
	for _, t := range p.Tasks {
		total += t.CPUTime
	}
	return total
}

// Table owns all processes in the simulated system and allocates PIDs,
// TIDs and UIDs.
type Table struct {
	procs   map[int]*Process
	byUID   map[int][]*Process
	nextPID int
	nextTID int
	nextUID int
}

// NewTable returns an empty process table. PIDs start at 2 (PID 1 is
// conceptually init) and app UIDs at 10000 as on Android.
func NewTable() *Table {
	return &Table{
		procs:   make(map[int]*Process),
		byUID:   make(map[int][]*Process),
		nextPID: 2,
		nextTID: 2,
		nextUID: 10000,
	}
}

// AllocUID reserves a fresh application UID.
func (tb *Table) AllocUID() int {
	uid := tb.nextUID
	tb.nextUID++
	return uid
}

// NewProcess creates an alive process with no tasks.
func (tb *Table) NewProcess(name string, uid int, kind Kind, adj int) *Process {
	p := &Process{
		PID:   tb.nextPID,
		UID:   uid,
		Name:  name,
		Kind:  kind,
		Adj:   adj,
		alive: true,
	}
	tb.nextPID++
	tb.procs[p.PID] = p
	tb.byUID[uid] = append(tb.byUID[uid], p)
	return p
}

// NewTask adds a task to p with the given CFS weight.
func (tb *Table) NewTask(p *Process, name string, weight int) *Task {
	if weight <= 0 {
		weight = DefaultWeight
	}
	t := &Task{
		TID:      tb.nextTID,
		Name:     name,
		Proc:     p,
		Weight:   weight,
		maxQueue: defaultMaxQueue,
	}
	tb.nextTID++
	p.Tasks = append(p.Tasks, t)
	return t
}

// Lookup returns the process with the given PID, or nil.
func (tb *Table) Lookup(pid int) *Process { return tb.procs[pid] }

// ByUID returns all processes (alive or dead) created under uid.
func (tb *Table) ByUID(uid int) []*Process { return tb.byUID[uid] }

// AliveByUID returns the alive processes under uid.
func (tb *Table) AliveByUID(uid int) []*Process {
	var out []*Process
	for _, p := range tb.byUID[uid] {
		if p.alive {
			out = append(out, p)
		}
	}
	return out
}

// Remove deletes a dead process from the table. Killed app processes stay
// in the table until their application is relaunched, at which point the
// activity manager removes them and creates fresh ones.
func (tb *Table) Remove(p *Process) {
	delete(tb.procs, p.PID)
	list := tb.byUID[p.UID]
	for i, q := range list {
		if q == p {
			tb.byUID[p.UID] = append(list[:i], list[i+1:]...)
			break
		}
	}
}

// All returns every process in the table, in PID order. The slice is fresh.
func (tb *Table) All() []*Process {
	out := make([]*Process, 0, len(tb.procs))
	// PID order for determinism: iterate by scanning pid range.
	for pid := 0; pid < tb.nextPID; pid++ {
		if p, ok := tb.procs[pid]; ok {
			out = append(out, p)
		}
	}
	return out
}

// Len reports the number of processes in the table.
func (tb *Table) Len() int { return len(tb.procs) }
