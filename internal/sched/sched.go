// Package sched is a simplified CFS (completely fair scheduler) over N
// identical cores. Runnable tasks are picked by minimum weighted virtual
// runtime each 1 ms quantum. The scheduler is demand-driven: it only ticks
// while work exists, and must be kicked when tasks become runnable.
//
// The baseline evaluated in the paper is "LRU+CFS"; UCSG's user-centric
// scheduling is expressed by boosting the weights of foreground tasks (see
// internal/policy).
package sched

import (
	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/trace"
)

// Quantum is the scheduling tick length.
const Quantum = sim.Millisecond

// CPUClass buckets CPU consumption for the utilisation analyses
// (Table 1, §6.2.2).
type CPUClass int

// CPU consumption classes.
const (
	CPUKernel CPUClass = iota
	CPUService
	CPUForegroundApp
	CPUBackgroundApp
	numCPUClasses
)

// Stats aggregates scheduler activity since the last reset.
type Stats struct {
	// Busy is CPU time consumed per class.
	Busy [numCPUClasses]sim.Time
	// Window is the wall time covered.
	Window sim.Time
	// Cores is the core count, for utilisation computation.
	Cores int
	// BusyPerSecond is the per-second total busy time, for peak
	// utilisation.
	BusyPerSecond []sim.Time
}

// TotalBusy sums across classes.
func (s Stats) TotalBusy() sim.Time {
	var t sim.Time
	for _, b := range s.Busy {
		t += b
	}
	return t
}

// Utilization returns average CPU utilisation in [0,1].
func (s Stats) Utilization() float64 {
	if s.Window <= 0 || s.Cores == 0 {
		return 0
	}
	return float64(s.TotalBusy()) / (float64(s.Window) * float64(s.Cores))
}

// PeakUtilization returns the highest single-second utilisation. The last
// (possibly partial) second is normalised by its actual length.
func (s Stats) PeakUtilization() float64 {
	if s.Cores == 0 {
		return 0
	}
	var peak float64
	for i, b := range s.BusyPerSecond {
		span := s.Window - sim.Time(i)*sim.Second
		if span > sim.Second {
			span = sim.Second
		}
		if span <= 0 {
			break
		}
		u := float64(b) / (float64(span) * float64(s.Cores))
		if u > peak {
			peak = u
		}
	}
	return peak
}

// Scheduler multiplexes tasks over cores.
type Scheduler struct {
	eng    *sim.Engine
	cores  int
	fgUID  int
	weight func(*proc.Task) int
	speed  func(*proc.Task) float64
	// speedDefault short-circuits the per-task speed call while no speed
	// policy is installed (the common case outside UCSG).
	speedDefault bool

	// runq is the scheduler's only record of tasks: a superset of the
	// runnable ones, each flagged via Task.InRunq. Every event that can
	// make a task runnable puts it on the queue: Register, Post for new
	// work, the task's UnblockFn for I/O completion, and Wake for a thaw
	// (the one runnability transition the scheduler cannot observe
	// itself). tick filters runq in place down to the runnable set and
	// selects from it there, so after a round runq holds that round's
	// runnable set plus every task enqueued mid-round. A task found not
	// runnable, dead ones included, leaves the queue and with it the
	// scheduler.
	runq []*proc.Task

	tickArmed   bool
	nextAllowed sim.Time
	minV        int64

	busy       [numCPUClasses]sim.Time
	busyPerSec []sim.Time
	started    sim.Time

	// tickFn is the bound tick method, captured once so re-arming the
	// tick does not allocate a fresh method value per event.
	tickFn func()

	quanta   [numCPUClasses]*obs.Counter
	runqueue *obs.Gauge
	tr       *trace.Buffer
}

// New creates a scheduler with the given core count.
func New(eng *sim.Engine, cores int) *Scheduler {
	if cores <= 0 {
		panic("sched: non-positive core count")
	}
	s := &Scheduler{eng: eng, cores: cores, fgUID: -1}
	s.weight = func(t *proc.Task) int { return t.Weight }
	s.speed = func(*proc.Task) float64 { return 1 }
	s.speedDefault = true
	s.tickFn = s.tick
	reg := eng.Obs()
	s.quanta[CPUKernel] = reg.Counter("sched.quanta.kernel")
	s.quanta[CPUService] = reg.Counter("sched.quanta.service")
	s.quanta[CPUForegroundApp] = reg.Counter("sched.quanta.fg_app")
	s.quanta[CPUBackgroundApp] = reg.Counter("sched.quanta.bg_app")
	s.runqueue = reg.Gauge("sched.runqueue.depth")
	return s
}

// SetTrace attaches a trace buffer; the scheduler emits one CatSched span
// per executed quantum into it. A nil buffer is valid.
func (s *Scheduler) SetTrace(b *trace.Buffer) { s.tr = b }

// SetSpeedFn installs a per-task execution-speed policy in (0, ~1.5]: a
// task at speed 0.4 occupies a core for a full quantum but completes only
// 40 % of a quantum's work — how core placement and frequency capping
// (e.g. UCSG pinning background tasks to slow cores) are modelled. nil
// restores uniform speed 1.
func (s *Scheduler) SetSpeedFn(fn func(*proc.Task) float64) {
	s.speedDefault = fn == nil
	if fn == nil {
		fn = func(*proc.Task) float64 { return 1 }
	}
	s.speed = fn
}

// Cores returns the core count.
func (s *Scheduler) Cores() int { return s.cores }

// Register adds a task to the scheduler's purview: it becomes a runnable
// candidate and gets its prebuilt I/O-completion callback. The scheduler
// keeps no other record of it: a task that dies while queued leaves at the
// next tick, and one that dies off the queue has already left.
func (s *Scheduler) Register(t *proc.Task) {
	t.UnblockFn = func() {
		t.Unblock()
		s.enqueue(t)
		s.kick()
	}
	s.enqueue(t)
}

// enqueue puts t on the runnable-candidate queue (idempotent).
func (s *Scheduler) enqueue(t *proc.Task) {
	if t.InRunq {
		return
	}
	t.InRunq = true
	s.runq = append(s.runq, t)
}

// Wake re-enqueues p's tasks as runnable candidates and kicks the
// scheduler. Thawing is the one runnability transition the scheduler cannot
// observe, and a frozen task has left the queue, so whoever thaws a process
// wakes it once the thaw latency has elapsed.
func (s *Scheduler) Wake(p *proc.Process) {
	for _, t := range p.Tasks {
		s.enqueue(t)
	}
	s.kick()
}

// SetForegroundUID tells the scheduler which UID is foreground, for CPU
// accounting (and for weight policies that consult it).
func (s *Scheduler) SetForegroundUID(uid int) { s.fgUID = uid }

// SetWeightFn installs an effective-weight policy (UCSG). nil restores the
// default (the task's own weight).
func (s *Scheduler) SetWeightFn(fn func(*proc.Task) int) {
	if fn == nil {
		fn = func(t *proc.Task) int { return t.Weight }
	}
	s.weight = fn
}

// ResetStats zeroes CPU accounting.
func (s *Scheduler) ResetStats() {
	s.busy = [numCPUClasses]sim.Time{}
	s.busyPerSec = s.busyPerSec[:0]
	s.started = s.eng.Now()
}

// Stats returns a snapshot of the accumulated CPU accounting.
func (s *Scheduler) Stats() Stats {
	st := Stats{
		Busy:   s.busy,
		Window: s.eng.Now() - s.started,
		Cores:  s.cores,
	}
	st.BusyPerSecond = append(st.BusyPerSecond, s.busyPerSec...)
	return st
}

// kick ensures a scheduling tick is pending. Post, Wake and the unblock
// callbacks call it.
func (s *Scheduler) kick() {
	if s.tickArmed {
		return
	}
	s.tickArmed = true
	s.eng.After(0, s.tickFn)
}

// Post enqueues work on t and kicks the scheduler. This is the preferred
// way for the framework and application models to submit work.
func (s *Scheduler) Post(t *proc.Task, w *proc.Work) bool {
	ok := t.Post(s.eng.Now(), w)
	if ok {
		s.enqueue(t)
		s.kick()
	}
	return ok
}

// quantumName maps a CPU class to the static span label used for
// CatSched trace events (Event.Name must not be built per call).
var quantumName = [numCPUClasses]string{
	CPUKernel:        "quantum-kernel",
	CPUService:       "quantum-service",
	CPUForegroundApp: "quantum-fg",
	CPUBackgroundApp: "quantum-bg",
}

func (s *Scheduler) classify(t *proc.Task) CPUClass {
	switch t.Proc.Kind {
	case proc.KindKernel:
		return CPUKernel
	case proc.KindService:
		return CPUService
	default:
		if t.Proc.UID == s.fgUID {
			return CPUForegroundApp
		}
		return CPUBackgroundApp
	}
}

func (s *Scheduler) noteBusy(class CPUClass, used sim.Time) {
	s.busy[class] += used
	sec := int((s.eng.Now() - s.started) / sim.Second)
	if sec < 0 {
		sec = 0
	}
	for len(s.busyPerSec) <= sec {
		s.busyPerSec = append(s.busyPerSec, 0)
	}
	s.busyPerSec[sec] += used
}

// wakeupBonus places freshly runnable tasks slightly ahead of the pack,
// approximating CFS's sleeper fairness.
const wakeupBonus = int64(3 * sim.Millisecond)

// tick runs one scheduling round: pick up to cores runnable tasks by
// minimum virtual runtime, give each a quantum, and re-arm if anything is
// still runnable.
func (s *Scheduler) tick() {
	now := s.eng.Now()

	// At most one execution round per quantum: work posted mid-round (e.g.
	// by an OnDone callback) must wait for the next boundary, otherwise a
	// single instant could dispense unbounded CPU. tickArmed stays true
	// throughout: kicks issued while executing must not enqueue duplicate
	// tick events.
	if now < s.nextAllowed {
		s.eng.At(s.nextAllowed, s.tickFn)
		return
	}
	s.nextAllowed = now + Quantum

	// One pass filters the candidate queue, in place, down to the
	// runnable set. Candidates found not runnable leave the queue: a dead
	// task can never run again, and whatever event could make a live one
	// runnable re-enqueues it (see the runq field). The cleared tail keeps
	// no pointer to a task that left.
	queued := len(s.runq)
	runnable := s.runq[:0]
	for _, t := range s.runq {
		if t.Runnable(now) {
			runnable = append(runnable, t)
		} else {
			t.InRunq = false
		}
	}
	clear(s.runq[len(runnable):queued])
	s.runq = runnable
	s.runqueue.Set(int64(len(runnable)))

	if len(runnable) == 0 {
		s.tickArmed = false
		return
	}

	// Normalise virtual runtimes so long sleepers don't monopolise cores.
	min := runnable[0].VRuntime
	for _, t := range runnable[1:] {
		if t.VRuntime < min {
			min = t.VRuntime
		}
	}
	if min > s.minV {
		s.minV = min
	}
	floor := s.minV - wakeupBonus
	for _, t := range runnable {
		if t.VRuntime < floor {
			t.VRuntime = floor
		}
	}

	// Partial selection: only the cores lowest-vruntime tasks run this
	// quantum, so selecting them in order (O(cores·n), allocation-free)
	// replaces a full reflect-driven sort. (VRuntime, TID) is a strict
	// total order — TIDs are unique — so the selected prefix is exactly
	// the prefix a full sort would produce, whatever order the queue
	// held the candidates in. Selection swaps within runq; tasks enqueued
	// while the selected ones execute append past this round's set.
	n := len(runnable)
	if n > s.cores {
		n = s.cores
	}
	for i := 0; i < n; i++ {
		min := i
		for j := i + 1; j < len(runnable); j++ {
			if runnable[j].VRuntime < runnable[min].VRuntime ||
				(runnable[j].VRuntime == runnable[min].VRuntime && runnable[j].TID < runnable[min].TID) {
				min = j
			}
		}
		runnable[i], runnable[min] = runnable[min], runnable[i]
	}
	for _, t := range runnable[:n] {
		speed := 1.0
		if !s.speedDefault {
			speed = s.speed(t)
			if speed <= 0 {
				speed = 1
			}
		}
		workBudget := Quantum
		if speed != 1 {
			// Only off-speed tasks need the float scaling; the common
			// uniform-speed case stays in integer arithmetic.
			workBudget = sim.Time(float64(Quantum) * speed)
			if workBudget < 1 {
				workBudget = 1
			}
		}
		used, blockedUntil := t.Execute(now, workBudget)
		if used > 0 {
			// Core occupancy is the work done divided by the speed: a slow
			// task burns full quanta to make partial progress.
			coreTime := used
			if speed != 1 {
				coreTime = sim.Time(float64(used) / speed)
			}
			if coreTime > Quantum {
				coreTime = Quantum
			}
			w := s.weight(t)
			if w <= 0 {
				w = proc.DefaultWeight
			}
			if w == proc.DefaultWeight {
				t.VRuntime += int64(coreTime)
			} else {
				t.VRuntime += int64(coreTime) * proc.DefaultWeight / int64(w)
			}
			class := s.classify(t)
			s.noteBusy(class, coreTime)
			s.quanta[class].Inc()
			s.tr.Span(now, trace.CatSched, quantumName[class], t.Proc.PID,
				coreTime, int64(used), int64(t.Proc.UID))
		}
		if blockedUntil > 0 {
			s.eng.At(blockedUntil, t.UnblockFn)
		}
	}

	// Re-arm while anything can still run; otherwise disarm so the next
	// kick restarts the loop. runq now holds this round's runnable set
	// plus every task enqueued mid-round. Post from an OnDone or Setup
	// callback is the only way a task gains runnability inside a round:
	// thaws and I/O unblocks arrive as separate engine events, and
	// simulated time does not advance within a round. So scanning runq
	// decides exactly as a scan of every task would.
	for _, t := range s.runq {
		if t.Runnable(now) {
			s.eng.At(s.nextAllowed, s.tickFn)
			return
		}
	}
	s.tickArmed = false
}
