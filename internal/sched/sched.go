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
	"math"
	"slices"

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
	// burners and order are burn's scratch, one entry per queued task:
	// the burners, and pointers to them in the order being sorted.
	burners []burner
	order   []*burner

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

// noteBusy charges used core time of class to the round run at at.
func (s *Scheduler) noteBusy(at sim.Time, class CPUClass, used sim.Time) {
	s.busy[class] += used
	s.busyPerSec[s.second(at)] += used
}

// second returns the index of the one-second busyPerSec bucket holding
// at, growing the series to reach it.
func (s *Scheduler) second(at sim.Time) int {
	sec := int((at - s.started) / sim.Second)
	if sec < 0 {
		sec = 0
	}
	for len(s.busyPerSec) <= sec {
		s.busyPerSec = append(s.busyPerSec, 0)
	}
	return sec
}

// wakeupBonus places freshly runnable tasks slightly ahead of the pack,
// approximating CFS's sleeper fairness.
const wakeupBonus = int64(3 * sim.Millisecond)

// filter drops from runq, in place, every task not runnable at now; a
// round starts with it. A dead task can never run again, and whatever
// event could make a live one runnable re-enqueues it (see the runq
// field). The cleared tail keeps no pointer to a task that left. It
// returns the least vruntime of the tasks that stay.
func (s *Scheduler) filter(now sim.Time) (least int64) {
	queued := len(s.runq)
	runnable := s.runq[:0]
	least = math.MaxInt64
	for _, t := range s.runq {
		if t.Runnable(now) {
			runnable = append(runnable, t)
			least = min(least, t.VRuntime)
		} else {
			t.InRunq = false
		}
	}
	clear(s.runq[len(runnable):queued])
	s.runq = runnable
	return least
}

// floor returns what a round whose least vruntime is least lifts minV
// to, least if that is higher, and the floor below which it lifts a
// task: that minV less the wakeup bonus. Lifting normalises virtual
// runtimes so long sleepers don't monopolise cores.
func (s *Scheduler) floor(least int64) (minV, floor int64) {
	minV = max(least, s.minV)
	return minV, minV - wakeupBonus
}

// runsBefore is the order a round runs tasks in: by (vruntime, TID), a
// strict total order, since TIDs are unique.
func runsBefore(a, b *proc.Task) bool {
	return a.VRuntime < b.VRuntime || (a.VRuntime == b.VRuntime && a.TID < b.TID)
}

// liftSort lifts each task of ts below floor to it and insertion-sorts
// ts into the order a round runs them in. A round's queue mostly keeps
// the order of the round before, so the sort is close to linear.
func liftSort(ts []*proc.Task, floor int64) {
	for i, t := range ts {
		t.VRuntime = max(t.VRuntime, floor)
		j := i
		for ; j > 0 && runsBefore(t, ts[j-1]); j-- {
			ts[j] = ts[j-1]
		}
		ts[j] = t
	}
}

// budget returns the work t completes in one quantum, and its speed.
func (s *Scheduler) budget(t *proc.Task) (sim.Time, float64) {
	speed := 1.0
	if !s.speedDefault {
		speed = s.speed(t)
		if speed <= 0 {
			speed = 1
		}
	}
	budget := Quantum
	if speed != 1 {
		// Only off-speed tasks need the float scaling; the common
		// uniform-speed case stays in integer arithmetic.
		budget = sim.Time(float64(Quantum) * speed)
		if budget < 1 {
			budget = 1
		}
	}
	return budget, speed
}

// charge returns the core time a quantum in which t did used work at
// speed occupies, and the virtual runtime it adds to t.
func (s *Scheduler) charge(t *proc.Task, used sim.Time, speed float64) (sim.Time, int64) {
	// Core occupancy is the work done divided by the speed: a slow task
	// burns full quanta to make partial progress.
	core := used
	if speed != 1 {
		core = sim.Time(float64(used) / speed)
	}
	if core > Quantum {
		core = Quantum
	}
	w := s.weight(t)
	if w <= 0 {
		w = proc.DefaultWeight
	}
	if w == proc.DefaultWeight {
		return core, int64(core)
	}
	return core, int64(core) * proc.DefaultWeight / int64(w)
}

// tick runs one scheduling round: pick up to cores runnable tasks by
// minimum virtual runtime, give each a quantum, and re-arm if anything is
// still runnable. Burn rounds that follow are applied at once (burn).
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

	least := s.filter(now)
	runnable := s.runq
	s.runqueue.Set(int64(len(runnable)))

	if len(runnable) == 0 {
		s.tickArmed = false
		return
	}

	// The cores first tasks of the sorted queue run this quantum. Since
	// the order is strict and total, which tasks run, and in what order,
	// never depends on the order the queue held them in. Tasks enqueued
	// while the selected ones execute append past this round's set.
	var floor int64
	s.minV, floor = s.floor(least)
	liftSort(runnable, floor)
	n := min(len(runnable), s.cores)
	for _, t := range runnable[:n] {
		budget, speed := s.budget(t)
		used, blockedUntil := t.Execute(now, budget)
		if used > 0 {
			core, dv := s.charge(t, used, speed)
			t.VRuntime += dv
			class := s.classify(t)
			s.noteBusy(now, class, core)
			s.quanta[class].Inc()
			s.tr.Span(now, trace.CatSched, quantumName[class], t.Proc.PID,
				core, int64(used), int64(t.Proc.UID))
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
			s.burn()
			s.eng.At(s.nextAllowed, s.tickFn)
			return
		}
	}
	s.tickArmed = false
}

// burner is one task's part in a burn: its work budget, core time,
// vruntime increment and class per round, read once for the whole burn.
type burner struct {
	t      *proc.Task
	budget sim.Time
	core   sim.Time
	dv     int64
	class  CPUClass
	// n is how many rounds the task can burn (Task.Burnable), and c how
	// many it ran.
	n, c int64
	// v0 is the task's vruntime once the first round has lifted it, and
	// v its vruntime at the start of the round being ordered.
	v0, v int64
}

// before orders burners as tick runs tasks: by (vruntime, TID).
func (b *burner) before(o *burner) bool {
	return b.v < o.v || (b.v == o.v && b.t.TID < o.t.TID)
}

// sortBurners insertion-sorts bs by (v, TID). Consecutive rounds mostly
// keep their order, so each sort after the first is close to linear.
func sortBurners(bs []*burner) {
	for i, b := range bs {
		j := i
		for ; j > 0 && b.before(bs[j-1]); j-- {
			bs[j] = bs[j-1]
		}
		bs[j] = b
	}
}

// burn applies at once the burn rounds that follow the round tick just
// ran, and moves nextAllowed past them. A burn round is one in which
// every task that gets a core only burns CPU on its in-progress item.
// No engine event runs between such rounds, so they can be applied
// together: each counter, the vruntimes, the busy series and the trace
// come out exactly as k ticks would leave them (DESIGN §11, "Burn
// rounds"). Rounds are taken up to the engine's Calm, so no pending
// event and no caller of RunUntil can observe one early.
func (s *Scheduler) burn() {
	start := s.nextAllowed
	calm := s.eng.Calm()
	if calm < start {
		return
	}
	// The tick at start is the next event, and its round would begin
	// with this filter. Its first round lifts as tick does. Later rounds
	// lift nothing: every vruntime has grown since, while the floor
	// stays put or trails the least of them.
	minV, floor := s.floor(s.filter(start))
	k := int64((calm-start)/Quantum) + 1
	all := len(s.runq) <= s.cores
	s.burners = slices.Grow(s.burners[:0], len(s.runq))[:len(s.runq)]
	s.order = slices.Grow(s.order[:0], len(s.runq))[:len(s.runq)]
	for i, t := range s.runq {
		budget, speed := s.budget(t)
		n := t.Burnable(budget)
		if all {
			// Every task runs every round, so the burn ends before any
			// item would finish.
			if k = min(k, n); k == 0 {
				return
			}
		}
		b := &s.burners[i]
		b.t, b.budget, b.n, b.c = t, budget, n, 0
		b.core, b.dv = s.charge(t, budget, speed)
		b.class = s.classify(t)
		b.v0 = max(t.VRuntime, floor)
		b.v = b.v0
		s.order[i] = b
	}
	bs := s.order
	var last int64
	if all {
		last = s.burnAll(bs, start, k)
	} else if k, last = s.burnRounds(bs, start, k); k == 0 {
		return
	}

	// minV rises to the least vruntime at the last round's start. runq
	// takes bs's order, sorted for the last round or the one after it;
	// selection is a strict total order, so no result reads it.
	s.minV = max(minV, last)
	for i, b := range bs {
		s.runq[i] = b.t
		b.t.VRuntime = b.v0 + b.c*b.dv
		if b.c > 0 {
			b.t.Burn(b.c, b.budget)
			s.busy[b.class] += sim.Time(b.c) * b.core
			s.quanta[b.class].Add(uint64(b.c))
		}
	}
	s.runqueue.Set(int64(len(s.runq)))
	s.nextAllowed = start + sim.Time(k)*Quantum
}

// burnAll applies the busy series and trace of k rounds from start in
// which every burner has a core, and returns the least vruntime at the
// last one's start. Each round is the same, so the sums have a closed
// form.
func (s *Scheduler) burnAll(bs []*burner, start sim.Time, k int64) int64 {
	var perRound sim.Time
	for _, b := range bs {
		b.c = k
		perRound += b.core
	}
	if s.tr != nil {
		s.traceBurn(bs, start, k)
	}
	for _, b := range bs {
		b.v = b.v0 + (k-1)*b.dv
	}
	sortBurners(bs)
	for j := int64(0); j < k; {
		at := start + sim.Time(j)*Quantum
		sec := s.second(at)
		// The rounds before the next second's boundary share this bucket.
		n := int64((s.started + sim.Time(sec+1)*sim.Second - at + Quantum - 1) / Quantum)
		n = min(n, k-j)
		s.busyPerSec[sec] += sim.Time(n) * perRound
		j += n
	}
	return bs[0].v
}

// burnRounds steps up to k rounds from start in which more burners are
// queued than there are cores, applying each one's busy series and
// trace. Each round runs the cores least burners by (v, TID), as tick
// would, and it stops before a round that would give one of them more
// rounds than it can burn. It returns the rounds run and the least
// vruntime at the last one's start.
func (s *Scheduler) burnRounds(bs []*burner, start sim.Time, k int64) (ran, last int64) {
	for ; ran < k; ran++ {
		sortBurners(bs)
		run := bs[:s.cores]
		for _, b := range run {
			if b.c == b.n {
				return ran, last
			}
		}
		at := start + sim.Time(ran)*Quantum
		last = run[0].v
		var total sim.Time
		for _, b := range run {
			if s.tr != nil {
				s.tr.Span(at, trace.CatSched, quantumName[b.class], b.t.Proc.PID,
					b.core, int64(b.budget), int64(b.t.Proc.UID))
			}
			total += b.core
			b.c++
			b.v += b.dv
		}
		s.busyPerSec[s.second(at)] += total
	}
	return ran, last
}

// traceBurn emits the CatSched spans of k burn rounds from start, each
// round's in the (vruntime, TID) order tick runs them in.
func (s *Scheduler) traceBurn(bs []*burner, start sim.Time, k int64) {
	for j := int64(0); j < k; j++ {
		sortBurners(bs)
		at := start + sim.Time(j)*Quantum
		for _, b := range bs {
			s.tr.Span(at, trace.CatSched, quantumName[b.class], b.t.Proc.PID,
				b.core, int64(b.budget), int64(b.t.Proc.UID))
			b.v += b.dv
		}
	}
}
