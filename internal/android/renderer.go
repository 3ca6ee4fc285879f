package android

import (
	"github.com/eurosys23/ice/internal/metrics"
	"github.com/eurosys23/ice/internal/proc"
	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/trace"
)

// VsyncPeriod is the 60 Hz display refresh interval.
const VsyncPeriod = sim.Time(16667)

// Renderer models the Choreographer/SurfaceFlinger frame pipeline of the
// foreground application. Every vsync posts a frame job on the app's UI
// task; the job touches the foreground working set (page faults!) and
// allocates transient surface pages (direct-reclaim exposure!), then burns
// per-frame CPU. Frames that miss the 16.6 ms budget are interaction
// alerts; frames rejected by a saturated queue are drops. FPS and RIA are
// derived by metrics.FrameRecorder.
type Renderer struct {
	sys *System
	rng *sim.Rand

	active bool
	seq    int
	inst   *Instance

	// contentCredit paces frame production at the app's content rate
	// (frames accumulate fractionally per vsync).
	contentCredit float64
	// growCredit paces footprint growth (pages accumulate fractionally
	// per frame).
	growCredit float64
	// streamCredit paces file-cache ingestion.
	streamCredit float64

	// Rec accumulates frame results for the current session.
	Rec *metrics.FrameRecorder

	// Debug accounting: cumulative frame-path costs by source.
	DbgStall sim.Time // synchronous memory stalls (faults, locks, reclaim)
	DbgBlock sim.Time // I/O block time

	// free holds frame records ready for reuse (see frameWork).
	free []*frameWork
}

// NewRenderer creates a renderer for the system.
func NewRenderer(sys *System) *Renderer {
	return &Renderer{
		sys: sys,
		rng: sys.rng.Split(),
		Rec: metrics.NewFrameRecorder(sys.Eng.Now()),
	}
}

// Start begins a 60 Hz render session on the given (foreground) app. Any
// previous session stops. Frame statistics restart from now.
func (r *Renderer) Start(in *Instance) {
	r.Stop()
	r.active = true
	r.seq++
	r.inst = in
	// The pipeline renders the freshest content: at most one frame queued
	// behind the one executing; anything more is dropped, not delayed.
	if in.uiTask != nil {
		in.uiTask.SetMaxQueue(2)
	}
	r.Rec.Reset(r.sys.Eng.Now())
	seq := r.seq
	r.sys.Eng.Every(VsyncPeriod, func() bool {
		if seq != r.seq || !r.active {
			return false
		}
		r.postFrame()
		return true
	})
	if p := in.Spec.Render; p.BurstPages > 0 && p.BurstPeriod > 0 {
		r.sys.Eng.Every(p.BurstPeriod, func() bool {
			if seq != r.seq || !r.active {
				return false
			}
			r.postBurst(p.BurstPages)
			return true
		})
	}
}

// postBurst models an episodic allocation spike (a new game round): the
// pages are acquired in chunks on a worker task, stressing the allocation
// path while frames keep rendering.
func (r *Renderer) postBurst(pages int) {
	in := r.inst
	if in == nil || len(in.workers) == 0 {
		return
	}
	const chunks = 4
	task := in.workers[0]
	for i := 0; i < chunks; i++ {
		n := pages / chunks
		r.sys.Sched.Post(task, &proc.Work{
			Name: "alloc-burst",
			Setup: func() (sim.Time, sim.Time) {
				c := in.grow(n, 1.5)
				return c.Stall, c.BlockUntil
			},
			CPU: scaleCPU(30*sim.Millisecond, r.sys),
		})
	}
}

// Stop ends the render session.
func (r *Renderer) Stop() {
	if r.inst != nil && r.inst.uiTask != nil {
		r.inst.uiTask.SetMaxQueue(3)
	}
	r.active = false
	r.inst = nil
}

func (r *Renderer) postFrame() {
	in := r.inst
	if in == nil || in.uiTask == nil || in.state != StateForeground {
		return
	}
	sys := r.sys
	profile := in.Spec.Render

	// Pace at the app's content rate: a 46 fps video call produces 46
	// frames per second of wall time regardless of the 60 Hz vsync.
	rate := profile.ContentFPS
	if rate <= 0 || rate > 60 {
		rate = 60
	}
	r.contentCredit += rate / 60
	if r.contentCredit < 1 {
		return
	}
	r.contentCredit--

	vsync := sys.Eng.Now()
	alloc := profile.AllocPages

	var grow int
	if profile.GrowPages > 0 && rate > 0 {
		r.growCredit += float64(profile.GrowPages) / rate
		grow = int(r.growCredit)
		r.growCredit -= float64(grow)
	}
	var stream int
	if profile.StreamPages > 0 && rate > 0 {
		r.streamCredit += float64(profile.StreamPages) / rate
		stream = int(r.streamCredit)
		r.streamCredit -= float64(stream)
	}

	f := r.frame()
	f.in, f.touch, f.alloc, f.grow, f.stream = in, profile.TouchPages, alloc, grow, stream
	f.CPU = r.frameCPU(profile.BaseCPU, profile.CPUJitter)
	if !sys.Sched.Post(in.uiTask, &f.Work) {
		r.free = append(r.free, f)
		// Queue full: the frame is dropped outright.
		r.Rec.RecordDrop(vsync)
		sys.ins.frameDrops.Inc()
		sys.Trace.Emit(trace.Event{
			When: vsync, Cat: trace.CatFrame, Name: "frame-drop", Subject: in.UID,
		})
	}
}

// frameWork is one frame's job on the UI task and what its Setup and
// OnDone read. A renderer recycles them: a frame returns to the free
// list when it completes or when Post refuses it, so steady rendering
// allocates nothing.
type frameWork struct {
	proc.Work
	r                          *Renderer
	in                         *Instance
	touch, alloc, grow, stream int
	execStart                  sim.Time
}

// frame takes a frame record from the free list, or makes one.
func (r *Renderer) frame() *frameWork {
	if n := len(r.free); n > 0 {
		f := r.free[n-1]
		r.free = r.free[:n-1]
		return f
	}
	f := &frameWork{r: r}
	f.Name = "frame"
	f.Setup = f.setup
	f.OnDone = f.done
	return f
}

func (f *frameWork) setup() (sim.Time, sim.Time) {
	r, in := f.r, f.in
	sys := r.sys
	f.execStart = sys.Eng.Now()
	// Touch the frame's working set, then allocate transient
	// surface/scratch pages and this frame's share of footprint
	// growth. All three paths stall under memory pressure: faults
	// serve from ZRAM/flash, allocations can enter the slow path
	// and direct reclaim.
	cost := in.touchMixHot(f.touch, 0.65)
	if f.alloc > 0 {
		cost.Add(sys.MM.AllocTransient(f.alloc))
	}
	if f.grow > 0 {
		cost.Add(in.grow(f.grow, 1.4))
	}
	if f.stream > 0 {
		cost.Add(in.streamFile(f.stream))
	}
	r.DbgStall += cost.Stall
	if cost.BlockUntil > sys.Eng.Now() {
		r.DbgBlock += cost.BlockUntil - sys.Eng.Now()
	}
	return cost.Stall, cost.BlockUntil
}

func (f *frameWork) done(_, end sim.Time) {
	r, start := f.r, f.execStart
	sys := r.sys
	if f.alloc > 0 {
		sys.MM.FreeTransient(f.alloc)
	}
	// Frame time is measured from execution start (Systrace's
	// doFrame duration): the 16.6 ms interaction-alert budget is
	// about render time, while pipeline overload shows up as
	// dropped frames and reduced FPS.
	r.Rec.RecordFrame(start, end)
	sys.ins.frameLatency.Observe(int64(end - start))
	sys.Trace.Span(start, trace.CatFrame, "frame",
		f.in.UID, end-start, int64(end-start), 0)
	r.free = append(r.free, f)
}

func (r *Renderer) frameCPU(base sim.Time, jitter float64) sim.Time {
	cpu := scaleCPU(base, r.sys)
	// Log-ish tail: most frames are near base cost, a few are heavy
	// (layout passes, animation starts).
	v := r.rng.Jitter(cpu, jitter)
	if r.rng.Bool(0.06) {
		v += sim.Time(r.rng.Exp(float64(cpu) * 0.5))
	}
	return v
}
