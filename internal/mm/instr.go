package mm

import (
	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/trace"
)

// instruments caches the manager's registry handles so hot paths pay one
// pointer dereference, not a map lookup. They are the only store of the
// counts Manager.Stats reports. All fields may be nil (registry absent);
// obs instruments are nil-safe.
type instruments struct {
	reclaimPages   *obs.Counter
	reclaimScans   *obs.Counter
	kswapdWakeups  *obs.Counter
	writebackPages *obs.Counter
	zramRejects    *obs.Counter
	refaultPages   *obs.Counter
	refaultFG      *obs.Counter
	refaultBG      *obs.Counter
	refaultByClass [numClasses]*obs.Counter
	directEpisodes *obs.Counter
	directStall    *obs.Histogram
	lockWait       *obs.Histogram
	thrashStall    *obs.Histogram
}

// register binds the manager's instruments to reg (a no-op on nil).
func (in *instruments) register(reg *obs.Registry) {
	in.reclaimPages = reg.Counter("mm.reclaim.pages")
	in.reclaimScans = reg.Counter("mm.reclaim.scans")
	in.kswapdWakeups = reg.Counter("mm.kswapd.wakeups")
	in.writebackPages = reg.Counter("mm.writeback.pages")
	in.zramRejects = reg.Counter("mm.zram.rejects")
	in.refaultPages = reg.Counter("mm.refault.pages")
	in.refaultFG = reg.Counter("mm.refault.fg")
	in.refaultBG = reg.Counter("mm.refault.bg")
	in.refaultByClass[File] = reg.Counter("mm.refault.file")
	in.refaultByClass[AnonNative] = reg.Counter("mm.refault.anon_native")
	in.refaultByClass[AnonJava] = reg.Counter("mm.refault.anon_java")
	in.directEpisodes = reg.Counter("mm.direct_reclaim.episodes")
	in.directStall = reg.Histogram("mm.direct_reclaim.stall_us")
	in.lockWait = reg.Histogram("mm.lock.wait_us")
	in.thrashStall = reg.Histogram("mm.thrash.stall_us")
}

// reset zeroes every counter and histogram (a no-op on nil).
func (in *instruments) reset() {
	for _, c := range [...]*obs.Counter{
		in.reclaimPages, in.reclaimScans, in.kswapdWakeups, in.writebackPages,
		in.zramRejects, in.refaultPages, in.refaultFG, in.refaultBG,
		in.refaultByClass[File], in.refaultByClass[AnonNative], in.refaultByClass[AnonJava],
		in.directEpisodes,
	} {
		c.Reset()
	}
	in.directStall.Reset()
	in.lockWait.Reset()
	in.thrashStall.Reset()
}

// SetTrace attaches a trace buffer; the manager emits CatMM spans for
// kswapd and direct-reclaim episodes into it. A nil buffer is valid.
func (m *Manager) SetTrace(b *trace.Buffer) { m.tr = b }
