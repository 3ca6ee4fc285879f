package mm

import (
	"math"

	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/trace"
	"github.com/eurosys23/ice/internal/zram"
)

// EvictionPolicy lets schemes steer reclaim victim selection. Acclaim's
// foreground-aware eviction (FAE) is implemented as a policy; the default
// (nil) is plain LRU.
type EvictionPolicy interface {
	// Name identifies the policy in traces.
	Name() string
	// Protect reports whether reclaim should pass over pages of uid/class
	// this scan (the page is rotated back instead of evicted). fgUID is the
	// current foreground application.
	Protect(uid int, class Class, fgUID int) bool
}

// AggressivePolicy is the optional second half of Acclaim's FAE: "pages
// belonging to the BG application prefer to be reclaimed even if their
// activity is higher than some of the FG pages" — i.e. background pages
// lose their second chance. This is what makes background refaults rise
// under Acclaim (the +4.3% the paper observes).
type AggressivePolicy interface {
	// EvictReferenced reports whether a referenced page of uid may be
	// evicted without a second chance.
	EvictReferenced(uid int, fgUID int) bool
}

// reclaimResult summarises one reclaim episode.
type reclaimResult struct {
	reclaimed int
	scanned   int
	cpu       sim.Time
	writeback int
}

// demoteIfNeeded refills an inactive list from its active list, modelling
// the kernel's ageing. One demotion pass moves up to want pages.
func (m *Manager) demoteIfNeeded(c Class, want int) sim.Time {
	act, inact := activeList(c), inactiveList(c)
	var cpu sim.Time
	for i := 0; i < want; i++ {
		if m.lists[inact].count >= m.lists[act].count {
			break
		}
		id := m.lists[act].back()
		if id == nilPage {
			break
		}
		p := m.arena.at(id)
		p.flags &^= pgReferenced
		// Ageing halves hotness: a page that stops being touched cools
		// exponentially (the signal Ariadne's codec choice reads).
		p.heat >>= 1
		m.addToLRU(id, inact)
		cpu += m.cfg.ScanCost
	}
	return cpu
}

// randomVictim samples the page arena for an evictable page: resident, on
// an inactive list, not recently referenced. It fails after a few misses
// (the caller falls back to scanning again).
func (m *Manager) randomVictim() (PageID, bool) {
	if m.arena.len() == 0 {
		return nilPage, false
	}
	for try := 0; try < 16; try++ {
		id := PageID(m.rng.Intn(m.arena.len()))
		p := m.arena.at(id)
		if p.state != Resident {
			continue
		}
		if p.referenced() {
			// Aggressive policies (Acclaim's FAE) sacrifice even active
			// background pages.
			if m.aggressive == nil || !m.aggressive.EvictReferenced(m.uidOf(p), m.fgUID) {
				continue
			}
		}
		if p.list == lInactiveAnon || p.list == lInactiveFile {
			return id, true
		}
	}
	return nilPage, false
}

// pickScanList chooses which inactive list to scan next, balancing anon and
// file pressure by occupancy (a simplified scan-balance heuristic).
func (m *Manager) pickScanList() (listID, bool) {
	af := m.lists[lInactiveFile].count
	aa := m.lists[lInactiveAnon].count
	switch {
	case af == 0 && aa == 0:
		return lNone, false
	case af == 0:
		return lInactiveAnon, true
	case aa == 0:
		return lInactiveFile, true
	}
	// Scan proportionally to list size, which drains the larger pool
	// faster, as the kernel's scan balancing does in the common case.
	if m.rng.Float64()*float64(af+aa) < float64(af) {
		return lInactiveFile, true
	}
	return lInactiveAnon, true
}

// reclaimPages evicts up to target pages, honouring second chances and the
// installed eviction policy. It is the shared engine behind kswapd and
// direct reclaim.
func (m *Manager) reclaimPages(target int) reclaimResult {
	var res reclaimResult
	// Keep the inactive lists stocked before scanning.
	res.cpu += m.demoteIfNeeded(AnonJava, target)
	res.cpu += m.demoteIfNeeded(File, target)

	scanBudget := target * 4
	for res.reclaimed < target && res.scanned < scanBudget {
		var id PageID
		var list listID
		if m.rng.Float64() < m.cfg.MemcgScanFraction {
			// Proportional (memcg-style) scan: sample the resident
			// population so every application — the foreground included —
			// contributes victims in proportion to its size.
			var ok bool
			id, ok = m.randomVictim()
			if !ok {
				res.scanned++
				continue
			}
			list = m.arena.at(id).list
		} else {
			var ok bool
			list, ok = m.pickScanList()
			if !ok {
				break
			}
			id = m.lists[list].back()
			if id == nilPage {
				break
			}
		}
		p := m.arena.at(id)
		res.scanned++
		res.cpu += m.cfg.ScanCost

		if p.referenced() {
			evictAnyway := false
			if m.aggressive != nil && m.aggressive.EvictReferenced(m.uidOf(p), m.fgUID) {
				evictAnyway = true
			}
			p.flags &^= pgReferenced
			if !evictAnyway {
				// Second chance: recently used pages are activated instead
				// of evicted.
				m.addToLRU(id, activeList(p.class))
				continue
			}
		}
		if m.policy != nil && m.policy.Protect(m.uidOf(p), p.class, m.fgUID) {
			// Policy says hands off (e.g. Acclaim protecting FG pages):
			// rotate to the active list so the scan makes progress.
			m.addToLRU(id, activeList(p.class))
			continue
		}
		if p.class.Anon() {
			cost, ref, ok := m.z.Store(zram.PageInfo{Java: p.class == AnonJava, Heat: p.heat})
			if !ok {
				// ZRAM full: anonymous reclaim is off the table. Rotate and
				// remember the rejection; file pages may still be viable.
				m.ins.zramRejects.Inc()
				m.noteSwapFull()
				m.addToLRU(id, activeList(p.class))
				continue
			}
			p.zref = ref
			res.cpu += cost
		}
		cheapDrop := p.class == File && !p.dirty()
		if p.class == File && p.dirty() {
			res.writeback++
			p.flags &^= pgDirty
		}
		// Evict: drop residency and record the shadow entry in the prev
		// link the unlink just freed.
		m.lists[list].remove(&m.arena, id)
		p.list = lNone
		p.state = Evicted
		p.setShadow(m.tickEvictClock())
		m.resident--
		res.reclaimed++
		if cheapDrop {
			res.cpu += m.cfg.UnmapCost / 4
		} else {
			res.cpu += m.cfg.UnmapCost
		}
		m.noteReclaim(p.class, cheapDrop)
	}
	if res.writeback > 0 {
		// Dirty file pages stream to flash asynchronously; nothing in the
		// reclaim path waits for them, but they occupy the device queue
		// (delaying foreground reads — interference source two in §2.2.3).
		m.disk.Write(res.writeback, nil)
		m.ins.writebackPages.Add(uint64(res.writeback))
	}
	// Reclaim holds the LRU/zone lock while it isolates and unmaps pages;
	// that occupancy is what concurrent faulting tasks queue behind.
	if res.reclaimed > 0 {
		m.lockWait(sim.Time(res.reclaimed)*m.cfg.LockHoldPerReclaim, false)
	}
	m.ins.reclaimScans.Add(uint64(res.scanned))
	return res
}

func (m *Manager) noteReclaim(c Class, cheap bool) {
	m.reclaimByClass[c]++
	m.ins.reclaimPages.Inc()
	m.series.noteReclaim(m.second())
	// Weights in tenths: dropping clean file cache is cheap; unmapping and
	// compressing anonymous pages costs more; refault service (weighted in
	// fault.go) is the most disruptive, being synchronous random I/O.
	weight := 7
	if cheap {
		weight = 3
	}
	m.thrash.note(m.eng.Now(), m.cfg.ThrashWindow, weight)
}

// tickEvictClock advances the eviction clock and returns it: the shadow
// entry of the page being evicted. It panics rather than wrap, which
// would give every later refault a wrong distance.
func (m *Manager) tickEvictClock() uint32 {
	if m.evictClock == math.MaxUint32 {
		panic("mm: an eviction would take the eviction clock past 2^32-1")
	}
	m.evictClock++
	return m.evictClock
}

// KswapdStep performs one background-reclaim quantum. It returns the CPU
// consumed, the pages reclaimed, and whether kswapd should keep running.
// The android layer wires this into the kswapd kernel task's work loop.
func (m *Manager) KswapdStep() (cpu sim.Time, reclaimed int, more bool) {
	if !m.BelowHigh() {
		return 0, 0, false
	}
	res := m.reclaimPages(m.cfg.KswapdBatch)
	m.fireSwapFull()
	m.kswapdReclaimed += uint64(res.reclaimed)
	m.tr.Span(m.eng.Now(), trace.CatMM, "kswapd-reclaim", 0, res.cpu,
		int64(res.reclaimed), int64(res.scanned))
	if res.reclaimed == 0 {
		// Nothing reclaimable: give up rather than spin; allocation
		// pressure will surface through direct reclaim and the LMK.
		return res.cpu, 0, false
	}
	return res.cpu, res.reclaimed, m.BelowHigh()
}

// directReclaim is the synchronous, non-preemptive reclaim an allocating
// task performs when free memory is below the minimum watermark. The
// returned cost stalls the caller — including a foreground render task,
// which is precisely the priority inversion the paper identifies.
func (m *Manager) directReclaim(target int) Cost {
	m.ins.directEpisodes.Inc()
	res := m.reclaimPages(target)
	m.fireSwapFull()
	m.directReclaimed += uint64(res.reclaimed)
	var cost Cost
	cost.Stall = res.cpu
	cost.Stall += m.lockWait(m.cfg.LockHoldPerOp, true)
	m.ins.directStall.Observe(int64(cost.Stall))
	m.tr.Span(m.eng.Now(), trace.CatMM, "direct-reclaim", 0, cost.Stall,
		int64(res.reclaimed), int64(target))
	if res.reclaimed == 0 {
		// Reclaim failed outright: raise memory pressure so the LMK can
		// kill a cached app.
		for _, fn := range m.pressureHooks {
			fn()
		}
	}
	return cost
}

// ReclaimProcess evicts every resident page of pid, implementing the
// per-process reclaim interface ([21] in the paper) used by the §3.2
// study: "we reclaim all file-backed and anonymous pages of the
// application". It bypasses the eviction policy and second chances.
// It returns the number of pages evicted.
func (m *Manager) ReclaimProcess(pid int) int {
	var n, writeback int
	for _, id := range m.PagesOf(pid) {
		p := m.arena.at(id)
		if p.state != Resident {
			continue
		}
		if p.class.Anon() {
			_, ref, ok := m.z.Store(zram.PageInfo{Java: p.class == AnonJava, Heat: p.heat})
			if !ok {
				m.noteSwapFull()
				continue
			}
			p.zref = ref
		} else if p.dirty() {
			writeback++
			p.flags &^= pgDirty
		}
		if p.list != lNone {
			m.lists[p.list].remove(&m.arena, id)
			p.list = lNone
		}
		p.state = Evicted
		p.flags &^= pgReferenced
		p.setShadow(m.tickEvictClock())
		m.resident--
		n++
		m.noteReclaim(p.class, p.class == File)
	}
	if writeback > 0 {
		m.disk.Write(writeback, nil)
		m.ins.writebackPages.Add(uint64(writeback))
	}
	m.fireSwapFull()
	return n
}
