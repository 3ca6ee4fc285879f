package mm

import "github.com/eurosys23/ice/internal/zram"

// Touch accesses the given pages on behalf of process pid. Resident pages
// are marked referenced (with two-touch promotion to the active list, as in
// the kernel); evicted pages refault. The returned Cost is what the calling
// task must pay: CPU stalls for fault handling, lock contention and ZRAM
// decompression, plus an I/O completion time when file pages must be read
// back from flash.
//
// Refault detection works exactly as the paper describes for the real
// kernel: the page's eviction left a shadow entry (page.shadow); a
// fault that finds one is a refault, and the refault distance is the number
// of evictions since. Every refault is published to the OnRefault hooks —
// this is the event stream driving ICE's RPF component.
func (m *Manager) Touch(pid int, ids []PageID) Cost {
	var cost Cost
	var fileReads int
	// Count the refaults first and charge their physical allocation as one
	// batch (the kernel's fault-around/readahead path allocates in bulk);
	// charging page-at-a-time would re-run the watermark machinery per
	// page.
	var evicted int
	for _, id := range ids {
		if m.arena.at(id).state == Evicted {
			evicted++
		}
	}
	if evicted > 0 {
		cost.Add(m.chargeAlloc(evicted))
	}
	for _, id := range ids {
		p := m.arena.at(id)
		switch p.state {
		case Dead:
			continue
		case Resident:
			if p.referenced() && (p.list == lInactiveAnon || p.list == lInactiveFile) {
				m.addToLRU(id, activeList(p.class))
			}
			p.flags |= pgReferenced
			if p.heat < heatMax {
				p.heat++
			}
		case Evicted:
			cost.Add(m.refault(id, &fileReads))
		}
	}
	// While the memory subsystem churns, every task's memory phase slows
	// down: lock contention, rmap walks, TLB shootdowns, fault-handler CPU
	// steal. The thrash coupling charges one aggregate wait per Touch call
	// proportional to the recent reclaim+refault rate — the paper's
	// "frame rendering tasks blocked by memory reclaiming tasks", without
	// which a foreground task that stays fully resident would be
	// unrealistically immune.
	if len(ids) > 0 {
		lockW := m.readerLockWait()
		thrashW := m.thrashStall()
		if wait := lockW + thrashW; wait > 0 {
			cost.Stall += wait
			if lockW > 0 {
				m.ins.lockWait.Observe(int64(lockW))
			}
			if thrashW > 0 {
				m.ins.thrashStall.Observe(int64(thrashW))
			}
		}
	}
	if fileReads > 0 {
		// One bio covering the batch of randomly scattered pages; the task
		// blocks until the flash device completes it (behind whatever
		// writeback and other refault traffic is queued).
		completion := m.disk.ReadRandom(fileReads, nil)
		if completion > cost.BlockUntil {
			cost.BlockUntil = completion
		}
	}
	return cost
}

// refault brings one evicted page back. fileReads accumulates pages the
// caller must read from flash in a single batched request. The physical
// allocation was charged by Touch's batch pre-pass; under pressure that is
// where the fault path triggers reclaim, which is why "frequent BG
// refaults induce more memory reclaims" (Figure 2b).
func (m *Manager) refault(id PageID, fileReads *int) Cost {
	var cost Cost
	p := m.arena.at(id)

	cost.Stall += m.cfg.FaultCost
	cost.Stall += m.lockWait(m.cfg.LockHoldPerOp, true)

	if p.class.Anon() {
		cost.Stall += m.z.Load(p.zref, zram.PageInfo{Java: p.class == AnonJava, Heat: p.heat})
	} else {
		*fileReads++
	}
	// A refault is an access: the page was wanted back, so it warms up.
	if p.heat < heatMax {
		p.heat++
	}

	// The shadow entry shares prev, so read it before the page is relinked.
	distance := uint64(m.evictClock) - uint64(p.shadow())
	m.distances.note(distance)
	p.state = Resident
	p.flags |= pgReferenced
	m.resident++
	m.addToLRU(id, inactiveList(p.class))

	o := &m.owners[p.owner]
	fg := o.uid == m.fgUID
	m.ins.refaultPages.Inc()
	m.ins.refaultByClass[p.class].Inc()
	if fg {
		m.ins.refaultFG.Inc()
	} else {
		m.ins.refaultBG.Inc()
	}
	m.series.noteRefault(m.second(), fg)
	m.thrash.note(m.eng.Now(), m.cfg.ThrashWindow, 35)

	ev := RefaultEvent{
		PID:        o.pid,
		UID:        o.uid,
		Class:      p.class,
		Foreground: fg,
		Distance:   distance,
		When:       m.eng.Now(),
	}
	for _, fn := range m.refaultHooks {
		fn(ev)
	}
	return cost
}
