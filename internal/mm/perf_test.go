package mm

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/storage"
	"github.com/eurosys23/ice/internal/zram"
)

// TestByPIDCompactsDeadEntries pins the fix for the dead-index leak:
// freePage used to leave Dead page IDs in byPID until ExitProcess, so a
// long-lived process with allocation churn (GC loops, cache turnover)
// grew its index — and every PagesOf / ReclaimProcess scan — without
// bound. The amortised compaction must keep the index within a constant
// factor of the live population.
func TestByPIDCompactsDeadEntries(t *testing.T) {
	_, m := newTestManager(7)
	const pid, uid = 42, 10042
	ids, _ := m.Map(pid, uid, AnonJava, 512)
	// Churn far more pages than the index may retain: free one, map one,
	// keeping the live population constant at 512.
	for i := 0; i < 20000; i++ {
		slot := i % len(ids)
		m.FreePagesOf(ids[slot : slot+1])
		id, _ := m.MapOne(pid, uid, AnonJava)
		ids[slot] = id
	}
	live := 0
	for _, id := range m.byPID[pid] {
		if m.arena.at(id).state != Dead {
			live++
		}
	}
	if live != 512 {
		t.Fatalf("live pages in index = %d, want 512", live)
	}
	if got, bound := len(m.byPID[pid]), 2*live+compactMinLen; got > bound {
		t.Fatalf("byPID index holds %d entries for %d live pages (bound %d): dead entries leak", got, live, bound)
	}
	// Exit must still release every slot the process ever held, dead
	// tombstones included, exactly once.
	m.ExitProcess(pid)
	if _, ok := m.byPID[pid]; ok {
		t.Fatal("byPID entry survived ExitProcess")
	}
	if _, ok := m.deadByPID[pid]; ok {
		t.Fatal("deadByPID entry survived ExitProcess")
	}
}

// TestLRUPushRemoveNoAllocs pins the intrusive LRU hot path at zero
// allocations per operation.
func TestLRUPushRemoveNoAllocs(t *testing.T) {
	_, m := newTestManager(3)
	ids, _ := m.Map(1, 1, AnonJava, 64)
	id := ids[0]
	allocs := testing.AllocsPerRun(1000, func() {
		m.addToLRU(id, lInactiveAnon)
		m.addToLRU(id, lActiveAnon)
	})
	if allocs != 0 {
		t.Fatalf("LRU push/remove allocated %.1f objects per run, want 0", allocs)
	}
}

// TestKswapdStepNoAllocs pins one background-reclaim quantum at zero
// steady-state allocations. The loop keeps memory pressure on by
// refaulting a batch of evicted pages between steps, so every measured
// step runs the full scan/evict/store machinery.
func TestKswapdStepNoAllocs(t *testing.T) {
	_, m := newTestManager(5)
	const pid, uid = 9, 10009
	ids, _ := m.Map(pid, uid, AnonJava, 3700)
	scratch := make([]PageID, 0, 64)
	refaultSome := func() {
		scratch = scratch[:0]
		for _, id := range ids {
			if m.arena.at(id).state == Evicted {
				scratch = append(scratch, id)
				if len(scratch) == cap(scratch) {
					break
				}
			}
		}
		if len(scratch) > 0 {
			m.Touch(pid, scratch)
		}
	}
	// Warm up: drive a few full step+refault cycles so per-UID counters,
	// series buckets and scratch state reach steady shape.
	for i := 0; i < 8; i++ {
		m.KswapdStep()
		refaultSome()
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.KswapdStep()
		refaultSome()
	})
	if allocs != 0 {
		t.Fatalf("kswapd step allocated %.1f objects per run, want 0", allocs)
	}
}

// TestArenaGrowsByChunks pins the arena's growth unit and the meaning of
// its length. Mapping three chunks' worth of pages plus one allocates
// exactly four chunks, and no page moves as the arena grows. Recycled
// slots allocate nothing, and randomVictim draws over every slot ever
// allocated, as it did over the old append-grown slice.
func TestArenaGrowsByChunks(t *testing.T) {
	eng := sim.NewEngine(11)
	cfg := DefaultConfig()
	cfg.TotalPages = 8 * chunkPages
	cfg.HighWatermark, cfg.LowWatermark, cfg.MinWatermark = 128, 106, 85
	cfg.ThrashCoupling = 0
	m := New(eng, cfg, zram.New(zram.DefaultConfig(1024), eng.Obs()), storage.New(eng, storage.UFS21))

	first, _ := m.Map(1, 10001, AnonJava, chunkPages)
	p0 := m.arena.at(first[0])
	m.Map(2, 10002, AnonNative, 2*chunkPages+1)
	const slots = 3*chunkPages + 1
	if got := len(m.arena.chunks); got != 4 {
		t.Fatalf("%d pages allocated %d chunks, want 4", slots, got)
	}
	if m.arena.at(first[0]) != p0 {
		t.Fatal("a page moved when the arena grew")
	}
	// Half of process 1's slots are recycled; the other half stay dead.
	m.ExitProcess(1)
	m.Map(3, 10003, AnonJava, chunkPages/2)
	if got := len(m.arena.chunks); got != 4 {
		t.Fatalf("recycled slots allocated a chunk: %d chunks", got)
	}
	if got := m.arena.len(); got != slots {
		t.Fatalf("arena length %d, want every slot ever allocated (%d)", got, slots)
	}
	// Every live page is resident, inactive and unreferenced, so the
	// victim is the first draw that lands on a live slot.
	r := *m.rng
	want := nilPage
	for try := 0; try < 16 && want == nilPage; try++ {
		if id := PageID(r.Intn(slots)); m.arena.at(id).state == Resident {
			want = id
		}
	}
	if got, ok := m.randomVictim(); !ok || got != want {
		t.Fatalf("randomVictim = %d, %v; want slot %d of %d", got, ok, want, slots)
	}
}

// TestPageIs32Bytes pins the page record's layout: 32 bytes, so an arena
// chunk of 4096 pages is 128 KiB.
func TestPageIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(page{}); got != 32 {
		t.Fatalf("page is %d bytes, want 32", got)
	}
}

// TestClocksPanicAtLimit: the mapping and eviction clocks are 32 bits
// wide. Each may reach 2^32-1, and the mapping or eviction that would
// take it further panics with a message naming the clock, leaving it
// unwrapped, instead of stamping a page with a wrapped value.
func TestClocksPanicAtLimit(t *testing.T) {
	for name, tc := range map[string]struct {
		eviction bool
		op       func(m *Manager)
	}{
		"MapOne":         {false, func(m *Manager) { m.MapOne(1, 10001, AnonJava) }},
		"Map":            {false, func(m *Manager) { m.Map(1, 10001, File, 8) }},
		"reclaimPages":   {true, func(m *Manager) { m.reclaimPages(8) }},
		"ReclaimProcess": {true, func(m *Manager) { m.ReclaimProcess(1) }},
	} {
		t.Run(name, func(t *testing.T) {
			_, m := newTestManager(9)
			m.Map(1, 10001, AnonJava, 16)
			clock, want := &m.mapClock, "mapping clock past 2^32-1"
			if tc.eviction {
				clock, want = &m.evictClock, "eviction clock past 2^32-1"
			}
			// One short of the limit, a single mapping or eviction of
			// process 2's page still runs and takes the clock to it.
			*clock = math.MaxUint32 - 1
			m.MapOne(2, 10002, AnonJava)
			if tc.eviction {
				m.ReclaimProcess(2)
			}
			if *clock != math.MaxUint32 {
				t.Fatalf("clock at %d, want 2^32-1", *clock)
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, want) {
					t.Fatalf("%s at the clock's limit: panic %q, want one containing %q", name, msg, want)
				}
				if *clock != math.MaxUint32 {
					t.Fatalf("clock wrapped to %d", *clock)
				}
			}()
			tc.op(m)
		})
	}
}
