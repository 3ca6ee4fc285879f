package mm

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/storage"
	"github.com/eurosys23/ice/internal/zram"
)

// TestByPIDCompactsDeadEntries pins the fix for the dead-index leak:
// freePage used to leave Dead page IDs in the process's index until
// ExitProcess, so a
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
	for _, id := range m.PagesOf(pid) {
		if m.arena.at(id).state != Dead {
			live++
		}
	}
	if live != 512 {
		t.Fatalf("live pages in index = %d, want 512", live)
	}
	if got, bound := len(m.PagesOf(pid)), 2*live+compactMinLen; got > bound {
		t.Fatalf("the index holds %d entries for %d live pages (bound %d): dead entries leak", got, live, bound)
	}
	// Exit must still release every slot the process ever held, dead
	// tombstones included, exactly once, and drop the record's lists.
	o := &m.owners[m.ownerOf[pid]]
	m.ExitProcess(pid)
	if _, ok := m.ownerOf[pid]; ok {
		t.Fatal("pid still finds its owner record after ExitProcess")
	}
	if o.live != nil || o.dead != nil {
		t.Fatal("the owner record kept its index or dead list after ExitProcess")
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

// TestPageIs16Bytes pins the page record's layout: 16 bytes, so an arena
// chunk of 4096 pages and their 4-byte mapping stamps is 80 KiB.
func TestPageIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(page{}); got != 16 {
		t.Fatalf("page is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(chunk{}); got != 80<<10 {
		t.Fatalf("chunk is %d bytes, want 80 KiB", got)
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

// benchPages is what the mm layer benches map: 64 K pages, 16 chunks.
const benchPages = 1 << 16

// newBenchManager returns a Manager with room for benchPages mapped
// pages above its watermarks and a ZRAM partition that holds them all.
func newBenchManager() *Manager {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.TotalPages = 2 * benchPages
	cfg.HighWatermark, cfg.LowWatermark, cfg.MinWatermark = 1024, 768, 512
	cfg.ThrashCoupling = 0
	return New(eng, cfg, zram.New(zram.DefaultConfig(benchPages), eng.Obs()), storage.New(eng, storage.UFS21))
}

// mapBenchPages maps benchPages pages for one process through MapAppend
// in 256-page batches that cycle through the classes, as a cold launch's
// chunks do, appending their IDs to dst.
func mapBenchPages(m *Manager, dst []PageID) []PageID {
	const batch = 256
	for end := len(dst) + benchPages; len(dst) < end; {
		dst, _ = m.MapAppend(dst, 1, 10001, Class(len(dst)/batch%int(numClasses)), batch)
	}
	return dst
}

// BenchmarkMapPages maps 64 K pages into an arena whose chunks come back
// from chunkPool, with the process's index reserved, and reports the
// mapping's ns and allocated bytes per page. Building and releasing
// each Manager is not timed.
func BenchmarkMapPages(b *testing.B) {
	ids := make([]PageID, 0, benchPages)
	warm := newBenchManager()
	mapBenchPages(warm, ids)
	warm.Release()
	var ms runtime.MemStats
	var bytes uint64
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		m := newBenchManager()
		m.Reserve(1, 10001, benchPages)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		b.StartTimer()
		mapBenchPages(m, ids[:0])
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		bytes += ms.TotalAlloc - before
		m.Release()
	}
	pages := float64(b.N) * benchPages
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pages, "ns/page")
	b.ReportMetric(float64(bytes)/pages, "B/page")
}

// BenchmarkReclaimScan runs direct-reclaim-sized reclaim passes over a
// full arena of 64 K mapped pages and reports ns per scanned page. Most
// scans sample the whole arena at random (MemcgScanFraction), the rest
// walk an inactive list's tail. Whenever a quarter of the pages is out,
// they are refaulted outside the timer, so the arena stays full.
func BenchmarkReclaimScan(b *testing.B) {
	m := newBenchManager()
	ids := mapBenchPages(m, nil)
	out := make([]PageID, 0, benchPages)
	var scans int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scans += m.reclaimPages(m.cfg.DirectReclaimBatch).scanned
		if m.ResidentPages() < benchPages*3/4 {
			b.StopTimer()
			out = out[:0]
			for _, id := range ids {
				if m.arena.at(id).state == Evicted {
					out = append(out, id)
				}
			}
			m.Touch(1, out)
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(scans), "ns/scan")
}
