package mm

import (
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"github.com/eurosys23/ice/internal/sim"
	"github.com/eurosys23/ice/internal/storage"
	"github.com/eurosys23/ice/internal/zram"
)

// poisonChunkPool stops the garbage collector for the rest of the test,
// so chunkPool keeps what it is given, and puts n chunks in it whose
// every byte is seeded garbage.
func poisonChunkPool(t *testing.T, n int) {
	t.Helper()
	t.Cleanup(func() { debug.SetGCPercent(debug.SetGCPercent(-1)) })
	debug.SetGCPercent(-1)
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		chunkPool.Put(garbageChunk(rng))
	}
}

// garbageChunk returns a chunk whose every byte, pages and mapping
// stamps alike, is drawn from rng.
func garbageChunk(rng *rand.Rand) *chunk {
	c := new(chunk)
	rng.Read(unsafe.Slice((*byte)(unsafe.Pointer(c)), unsafe.Sizeof(*c)))
	return c
}

// TestReleasedManagerPanics: once Release has handed the arena's chunks
// on, touching, mapping or freeing any page of the released device must
// panic instead of reaching a chunk another device may now own.
func TestReleasedManagerPanics(t *testing.T) {
	for name, access := range map[string]func(m *Manager, ids []PageID){
		"Touch":       func(m *Manager, ids []PageID) { m.Touch(1, ids[:1]) },
		"Info":        func(m *Manager, ids []PageID) { m.Info(ids[len(ids)-1]) },
		"Map":         func(m *Manager, _ []PageID) { m.Map(2, 10002, File, 1) },
		"FreePagesOf": func(m *Manager, ids []PageID) { m.FreePagesOf(ids[:1]) },
		"KswapdStep":  func(m *Manager, _ []PageID) { m.KswapdStep() },
	} {
		t.Run(name, func(t *testing.T) {
			_, m := newTestManager(3)
			// Past the min watermark, so KswapdStep has pages to scan.
			ids, _ := m.Map(1, 10001, AnonJava, 3800)
			m.Release()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a released Manager did not panic", name)
				}
			}()
			access(m, ids)
		})
	}
}

// TestReleaseRecyclesChunks: once warm, a device that maps one chunk of
// pages and is released allocates at least one object fewer per cycle
// than one dropped without Release: the chunk it took from the pool.
func TestReleaseRecyclesChunks(t *testing.T) {
	eng, m0 := newTestManager(5)
	cycle := func(release bool) func() {
		return func() {
			m := New(eng, m0.cfg, m0.z, m0.disk)
			ids, _ := m.Map(1, 10001, AnonNative, chunkPages)
			m.ExitProcess(1)
			if len(ids) != chunkPages || len(m.arena.chunks) != 1 {
				t.Fatalf("mapped %d pages into %d chunks, want %d into 1", len(ids), len(m.arena.chunks), chunkPages)
			}
			if release {
				m.Release()
			}
		}
	}
	cycle(true)() // warm the pool
	pooled := testing.AllocsPerRun(50, cycle(true))
	fresh := testing.AllocsPerRun(50, cycle(false))
	if pooled > fresh-1 {
		t.Fatalf("a released cycle allocates %.0f objects, a fresh one %.0f: the chunk was not reused", pooled, fresh)
	}
}

// TestArenaConservationOnPoisonedChunks drives a Manager whose arena
// grows into garbage-filled chunks through a seeded random sequence of
// Map, MapOne, Touch, FreePagesOf, ExitProcess, ReclaimProcess and
// KswapdStep, and after every step checks that each slot below the
// arena's length is Resident on exactly one LRU list, Evicted or Dead;
// that each list's walked length equals its count; that resident equals
// the Resident slots; and that each slot is in exactly one of its
// owner's index, its owner's dead list and freeSlots.
func TestArenaConservationOnPoisonedChunks(t *testing.T) {
	poisonChunkPool(t, 8)
	eng := sim.NewEngine(17)
	cfg := DefaultConfig()
	cfg.TotalPages = 3 * chunkPages
	cfg.ReservedPages = 256
	cfg.HighWatermark, cfg.LowWatermark, cfg.MinWatermark = 384, 320, 256
	cfg.ThrashCoupling = 0
	m := New(eng, cfg, zram.New(zram.DefaultConfig(4096), eng.Obs()), storage.New(eng, storage.UFS21))
	rng := rand.New(rand.NewSource(17))
	pages := map[int][]PageID{}
	for step := 0; step < 3000; step++ {
		pid := rng.Intn(6) + 1
		switch op := rng.Intn(10); {
		case op < 3:
			ids, _ := m.Map(pid, 10000+pid, Class(rng.Intn(int(numClasses))), rng.Intn(256)+1)
			pages[pid] = append(pages[pid], ids...)
		case op < 4:
			id, _ := m.MapOne(pid, 10000+pid, AnonJava)
			pages[pid] = append(pages[pid], id)
		case op < 6:
			if ids := pages[pid]; len(ids) > 0 {
				from := rng.Intn(len(ids))
				m.Touch(pid, ids[from:from+rng.Intn(len(ids)-from)+1])
			}
		case op < 7:
			if ids := pages[pid]; len(ids) > 0 {
				from := rng.Intn(len(ids))
				m.FreePagesOf(ids[from : from+rng.Intn(min(len(ids)-from, 16))+1])
			}
		case op < 8 && rng.Intn(4) == 0:
			m.ExitProcess(pid)
			pages[pid] = nil
		case op < 8:
			m.ReclaimProcess(pid)
		default:
			m.KswapdStep()
		}
		checkArena(t, m, step)
	}
	if m.arena.len() <= chunkPages {
		t.Fatalf("the sequence grew the arena to %d slots, want more than one chunk", m.arena.len())
	}
}

// checkArena asserts the arena's conservation laws (see
// TestArenaConservationOnPoisonedChunks). A slot not on the free list
// must sit in its own owner record's index or dead list, and the shadow
// entries of Evicted slots must be distinct and lie in (0, evictClock].
func checkArena(t *testing.T, m *Manager, step int) {
	t.Helper()
	n := m.arena.len()
	onList := make([]int, n)
	for l := range m.lists {
		walked, prev := 0, nilPage
		for id := m.lists[l].head; id != nilPage; id = m.arena.at(id).next {
			p := m.arena.at(id)
			if p.list != listID(l) || p.prev != prev || walked == n {
				t.Fatalf("step %d: slot %d, walk %d of %v, has list %v, prev %d (want %d)",
					step, id, walked, listID(l), p.list, p.prev, prev)
			}
			onList[id]++
			walked++
			prev = id
		}
		if walked != m.lists[l].count || m.lists[l].tail != prev {
			t.Fatalf("step %d: %v walks %d slots to tail %d, counts %d with tail %d",
				step, listID(l), walked, prev, m.lists[l].count, m.lists[l].tail)
		}
	}
	indexed := make([]int, n)
	for pid, own := range m.ownerOf {
		o := &m.owners[own]
		if o.pid != pid {
			t.Fatalf("step %d: pid %d finds the record of pid %d", step, pid, o.pid)
		}
		for _, id := range o.live {
			if m.arena.at(id).owner != own {
				t.Fatalf("step %d: slot %d in pid %d's index belongs to owner %d, want %d",
					step, id, pid, m.arena.at(id).owner, own)
			}
			indexed[id]++
		}
		for _, id := range o.dead {
			if p := m.arena.at(id); p.state != Dead || p.owner != own {
				t.Fatalf("step %d: slot %d on pid %d's dead list is %v of owner %d, want Dead of %d",
					step, id, pid, p.state, p.owner, own)
			}
			indexed[id]++
		}
	}
	for _, id := range m.freeSlots {
		if m.arena.at(id).state != Dead {
			t.Fatalf("step %d: free slot %d is %v", step, id, m.arena.at(id).state)
		}
		indexed[id]++
	}
	resident := 0
	shadows := make(map[uint32]PageID)
	for i := 0; i < n; i++ {
		p := m.arena.at(PageID(i))
		if p.state == Evicted {
			e := p.shadow()
			if e == 0 || e > m.evictClock {
				t.Fatalf("step %d: Evicted slot %d has shadow entry %d, want one in (0, %d]", step, i, e, m.evictClock)
			}
			if j, ok := shadows[e]; ok {
				t.Fatalf("step %d: Evicted slots %d and %d share shadow entry %d", step, j, i, e)
			}
			shadows[e] = PageID(i)
		}
		switch {
		case p.state == Resident && onList[i] == 1:
			resident++
		case (p.state == Evicted || p.state == Dead) && onList[i] == 0 && p.list == lNone:
		default:
			t.Fatalf("step %d: slot %d is %v with list %v, on %d LRU lists", step, i, p.state, p.list, onList[i])
		}
		if indexed[i] != 1 {
			t.Fatalf("step %d: slot %d is in %d of its owner's index and dead list and freeSlots, want 1", step, i, indexed[i])
		}
	}
	if resident != m.resident {
		t.Fatalf("step %d: %d Resident slots, resident counts %d", step, resident, m.resident)
	}
}

// TestMapWritesWholeSlot: mapPages writes a slot field by field, so no
// page literal guarantees that it writes them all; this test does. Pages
// mapped into garbage-filled chunks, and into recycled slots whose last
// pages were touched, written back, evicted and freed, must each equal
// the literal fresh memory would hold and carry their mapping stamp.
func TestMapWritesWholeSlot(t *testing.T) {
	eng := sim.NewEngine(19)
	cfg := DefaultConfig()
	cfg.TotalPages = 3 * chunkPages
	cfg.ReservedPages = 256
	cfg.HighWatermark, cfg.LowWatermark, cfg.MinWatermark = 384, 320, 256
	cfg.DirtyFileFraction = 0.5
	cfg.ThrashCoupling = 0
	m := New(eng, cfg, zram.New(zram.DefaultConfig(4096), eng.Obs()), storage.New(eng, storage.UFS21))
	// The arena grows into these two chunks before it asks the pool.
	rng := rand.New(rand.NewSource(19))
	m.arena.chunks = append(m.arena.chunks, garbageChunk(rng), garbageChunk(rng))

	mapAndCheck := func(pid int, class Class, n int) []PageID {
		t.Helper()
		r := *m.rng // replays the dirty bits' draws
		head, clock := m.lists[inactiveList(class)].head, m.mapClock
		ids := m.mapPages(pid, 10000+pid, class, n)
		own := m.ownerOf[pid]
		for k, id := range ids {
			want := page{prev: nilPage, next: head, owner: own, class: class, state: Resident, list: inactiveList(class)}
			if k+1 < n {
				want.prev = ids[k+1]
			}
			if k > 0 {
				want.next = ids[k-1]
			}
			if class == File && r.Bool(cfg.DirtyFileFraction) {
				want.flags = pgDirty
			}
			if got := *m.arena.at(id); got != want {
				t.Fatalf("pid %d's page %d (slot %d) reads %+v, want %+v", pid, k, id, got, want)
			}
			if got, want := *m.arena.seq(id), clock+uint32(k)+1; got != want {
				t.Fatalf("pid %d's page %d (slot %d) has mapping stamp %d, want %d", pid, k, id, got, want)
			}
		}
		return ids
	}

	// Fresh slots: both garbage chunks, one class per batch.
	anon := mapAndCheck(1, AnonJava, 3000)
	file := mapAndCheck(2, File, 2000)
	if len(m.arena.chunks) != 2 {
		t.Fatalf("the batches took %d chunks, want the 2 garbage ones", len(m.arena.chunks))
	}
	// Leave every field of the slots set: heat, referenced and dirty
	// bits, swap entries and shadow entries, then free them all.
	m.Touch(1, anon)
	m.Touch(2, file)
	m.ReclaimProcess(1)
	m.ReclaimProcess(2)
	m.Touch(1, anon[:100])
	m.ExitProcess(1)
	m.ExitProcess(2)
	// Recycled slots: every one of the 5000 freed.
	mapAndCheck(3, AnonNative, 2500)
	mapAndCheck(4, File, 2500)
	if len(m.freeSlots) != 0 || m.arena.len() != 5000 {
		t.Fatalf("%d free slots left, arena of %d; want every mapping in the 5000 recycled slots",
			len(m.freeSlots), m.arena.len())
	}
}

// TestOwnerLimitPanics: page.owner is 16 bits wide, so a Manager keeps
// at most 65,536 owner records. The mapping that would need owner
// 65,537 panics before it maps a page, and so does a mapping under a
// second uid for a pid that already has a record.
func TestOwnerLimitPanics(t *testing.T) {
	for name, tc := range map[string]struct {
		op   func(m *Manager)
		want string
	}{
		"new pid":    {func(m *Manager) { m.Map(maxOwners+1, 20000, AnonJava, 8) }, "owner record 65537"},
		"second uid": {func(m *Manager) { m.MapOne(1, 10002, AnonJava) }, "belong to uid 10001"},
	} {
		t.Run(name, func(t *testing.T) {
			_, m := newTestManager(13)
			for pid := 1; pid <= maxOwners; pid++ {
				m.Reserve(pid, 10000+pid, 0)
			}
			// Each known pid still maps.
			m.Map(1, 10001, AnonJava, 16)
			m.MapOne(maxOwners, 10000+maxOwners, File)
			slots, clock, resident, lists := m.arena.len(), m.mapClock, m.ResidentPages(), m.ListCounts()
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one containing %q", msg, tc.want)
				}
				if m.arena.len() != slots || m.mapClock != clock || m.ResidentPages() != resident || m.ListCounts() != lists {
					t.Fatalf("the refused mapping changed the arena: %d slots, clock %d, %d resident, lists %v; was %d, %d, %d, %v",
						m.arena.len(), m.mapClock, m.ResidentPages(), m.ListCounts(), slots, clock, resident, lists)
				}
				if len(m.owners) != maxOwners {
					t.Fatalf("%d owner records, want %d", len(m.owners), maxOwners)
				}
			}()
			tc.op(m)
		})
	}
}
