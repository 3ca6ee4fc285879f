package mm

import (
	"math/rand"
	"runtime/debug"
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
		c := new([chunkPages]page)
		rng.Read(unsafe.Slice((*byte)(unsafe.Pointer(c)), unsafe.Sizeof(*c)))
		chunkPool.Put(c)
	}
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
// the Resident slots; and that each slot is in exactly one of byPID,
// deadByPID and freeSlots.
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
// TestArenaConservationOnPoisonedChunks).
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
	for _, ids := range m.byPID {
		for _, id := range ids {
			indexed[id]++
		}
	}
	for _, ids := range m.deadByPID {
		for _, id := range ids {
			if m.arena.at(id).state != Dead {
				t.Fatalf("step %d: slot %d on deadByPID is %v", step, id, m.arena.at(id).state)
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
	for i := 0; i < n; i++ {
		p := m.arena.at(PageID(i))
		switch {
		case p.state == Resident && onList[i] == 1:
			resident++
		case (p.state == Evicted || p.state == Dead) && onList[i] == 0 && p.list == lNone:
		default:
			t.Fatalf("step %d: slot %d is %v with list %v, on %d LRU lists", step, i, p.state, p.list, onList[i])
		}
		if indexed[i] != 1 {
			t.Fatalf("step %d: slot %d is in %d of byPID, deadByPID and freeSlots, want 1", step, i, indexed[i])
		}
	}
	if resident != m.resident {
		t.Fatalf("step %d: %d Resident slots, resident counts %d", step, resident, m.resident)
	}
}
