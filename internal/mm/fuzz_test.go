package mm

import "testing"

// FuzzMemoryOps drives the manager with arbitrary operation tapes: Map,
// MapOne, Touch, FreePagesOf, ReclaimProcess, reclaim scans, KswapdStep,
// ExitProcess and transient allocations. After every step it checks the
// page accounting and the arena's conservation laws (checkArena: list
// and index membership, owner records, shadow entries), and
// after every Map that the inactive list's head walks the new pages in
// reverse mapping order, as n pushFronts would have left them. ci.sh
// runs it for 10 s; `go test -fuzz FuzzMemoryOps ./internal/mm` searches
// open-ended, and plain `go test` runs the seed corpus.
func FuzzMemoryOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0})
	f.Add([]byte("reclaim-refault-exit"))
	f.Add([]byte{0, 63, 9, 200, 18, 63, 27, 40, 6, 5, 15, 3, 24, 7, 33, 9})
	f.Fuzz(func(t *testing.T, tape []byte) {
		// checkArena walks the whole arena, so cap a tape at 512 steps to
		// keep each run short enough for the fuzzer to explore.
		if len(tape) > 1024 {
			tape = tape[:1024]
		}
		_, m := newTestManager(7)
		pages := map[int][]PageID{}
		for i := 0; i+1 < len(tape); i += 2 {
			op, arg := tape[i], int(tape[i+1])
			pid := int(op%4) + 1
			switch op % 9 {
			case 0:
				class := Class(arg % 3)
				ids, _ := m.Map(pid, 10000+pid, class, arg%64+1)
				pages[pid] = append(pages[pid], ids...)
				id := m.lists[inactiveList(class)].head
				for k := len(ids) - 1; k >= 0; k-- {
					if id != ids[k] {
						t.Fatalf("step %d: inactive head walk reads %d at %d pages in, want %d (the Map's page %d)",
							i, id, len(ids)-1-k, ids[k], k)
					}
					id = m.arena.at(id).next
				}
			case 1:
				m.ReclaimProcess(pid)
			case 2:
				if ids := pages[pid]; len(ids) > 0 {
					m.Touch(pid, ids[:arg%len(ids)+1])
				}
			case 3:
				m.reclaimPages(arg%48 + 1)
			case 4:
				m.ExitProcess(pid)
				pages[pid] = nil
			case 5:
				n := arg%16 + 1
				m.AllocTransient(n)
				m.FreeTransient(n)
			case 6:
				id, _ := m.MapOne(pid, 10000+pid, Class(arg%3))
				pages[pid] = append(pages[pid], id)
			case 7:
				if ids := pages[pid]; len(ids) > 0 {
					from := arg % len(ids)
					m.FreePagesOf(ids[from : from+min(len(ids)-from, arg%8+1)])
				}
			case 8:
				m.KswapdStep()
			}
			free := m.FreePages()
			if free+m.ResidentPages()+m.TransientPages()+m.zramFootprintForTest()+m.cfg.ReservedPages != m.cfg.TotalPages {
				t.Fatalf("conservation violated at step %d", i)
			}
			lc := m.ListCounts()
			if lc[0]+lc[1]+lc[2]+lc[3] != m.ResidentPages() {
				t.Fatalf("LRU occupancy mismatch at step %d", i)
			}
			st := m.Stats()
			if st.Total.Refaulted > st.Total.Reclaimed {
				t.Fatalf("more refaults than reclaims at step %d", i)
			}
			checkArena(t, m, i)
		}
	})
}
