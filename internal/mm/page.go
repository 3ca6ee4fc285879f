// Package mm is the simulated memory-management subsystem: page-granular
// accounting, Linux-style active/inactive LRU lists for anonymous and
// file-backed pages, free-memory watermarks, a kswapd reclaim path, direct
// reclaim on allocation pressure, and — central to this paper — refault
// detection through workingset shadow entries.
//
// A refault is a page fault on a page that was previously reclaimed. The
// manager classifies each refault as foreground or background by comparing
// the faulting process's UID with the current foreground UID, mirroring the
// instrumentation of the paper's §3.1, and publishes a RefaultEvent to
// registered hooks. ICE's refault-driven process freezing (internal/core)
// subscribes to that event stream.
//
// Scale: one simulated page stands for 16 real 4 KiB pages (64 KiB). All
// counters in this package are simulated pages; reporting layers convert to
// 4 KiB-equivalent counts where that aids comparison with the paper.
package mm

import (
	"fmt"
	"sync"

	"github.com/eurosys23/ice/internal/zram"
)

// PagesPerSimPage is the scale factor between a simulated page and real
// 4 KiB pages.
const PagesPerSimPage = 16

// Class describes what a page holds. The paper's Figure 4 categorises
// refaulted pages into file-backed pages and anonymous pages, the latter
// split between the Java heap and the native heap.
type Class uint8

// Page classes.
const (
	AnonJava Class = iota
	AnonNative
	File
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case AnonJava:
		return "anon-java"
	case AnonNative:
		return "anon-native"
	case File:
		return "file"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Anon reports whether the class is anonymous memory (reclaimed to ZRAM).
func (c Class) Anon() bool { return c == AnonJava || c == AnonNative }

// State is the residency state of a page.
type State uint8

// Page states.
const (
	// Resident pages occupy physical memory and sit on an LRU list.
	Resident State = iota
	// Evicted pages were reclaimed: anonymous content lives in ZRAM,
	// dirty file content was written back, clean file content was dropped.
	// Touching an evicted page is a refault.
	Evicted
	// Dead pages belong to freed mappings and may never be touched again.
	Dead
)

// PageID indexes the page arena. nilPage marks list ends and free links.
type PageID int32

const nilPage PageID = -1

// page is one simulated page. The record is kept small because scenarios
// allocate hundreds of thousands of them: the two 4-byte links, the
// 2-byte owner and six 1-byte fields make 16 bytes (TestPageIs16Bytes).
// The mapping order lives beside the pages, in the chunk's seq plane.
type page struct {
	// prev and next link the page into its LRU list. An Evicted page is on
	// no list, so prev holds its shadow entry instead (shadow, setShadow).
	prev PageID
	next PageID
	// owner indexes the Manager's owner records: the page's pid and uid.
	owner uint16
	class Class
	state State
	// list is which LRU list the page is on (lNone when not resident).
	list listID
	// heat is the page's hotness: a saturating access counter bumped on
	// every touch and halved when ageing demotes the page to an inactive
	// list. Policies read it through the swap boundary (zram.PageInfo)
	// and per-process aggregates; it never influences stock reclaim.
	heat uint8
	// zref is the zram.CodecRef of an Evicted anonymous page's swap
	// entry — which codec compressed it, so Load/Drop account exactly.
	// Typed as the real CodecRef (not a narrower integer) so widening
	// the codec-reference space can never silently truncate here.
	zref  zram.CodecRef
	flags pageFlags
}

// pageFlags holds a page's two bits.
type pageFlags uint8

const (
	// pgDirty marks file pages that must be written back on reclaim.
	pgDirty pageFlags = 1 << iota
	// pgReferenced is the LRU second-chance bit set on access.
	pgReferenced
)

func (p *page) dirty() bool      { return p.flags&pgDirty != 0 }
func (p *page) referenced() bool { return p.flags&pgReferenced != 0 }

// shadow returns an Evicted page's workingset shadow entry: the value of
// the manager's eviction clock when the page was reclaimed. The refault
// distance is the clock delta at refault time.
func (p *page) shadow() uint32 { return uint32(p.prev) }

// setShadow stamps the shadow entry of a page that has just left its
// list. It lives in prev, which nothing reads until the page is relinked.
func (p *page) setShadow(epoch uint32) { p.prev = PageID(epoch) }

// heatMax saturates the per-page hotness counter.
const heatMax = 0xff

// listID identifies an LRU list.
type listID uint8

const (
	lActiveAnon listID = iota
	lInactiveAnon
	lActiveFile
	lInactiveFile
	numLists
	lNone listID = 0xff
)

func (l listID) String() string {
	switch l {
	case lActiveAnon:
		return "active-anon"
	case lInactiveAnon:
		return "inactive-anon"
	case lActiveFile:
		return "active-file"
	case lInactiveFile:
		return "inactive-file"
	case lNone:
		return "none"
	default:
		return fmt.Sprintf("listID(%d)", int(l))
	}
}

// activeList / inactiveList map a class to its LRU lists.
func activeList(c Class) listID {
	if c.Anon() {
		return lActiveAnon
	}
	return lActiveFile
}

func inactiveList(c Class) listID {
	if c.Anon() {
		return lInactiveAnon
	}
	return lInactiveFile
}

// The page arena grows one fixed-size chunk at a time: 4096 pages and
// their mapping stamps, 80 KiB at 16 B + 4 B a page. A chunk never moves
// once allocated, so growth copies no page.
const (
	chunkShift = 12
	chunkPages = 1 << chunkShift
	chunkMask  = chunkPages - 1
)

// chunk holds 4096 pages and, in a separate plane, each one's position in
// the manager's global mapping order. mapPages writes a slot's stamp and
// ExitProcess's sort reads it, so recycled slots come back in exactly the
// order the old append-only index produced: compacting dead entries out
// of a process's index cannot perturb slot reuse, which would change
// which pages randomVictim's arena draws land on and break byte-identity.
// No other path reads the plane, so it stays out of the page record.
type chunk struct {
	pages [chunkPages]page
	seq   [chunkPages]uint32
}

// chunkPool holds the chunks of released arenas until a growing arena
// takes them, so a pass of cells reuses a few devices' worth of chunks
// instead of allocating, zeroing and collecting each device's afresh. A
// chunk comes back with the released device's pages and stamps still in
// it; see Manager.Release for why none of them can reach a result.
var chunkPool sync.Pool

// pageArena stores every page the manager ever mapped, indexed by PageID.
// Its length counts every slot ever allocated, recycled ones included:
// randomVictim draws over exactly that range.
type pageArena struct {
	chunks []*chunk
	n      int
}

// at returns the page in slot id.
func (a *pageArena) at(id PageID) *page { return &a.chunks[id>>chunkShift].pages[id&chunkMask] }

// seq returns slot id's mapping stamp.
func (a *pageArena) seq(id PageID) *uint32 { return &a.chunks[id>>chunkShift].seq[id&chunkMask] }

// len reports how many slots were ever allocated.
func (a *pageArena) len() int { return a.n }

// grow allocates the next slot, adding a chunk when the last one is full:
// a released one from chunkPool if there is one, else a new one.
func (a *pageArena) grow() PageID {
	if a.n == len(a.chunks)*chunkPages {
		c, _ := chunkPool.Get().(*chunk)
		if c == nil {
			c = new(chunk)
		}
		a.chunks = append(a.chunks, c)
	}
	id := PageID(a.n)
	a.n++
	return id
}

// release hands every chunk to chunkPool and drops the arena's hold on
// them. The length stays, so every slot the arena ever allocated now
// indexes past its empty chunk list: at panics on any of them.
func (a *pageArena) release() {
	for _, c := range a.chunks {
		chunkPool.Put(c)
	}
	a.chunks = nil
}

// lruList is an intrusive doubly-linked list over the page arena.
// head is the most recently added end; reclaim scans from tail.
type lruList struct {
	head  PageID
	tail  PageID
	count int
}

func newLRUList() lruList { return lruList{head: nilPage, tail: nilPage} }

// pushFront inserts id at the head (MRU end).
func (l *lruList) pushFront(a *pageArena, id PageID) {
	p := a.at(id)
	p.prev = nilPage
	p.next = l.head
	if l.head != nilPage {
		a.at(l.head).prev = id
	}
	l.head = id
	if l.tail == nilPage {
		l.tail = id
	}
	l.count++
}

// remove unlinks id from the list.
func (l *lruList) remove(a *pageArena, id PageID) {
	p := a.at(id)
	if p.prev != nilPage {
		a.at(p.prev).next = p.next
	} else {
		l.head = p.next
	}
	if p.next != nilPage {
		a.at(p.next).prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.prev, p.next = nilPage, nilPage
	l.count--
}

// back returns the LRU-end page, or nilPage if empty.
func (l *lruList) back() PageID { return l.tail }
