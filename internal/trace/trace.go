// Package trace is the simulator's Systrace equivalent: a bounded,
// allocation-light ring buffer of timestamped events emitted by the
// memory manager, the framework and ICE itself. The paper's evaluation
// leans on Systrace ("we traced the process of frame rendering ... using
// Systrace"); this package provides the same visibility into a simulated
// run — which frames were blocked, when reclaim ran, who was frozen.
package trace

import (
	"fmt"
	"io"
	"sort"

	"github.com/eurosys23/ice/internal/sim"
)

// Category classifies events, mirroring Systrace's tag sets.
type Category uint8

// Event categories.
const (
	CatFrame   Category = iota // frame rendered / dropped
	CatMM                      // reclaim, refault, direct reclaim
	CatFreezer                 // freeze / thaw actions
	CatLaunch                  // application launches
	CatLMK                     // low-memory kills
	CatSched                   // scheduling notes
	CatIO                      // flash storage requests
	numCategories
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatFrame:
		return "frame"
	case CatMM:
		return "mm"
	case CatFreezer:
		return "freezer"
	case CatLaunch:
		return "launch"
	case CatLMK:
		return "lmk"
	case CatSched:
		return "sched"
	case CatIO:
		return "io"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Kind distinguishes the three trace-event shapes, mirroring the Chrome
// trace-event phases the exporter maps them to.
type Kind uint8

// Event kinds.
const (
	// KindInstant is a point event (Chrome phase "i").
	KindInstant Kind = iota
	// KindSpan is a duration event: [When, When+Dur] (Chrome phase "X").
	KindSpan
	// KindCounter is a sampled counter value carried in Arg (Chrome
	// phase "C"); counter samples of one Name form a counter track.
	KindCounter
)

// Event is one trace record. Arg/Arg2 are event-specific integers (page
// counts, latencies in µs, UIDs) so recording never allocates.
type Event struct {
	When sim.Time
	Cat  Category
	Kind Kind
	// Name is the event label ("refault", "freeze", "frame", ...). It must
	// be a static string: the ring stores it by reference.
	Name string
	// Subject identifies the actor (a UID, PID or 0).
	Subject int
	// Dur is the span length for KindSpan events (0 otherwise).
	Dur  sim.Time
	Arg  int64
	Arg2 int64
}

// String renders an event in a Systrace-ish single-line format.
func (e Event) String() string {
	return fmt.Sprintf("%12s %-8s %-16s subj=%-6d arg=%-8d arg2=%d",
		e.When, e.Cat, e.Name, e.Subject, e.Arg, e.Arg2)
}

// Buffer is a fixed-capacity ring of events. A nil *Buffer is valid and
// drops everything, so call sites never need nil checks.
type Buffer struct {
	events []Event
	next   int
	filled bool

	// Recorded counts every event emitted, including those the ring has
	// since overwritten.
	Recorded uint64
}

// NewBuffer creates a ring holding up to capacity events.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Buffer{events: make([]Event, capacity)}
}

// Emit records an event. Safe on a nil buffer.
func (b *Buffer) Emit(ev Event) {
	if b == nil {
		return
	}
	b.events[b.next] = ev
	b.next++
	b.Recorded++
	if b.next == len(b.events) {
		b.next = 0
		b.filled = true
	}
}

// Span records a duration event covering [start, start+dur]. Safe on a
// nil buffer. Negative durations clamp to zero.
func (b *Buffer) Span(start sim.Time, cat Category, name string, subject int, dur sim.Time, arg, arg2 int64) {
	if b == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	b.Emit(Event{When: start, Cat: cat, Kind: KindSpan, Name: name,
		Subject: subject, Dur: dur, Arg: arg, Arg2: arg2})
}

// Count records one sample of a counter track. Safe on a nil buffer.
func (b *Buffer) Count(when sim.Time, cat Category, name string, value int64) {
	if b == nil {
		return
	}
	b.Emit(Event{When: when, Cat: cat, Kind: KindCounter, Name: name, Arg: value})
}

// Len reports how many events are currently held.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	if b.filled {
		return len(b.events)
	}
	return b.next
}

// Events returns the held events in chronological order (oldest first).
func (b *Buffer) Events() []Event {
	if b == nil {
		return nil
	}
	out := make([]Event, 0, b.Len())
	if b.filled {
		out = append(out, b.events[b.next:]...)
	}
	out = append(out, b.events[:b.next]...)
	return out
}

// Filter returns the held events matching cat, oldest first.
func (b *Buffer) Filter(cat Category) []Event {
	var out []Event
	for _, ev := range b.Events() {
		if ev.Cat == cat {
			out = append(out, ev)
		}
	}
	return out
}

// Dump writes the held events to w, one per line, oldest first.
func (b *Buffer) Dump(w io.Writer) error {
	for _, ev := range b.Events() {
		if _, err := fmt.Fprintln(w, ev); err != nil {
			return err
		}
	}
	return nil
}

// Summary aggregates the held events per (category, name): count and the
// totals of both args, sorted by count descending. It is the quick
// who-did-what view; Arg2Sum surfaces the second payload (e.g. wait µs on
// I/O spans) that latency-carrying events store there.
type Summary struct {
	Cat     Category
	Name    string
	Count   int
	ArgSum  int64
	Arg2Sum int64
}

// Summarize builds the per-event-kind aggregate.
func (b *Buffer) Summarize() []Summary {
	type key struct {
		cat  Category
		name string
	}
	agg := map[key]*Summary{}
	for _, ev := range b.Events() {
		k := key{ev.Cat, ev.Name}
		s := agg[k]
		if s == nil {
			s = &Summary{Cat: ev.Cat, Name: ev.Name}
			agg[k] = s
		}
		s.Count++
		s.ArgSum += ev.Arg
		s.Arg2Sum += ev.Arg2
	}
	out := make([]Summary, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Cat != out[j].Cat {
			return out[i].Cat < out[j].Cat
		}
		return out[i].Name < out[j].Name
	})
	return out
}
