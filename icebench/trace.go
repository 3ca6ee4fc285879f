package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program: a Runner.Run, a harness cell, an HTTP call or a whole job.
// Spans are kept in memory and written out once the run ends.
type span struct {
	ID     int
	Parent int // 0: a root span
	Name   string
	Layer  string // the layer the call enters (experiments, harness, service, job)
	Req    string // groups the spans of one request (pass/experiment or job)
	Start  time.Time
	End    time.Time
}

// tracer collects spans. A nil *tracer records nothing, which is how
// the untraced runs that feed the end-to-end metrics pay no tracing
// cost.
type tracer struct {
	mu    sync.Mutex
	next  int
	spans []span
}

// newID reserves a span ID so children can name their parent before
// the parent span ends.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span, assigning an ID when s has none.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
}

// selfTime returns, per layer, the summed duration of its spans minus
// the part of each span its child spans cover.
func selfTime(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.End.Sub(s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var curStart, curEnd time.Time
	open := false
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if !e.After(s) {
			continue
		}
		if open && !s.After(curEnd) {
			if e.After(curEnd) {
				curEnd = e
			}
			continue
		}
		if open {
			total += curEnd.Sub(curStart)
		}
		curStart, curEnd, open = s, e, true
	}
	if open {
		total += curEnd.Sub(curStart)
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON, the format
// Perfetto loads (and the one the simulator's own traces use). Each
// layer is one process track; overlapping spans of a layer go to
// separate thread lanes so they render side by side.
func writeChrome(w io.Writer, spans []span) error {
	if len(spans) == 0 {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[]}`+"\n")
		return err
	}
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	t0 := sorted[0].Start
	pids := map[string]int{}
	lanes := map[string][]time.Time{} // per layer: end time of each lane's last span
	type event struct {
		Name string                 `json:"name"`
		Cat  string                 `json:"cat,omitempty"`
		Ph   string                 `json:"ph"`
		Ts   float64                `json:"ts"`
		Dur  float64                `json:"dur,omitempty"`
		Pid  int                    `json:"pid"`
		Tid  int                    `json:"tid"`
		Args map[string]interface{} `json:"args,omitempty"`
	}
	var events []event
	for _, s := range sorted {
		pid, ok := pids[s.Layer]
		if !ok {
			pid = len(pids) + 1
			pids[s.Layer] = pid
			events = append(events, event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]interface{}{"name": s.Layer}})
		}
		tid := -1
		for i, end := range lanes[s.Layer] {
			if !end.After(s.Start) {
				tid = i
				break
			}
		}
		if tid < 0 {
			tid = len(lanes[s.Layer])
			lanes[s.Layer] = append(lanes[s.Layer], time.Time{})
		}
		lanes[s.Layer][tid] = s.End
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Sub(t0)) / float64(time.Microsecond),
			Dur: float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Pid: pid, Tid: tid + 1,
			Args: map[string]interface{}{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(map[string]interface{}{"displayTimeUnit": "ms", "traceEvents": events}); err != nil {
		return err
	}
	return bw.Flush()
}
