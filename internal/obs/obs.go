// Package obs is the simulator's instrument registry: named counters,
// gauges and log2-bucketed histograms that every subsystem registers on
// the sim kernel's registry at construction time. It is the
// /proc/vmstat-equivalent the paper's diagnosis leans on — per-scheme
// reclaim/refault accounting, stall distributions, queue depths — kept
// allocation-free on the hot paths so it can stay enabled for every run.
//
// The registry is also the only store of those counts: a subsystem's
// Stats (mm, zram, storage) are read back from its instruments, and its
// ResetStats resets them.
//
// Instruments are plain (non-atomic) because a simulation is
// single-threaded by design; each simulated device owns its own engine
// and therefore its own registry. All instrument methods and the
// registry accessors are safe on nil receivers, so an uninstrumented
// component (e.g. a Zram built on a nil registry in a unit test) pays
// one nil check and records nothing.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	name string
	v    uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Reset zeroes the count.
func (c *Counter) Reset() {
	if c != nil {
		c.v = 0
	}
}

// Gauge is an instantaneous level (queue depth, set size, intensity).
type Gauge struct {
	name string
	v    int64
}

// Set records the current level.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add adjusts the level by d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// HistBuckets is the number of power-of-two histogram bins. Values are
// sim-time microseconds in practice; 40 bins cover up to ~2^40 µs
// (~12 days of simulated time), far beyond any single stall.
const HistBuckets = 40

// Histogram is a fixed log2-bucketed distribution: bucket i counts
// observations v with 2^i ≤ v+1 < 2^(i+1) (so bucket 0 is v == 0).
// Recording is O(1) (one bits.Len64), never allocates, and negative
// observations clamp to zero.
type Histogram struct {
	name    string
	buckets [HistBuckets]uint64
	count   uint64
	sum     int64
	max     int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.buckets[b]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Absorb folds a snapshot sample of another histogram (same log2 bucket
// layout) into h: buckets, count, sum and max all merge. The daemon uses
// it to aggregate per-cell simulation histograms into fleet-visible
// series without touching the cells' own registries.
func (h *Histogram) Absorb(s HistSample) {
	if h == nil {
		return
	}
	for i, n := range s.Buckets {
		h.buckets[i] += n
	}
	h.count += s.Count
	h.sum += s.Sum
	if s.Max > h.max {
		h.max = s.Max
	}
}

// Reset empties the distribution.
func (h *Histogram) Reset() {
	if h != nil {
		*h = Histogram{name: h.name}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Percentile returns the value below which p∈[0,100] percent of
// observations fall, resolved to the upper edge (2^i - 1) of the
// matching bucket.
func (h *Histogram) Percentile(p float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	target := uint64(p / 100 * float64(h.count))
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen > target {
			return (int64(1) << uint(i)) - 1
		}
	}
	return h.max
}

// Registry holds the named instruments of one simulated device.
// Registration is idempotent: asking for an existing name returns the
// same instrument, so independent components may share one series.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (registering if needed) the named counter. Nil
// registries return nil instruments, which record nothing.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// Remove unregisters every instrument with the given name, so later
// snapshots leave it out. A component still holding one records into an
// instrument no snapshot reads; asking for the name again registers a
// fresh one.
func (r *Registry) Remove(name string) {
	if r == nil {
		return
	}
	delete(r.counters, name)
	delete(r.gauges, name)
	delete(r.hists, name)
}

// Reset zeroes every instrument's state while keeping the registrations
// (and the pointers components hold) intact. Experiments call it after
// warm-up, alongside the other stats resets.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.v = 0
	}
	for _, h := range r.hists {
		h.Reset()
	}
}

// CounterSample is one counter in a snapshot.
type CounterSample struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSample is one gauge in a snapshot.
type GaugeSample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistSample is one histogram in a snapshot. P50/P90/P99 resolve to
// log2 bucket upper edges. Buckets carries the raw per-bucket counts
// for exporters that need the full distribution (the Prometheus
// exposition); it is excluded from JSON so snapshot payloads — job
// results, the shard wire format — keep their established bytes.
type HistSample struct {
	Name    string              `json:"name"`
	Count   uint64              `json:"count"`
	Sum     int64               `json:"sum"`
	Max     int64               `json:"max"`
	P50     int64               `json:"p50"`
	P90     int64               `json:"p90"`
	P99     int64               `json:"p99"`
	Buckets [HistBuckets]uint64 `json:"-"`
}

// Snapshot is an immutable, name-sorted copy of a registry's state,
// ready for JSON embedding or a text dump. Order is deterministic: all
// three sections sort by instrument name.
type Snapshot struct {
	Counters []CounterSample `json:"counters,omitempty"`
	Gauges   []GaugeSample   `json:"gauges,omitempty"`
	Hists    []HistSample    `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSample{Name: name, Value: c.v})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSample{Name: name, Value: g.v})
	}
	for name, h := range r.hists {
		s.Hists = append(s.Hists, HistSample{
			Name: name, Count: h.count, Sum: h.sum, Max: h.max,
			P50: h.Percentile(50), P90: h.Percentile(90), P99: h.Percentile(99),
			Buckets: h.buckets,
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}

// SnapshotProvider is implemented by cell result types that carry an
// instrument-registry snapshot (workload.ScenarioResult). The harness
// uses it to surface per-cell snapshots to an ExecHooks.ObsSink without
// knowing the concrete result type.
type SnapshotProvider interface {
	ObsSnapshot() Snapshot
}

// Counter returns the value of the named counter in the snapshot
// (0, false when absent).
func (s Snapshot) Counter(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge returns the value of the named gauge in the snapshot.
func (s Snapshot) Gauge(name string) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Hist returns the named histogram sample from the snapshot.
func (s Snapshot) Hist(name string) (HistSample, bool) {
	for _, h := range s.Hists {
		if h.Name == name {
			return h, true
		}
	}
	return HistSample{}, false
}

// WriteTo renders the snapshot as a stable, line-oriented text dump
// (the `icesim -stats` format): one instrument per line, sections in
// counter/gauge/histogram order, names sorted within each section.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, c := range s.Counters {
		n, err := fmt.Fprintf(w, "counter %-32s %d\n", c.Name, c.Value)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	for _, g := range s.Gauges {
		n, err := fmt.Fprintf(w, "gauge   %-32s %d\n", g.Name, g.Value)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	for _, h := range s.Hists {
		n, err := fmt.Fprintf(w, "hist    %-32s count=%d sum=%d max=%d p50<=%d p90<=%d p99<=%d\n",
			h.Name, h.Count, h.Sum, h.Max, h.P50, h.P90, h.P99)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the snapshot dump as a string.
func (s Snapshot) String() string {
	var b strings.Builder
	s.WriteTo(&b)
	return b.String()
}
