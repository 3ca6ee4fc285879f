// Package zram models the compressed in-memory swap device Android uses for
// anonymous pages. When the memory manager reclaims an anonymous page its
// contents are compressed and stored here; a later refault decompresses it
// back. The store itself consumes physical memory equal to the compressed
// size, which the memory manager accounts for.
package zram

import (
	"fmt"

	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/sim"
)

// Config describes a ZRAM partition. Capacity is expressed in *uncompressed*
// simulated pages, matching the paper's S^g/S^h parameters (512 MB and
// 1024 MB partitions that bound "how many anonymous pages can be reclaimed
// at the maximum").
type Config struct {
	// CapacityPages is the maximum number of logical (uncompressed) pages
	// the partition may hold.
	CapacityPages int
	// JavaRatio and NativeRatio are the compression ratios applied to pages
	// from the Java heap and the native heap. Java object graphs compress
	// better than malloc'd native data.
	JavaRatio   float64
	NativeRatio float64
	// CompressLatency / DecompressLatency are the CPU cost per page. The
	// compressor charges the reclaiming task; the decompressor charges the
	// faulting task.
	CompressLatency   sim.Time
	DecompressLatency sim.Time
	// LatencyScale is the device CPU factor applied to codecs selected
	// through SetCodecFn (the base latencies above arrive pre-scaled
	// from the device profile; preset codecs picked per page do not).
	// Zero means 1.
	LatencyScale float64
}

// PageInfo describes a page crossing the swap boundary. It replaces the
// bare java flag the store/load/drop calls used to take, so per-page
// policies (Ariadne's hotness-aware codec choice) can see both the page
// class and the memory manager's hotness estimate.
type PageInfo struct {
	// Java marks Java-heap pages (they compress better than native).
	Java bool
	// Heat is mm's per-page hotness: a saturating access counter, aged
	// on LRU demotion. 0 is stone cold.
	Heat uint8
}

// CodecRef identifies the codec a stored page was compressed with; the
// memory manager keeps it in the page's swap entry and hands it back on
// Load/Drop so mixed-codec accounting stays exact. Ref 0 is always the
// partition's base Config parameters.
type CodecRef uint8

// CodecFn selects the codec for a page about to be compressed. Returning
// codecs with distinct Names partitions the store; the Name is the
// codec's identity for interning, so a CodecFn must not reuse a Name
// with different parameters.
type CodecFn func(PageInfo) Codec

// DefaultConfig returns the model used for both devices, sized by
// capacity: the DefaultCodec ("lz4") preset, whose parameters are
// byte-identical to the historical hard-wired constants.
func DefaultConfig(capacityPages int) Config {
	codec, err := Preset(DefaultCodec)
	if err != nil {
		panic(err) // the default preset is always registered
	}
	return codec.Apply(Config{CapacityPages: capacityPages})
}

// Stats aggregates ZRAM activity. It is read back from the partition's
// registry instruments.
type Stats struct {
	StoredTotal    uint64 // pages ever stored
	LoadedTotal    uint64 // pages ever decompressed back
	RejectedFull   uint64 // store attempts rejected for lack of capacity
	CompressTime   sim.Time
	DecompressTime sim.Time
}

// Zram is a simulated compressed swap partition.
type Zram struct {
	cfg Config

	// stored counts logical pages currently held.
	stored int
	// compressedPages is the physical footprint of the store, in fractional
	// pages (sum of 1/ratio per stored page).
	compressedPages float64

	// codecFn, when set, picks a codec per stored page. Nil keeps the
	// base Config parameters for everything (ref 0).
	codecFn CodecFn
	// codecs is the interned codec table indexed by CodecRef; entry 0 is
	// the base Config. storeCtrs is the parallel per-codec
	// "zram.stores.<name>" counter table.
	codecs    []Codec
	codecRefs map[string]CodecRef
	storeCtrs []*obs.Counter

	// reg registers the store counter of each codec interned later.
	reg          *obs.Registry
	storedCtr    *obs.Counter
	loadedCtr    *obs.Counter
	rejectedCtr  *obs.Counter
	storedGauge  *obs.Gauge
	footGauge    *obs.Gauge
	compressUs   *obs.Histogram
	decompressUs *obs.Histogram
}

// New creates a ZRAM partition whose instruments register on reg. A nil
// registry (unit tests) records nothing, so Stats reads zero.
func New(cfg Config, reg *obs.Registry) *Zram {
	if cfg.CapacityPages <= 0 {
		panic(fmt.Sprintf("zram: non-positive capacity %d", cfg.CapacityPages))
	}
	if cfg.JavaRatio <= 1 || cfg.NativeRatio <= 1 {
		panic("zram: compression ratios must exceed 1")
	}
	base := Codec{
		Name:              "base",
		JavaRatio:         cfg.JavaRatio,
		NativeRatio:       cfg.NativeRatio,
		CompressLatency:   cfg.CompressLatency,
		DecompressLatency: cfg.DecompressLatency,
	}
	return &Zram{
		cfg:          cfg,
		codecs:       []Codec{base},
		codecRefs:    map[string]CodecRef{base.Name: 0},
		storeCtrs:    []*obs.Counter{reg.Counter("zram.stores." + base.Name)},
		reg:          reg,
		storedCtr:    reg.Counter("zram.stored.pages"),
		loadedCtr:    reg.Counter("zram.loaded.pages"),
		rejectedCtr:  reg.Counter("zram.rejected.full"),
		storedGauge:  reg.Gauge("zram.stored_pages"),
		footGauge:    reg.Gauge("zram.footprint_pages"),
		compressUs:   reg.Histogram("zram.compress_us"),
		decompressUs: reg.Histogram("zram.decompress_us"),
	}
}

// SetCodecFn installs a per-page codec selector. Schemes (Ariadne) call
// this at attach time; nil restores the base-config behaviour for pages
// stored from then on (already-stored pages keep their codec).
func (z *Zram) SetCodecFn(fn CodecFn) { z.codecFn = fn }

// selectRef resolves the codec for a page about to be stored, interning
// first-seen codecs. Latencies of codecs arriving through the CodecFn
// are scaled by Config.LatencyScale (device CPU factor); the base entry
// is pre-scaled by the device profile and is never touched.
func (z *Zram) selectRef(info PageInfo) CodecRef {
	if z.codecFn == nil {
		return 0
	}
	c := z.codecFn(info)
	if ref, ok := z.codecRefs[c.Name]; ok {
		return ref
	}
	if c.JavaRatio <= 1 || c.NativeRatio <= 1 {
		panic(fmt.Sprintf("zram: codec %q ratios must exceed 1", c.Name))
	}
	if len(z.codecs) > int(^CodecRef(0)) {
		panic("zram: codec table overflow")
	}
	scale := z.cfg.LatencyScale
	if scale == 0 {
		scale = 1
	}
	c.CompressLatency = sim.Time(float64(c.CompressLatency) * scale)
	c.DecompressLatency = sim.Time(float64(c.DecompressLatency) * scale)
	ref := CodecRef(len(z.codecs))
	z.codecs = append(z.codecs, c)
	z.storeCtrs = append(z.storeCtrs, z.reg.Counter("zram.stores."+c.Name))
	z.codecRefs[c.Name] = ref
	return ref
}

// Config returns the partition configuration.
func (z *Zram) Config() Config { return z.cfg }

// Stats returns a snapshot of the accumulated statistics.
func (z *Zram) Stats() Stats {
	return Stats{
		StoredTotal:    z.storedCtr.Value(),
		LoadedTotal:    z.loadedCtr.Value(),
		RejectedFull:   z.rejectedCtr.Value(),
		CompressTime:   sim.Time(z.compressUs.Sum()),
		DecompressTime: sim.Time(z.decompressUs.Sum()),
	}
}

// ResetStats zeroes the partition's counters and latency histograms,
// the per-codec store counters included; contents and the occupancy
// gauges are preserved.
func (z *Zram) ResetStats() {
	for _, c := range z.storeCtrs {
		c.Reset()
	}
	z.storedCtr.Reset()
	z.loadedCtr.Reset()
	z.rejectedCtr.Reset()
	z.compressUs.Reset()
	z.decompressUs.Reset()
}

// Stored reports the number of logical pages currently held.
func (z *Zram) Stored() int { return z.stored }

// FootprintPages reports the physical memory the store occupies, rounded up
// to whole pages. The memory manager subtracts this from free memory.
func (z *Zram) FootprintPages() int {
	f := int(z.compressedPages)
	if z.compressedPages > float64(f) {
		f++
	}
	return f
}

// Full reports whether another page can be accepted.
func (z *Zram) Full() bool { return z.stored >= z.cfg.CapacityPages }

// Store compresses one page into the partition with the codec the
// installed CodecFn picks (the base config without one). It returns the
// CPU cost to charge the reclaimer, the codec reference the caller must
// keep in the page's swap entry, and ok=false if the partition is full
// (the page then cannot be reclaimed to ZRAM).
func (z *Zram) Store(info PageInfo) (cost sim.Time, ref CodecRef, ok bool) {
	if z.Full() {
		z.rejectedCtr.Inc()
		return 0, 0, false
	}
	ref = z.selectRef(info)
	c := &z.codecs[ref]
	z.stored++
	z.compressedPages += 1 / c.ratio(info.Java)
	z.storeCtrs[ref].Inc()
	z.storedCtr.Inc()
	z.compressUs.Observe(int64(c.CompressLatency))
	z.noteLevels()
	return c.CompressLatency, ref, true
}

// noteLevels refreshes the occupancy gauges after any mutation.
func (z *Zram) noteLevels() {
	z.storedGauge.Set(int64(z.stored))
	z.footGauge.Set(int64(z.FootprintPages()))
}

// Load decompresses one page out of the partition (a refault) and frees
// its slot. ref must be the reference Store returned for the page. It
// returns the CPU stall to charge the faulting task.
func (z *Zram) Load(ref CodecRef, info PageInfo) sim.Time {
	if z.stored <= 0 {
		panic("zram: Load on empty partition")
	}
	c := &z.codecs[ref]
	z.stored--
	z.compressedPages -= 1 / c.ratio(info.Java)
	if z.compressedPages < 0 || z.stored == 0 {
		z.compressedPages = 0
	}
	z.loadedCtr.Inc()
	z.decompressUs.Observe(int64(c.DecompressLatency))
	z.noteLevels()
	return c.DecompressLatency
}

// Drop discards one stored page without decompressing it (the owning
// process died and its swap slots are freed). ref must be the reference
// Store returned for the page.
func (z *Zram) Drop(ref CodecRef, info PageInfo) {
	if z.stored <= 0 {
		panic("zram: Drop on empty partition")
	}
	c := &z.codecs[ref]
	z.stored--
	z.compressedPages -= 1 / c.ratio(info.Java)
	if z.compressedPages < 0 || z.stored == 0 {
		// An empty store occupies nothing; snapping here also stops
		// float residue from accumulating across drain cycles.
		z.compressedPages = 0
	}
	z.noteLevels()
}
