package zram

import (
	"testing"

	"github.com/eurosys23/ice/internal/obs"
)

// hotCold is the canonical CodecFn shape: hot pages fast, cold dense.
func hotCold(info PageInfo) Codec {
	lz4, _ := Preset("lz4")
	zstd, _ := Preset("zstd")
	if info.Heat >= 2 {
		return lz4
	}
	return zstd
}

func TestCodecFnSelectsPerPage(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.LatencyScale = 2
	reg := obs.NewRegistry()
	z := New(cfg, reg)
	z.SetCodecFn(hotCold)

	_, hotRef, ok := z.Store(PageInfo{Java: true, Heat: 5})
	if !ok {
		t.Fatal("hot store rejected")
	}
	_, coldRef, ok := z.Store(PageInfo{Java: true, Heat: 0})
	if !ok {
		t.Fatal("cold store rejected")
	}
	if hotRef == coldRef {
		t.Fatalf("hot and cold pages shared codec ref %d", hotRef)
	}
	if hotRef == 0 || coldRef == 0 {
		t.Fatal("codecFn page landed on the base-config ref")
	}

	lz4Stores, zstdStores := reg.Counter("zram.stores.lz4").Value(), reg.Counter("zram.stores.zstd").Value()
	if lz4Stores != 1 || zstdStores != 1 {
		t.Fatalf("stores: lz4 %d, zstd %d", lz4Stores, zstdStores)
	}

	// Latencies are preset × LatencyScale.
	lz4, _ := Preset("lz4")
	zstd, _ := Preset("zstd")
	if got, want := z.Load(hotRef, PageInfo{Java: true}), 2*lz4.DecompressLatency; got != want {
		t.Fatalf("hot load stall %v, want %v", got, want)
	}
	if got, want := z.Load(coldRef, PageInfo{Java: true}), 2*zstd.DecompressLatency; got != want {
		t.Fatalf("cold load stall %v, want %v", got, want)
	}
	if z.Stored() != 0 {
		t.Fatalf("stored = %d after loads", z.Stored())
	}
	if z.FootprintPages() != 0 {
		t.Fatalf("footprint %d after loads", z.FootprintPages())
	}
}

// TestCodecFnFootprintUsesCodecRatio: dense-codec pages must occupy less
// than the same pages through the base config, and mixed-codec Drop must
// unwind the exact per-codec fractions.
func TestCodecFnFootprintUsesCodecRatio(t *testing.T) {
	base := New(DefaultConfig(1000), nil)
	dense := New(DefaultConfig(1000), nil)
	dense.SetCodecFn(func(PageInfo) Codec { c, _ := Preset("zstd"); return c })
	refs := make([]CodecRef, 0, 100)
	for i := 0; i < 100; i++ {
		base.Store(PageInfo{Java: true})
		_, ref, _ := dense.Store(PageInfo{Java: true})
		refs = append(refs, ref)
	}
	if dense.FootprintPages() >= base.FootprintPages() {
		t.Fatalf("zstd footprint %d not below base %d",
			dense.FootprintPages(), base.FootprintPages())
	}
	for _, ref := range refs {
		dense.Drop(ref, PageInfo{Java: true})
	}
	if dense.FootprintPages() != 0 {
		t.Fatalf("footprint %d after dropping everything", dense.FootprintPages())
	}
}

// TestNoCodecFnIsBaseBehaviour: without a CodecFn, Store must return
// ref 0 and charge exactly the config latencies — the invariant that
// keeps the pre-seam schemes byte-identical.
func TestNoCodecFnIsBaseBehaviour(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.LatencyScale = 3 // must NOT touch the base path
	z := New(cfg, nil)
	cost, ref, ok := z.Store(PageInfo{Java: false, Heat: 9})
	if !ok || ref != 0 {
		t.Fatalf("base store: cost=%v ref=%d ok=%v", cost, ref, ok)
	}
	if cost != cfg.CompressLatency {
		t.Fatalf("base compress cost %v, want %v", cost, cfg.CompressLatency)
	}
	if got := z.Load(0, PageInfo{Java: false}); got != cfg.DecompressLatency {
		t.Fatalf("base load stall %v, want %v", got, cfg.DecompressLatency)
	}
}
