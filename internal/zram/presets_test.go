package zram

import (
	"testing"

	"github.com/eurosys23/ice/internal/sim"
)

// TestDefaultConfigByteIdentical pins the default model to the exact
// constants both devices have always used: introducing codec presets
// must not perturb any existing result.
func TestDefaultConfigByteIdentical(t *testing.T) {
	cfg := DefaultConfig(1000)
	want := Config{
		CapacityPages:     1000,
		JavaRatio:         2.8,
		NativeRatio:       2.2,
		CompressLatency:   120 * sim.Microsecond,
		DecompressLatency: 70 * sim.Microsecond,
	}
	if cfg != want {
		t.Fatalf("DefaultConfig = %+v, want historical %+v", cfg, want)
	}
}

func TestPresetLookup(t *testing.T) {
	if names := PresetNames(); len(names) != 3 ||
		names[0] != "lz4" || names[1] != "snappy" || names[2] != "zstd" {
		t.Fatalf("PresetNames = %v", names)
	}
	// Empty name resolves to the default codec.
	def, err := Preset("")
	if err != nil || def.Name != DefaultCodec {
		t.Fatalf("Preset(\"\") = %+v, %v", def, err)
	}
	if _, err := Preset("lzma"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

// TestPresetOrdering checks the catalogue encodes the published
// algorithm trade-offs: zstd densest and slowest, snappy loosest.
func TestPresetOrdering(t *testing.T) {
	lz4, _ := Preset("lz4")
	zstd, _ := Preset("zstd")
	snappy, _ := Preset("snappy")
	if !(zstd.JavaRatio > lz4.JavaRatio && lz4.JavaRatio > snappy.JavaRatio) {
		t.Fatalf("java ratio ordering violated: zstd=%v lz4=%v snappy=%v",
			zstd.JavaRatio, lz4.JavaRatio, snappy.JavaRatio)
	}
	if !(zstd.NativeRatio > lz4.NativeRatio && lz4.NativeRatio > snappy.NativeRatio) {
		t.Fatal("native ratio ordering violated")
	}
	if zstd.CompressLatency <= lz4.CompressLatency {
		t.Fatal("zstd should compress slower than lz4")
	}
	if zstd.DecompressLatency <= lz4.DecompressLatency {
		t.Fatal("zstd should decompress slower than lz4")
	}
}

// TestCodecApply keeps capacity while replacing the algorithm
// parameters, and a codec-selected partition behaves accordingly.
func TestCodecApply(t *testing.T) {
	zstd, _ := Preset("zstd")
	cfg := zstd.Apply(DefaultConfig(500))
	if cfg.CapacityPages != 500 {
		t.Fatalf("Apply changed capacity: %d", cfg.CapacityPages)
	}
	if cfg.JavaRatio != zstd.JavaRatio || cfg.CompressLatency != zstd.CompressLatency {
		t.Fatalf("Apply did not take codec parameters: %+v", cfg)
	}

	// A denser codec stores the same pages in a smaller footprint.
	dense, loose := New(cfg, nil), New(DefaultConfig(500), nil)
	for i := 0; i < 100; i++ {
		dense.Store(PageInfo{Java: true})
		loose.Store(PageInfo{Java: true})
	}
	if dense.FootprintPages() >= loose.FootprintPages() {
		t.Fatalf("zstd footprint %d not below lz4 footprint %d",
			dense.FootprintPages(), loose.FootprintPages())
	}
}
