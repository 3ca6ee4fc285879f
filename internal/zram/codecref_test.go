package zram

import (
	"fmt"
	"testing"
)

// TestCodecRefFullRangeNoTruncation pins the zref truncation fix: the
// memory manager stores CodecRef verbatim in each page's swap entry (it
// used to squeeze it through uint8, which would silently wrap if CodecRef
// ever widened), and the codec table itself must hand out every
// representable ref un-truncated before refusing the first codec past the
// limit — never wrapping to a stale entry.
func TestCodecRefFullRangeNoTruncation(t *testing.T) {
	z := New(DefaultConfig(10000), nil)
	var name string
	z.SetCodecFn(func(PageInfo) Codec {
		return Codec{
			Name:              name,
			JavaRatio:         2.5,
			NativeRatio:       2.0,
			CompressLatency:   DefaultConfig(1).CompressLatency,
			DecompressLatency: DefaultConfig(1).DecompressLatency,
		}
	})
	maxRef := int(^CodecRef(0))
	for i := 1; i <= maxRef; i++ {
		name = fmt.Sprintf("c%03d", i)
		_, ref, ok := z.Store(PageInfo{Java: true})
		if !ok {
			t.Fatalf("store %d rejected", i)
		}
		if int(ref) != i {
			t.Fatalf("codec %d interned as ref %d: truncated or reordered", i, ref)
		}
	}
	// The last interned ref must round-trip through Load accounting.
	if stall := z.Load(CodecRef(maxRef), PageInfo{Java: true}); stall <= 0 {
		t.Fatalf("Load at max ref returned %v", stall)
	}
	// One codec beyond the representable range must fail registration
	// loudly instead of wrapping.
	defer func() {
		if recover() == nil {
			t.Fatal("codec table overflow did not panic")
		}
	}()
	name = "c-overflow"
	z.Store(PageInfo{Java: true})
}
