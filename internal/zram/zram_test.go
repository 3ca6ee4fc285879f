package zram

import (
	"testing"
	"testing/quick"

	"github.com/eurosys23/ice/internal/obs"
)

func TestStoreLoadRoundTrip(t *testing.T) {
	z := New(DefaultConfig(100), nil)
	cost, _, ok := z.Store(PageInfo{Java: true})
	if !ok || cost <= 0 {
		t.Fatalf("Store failed: cost=%v ok=%v", cost, ok)
	}
	if z.Stored() != 1 {
		t.Fatalf("Stored = %d", z.Stored())
	}
	stall := z.Load(0, PageInfo{Java: true})
	if stall <= 0 {
		t.Fatal("Load returned zero stall")
	}
	if z.Stored() != 0 {
		t.Fatal("Load did not free the slot")
	}
}

func TestCapacityEnforced(t *testing.T) {
	z := New(DefaultConfig(3), obs.NewRegistry())
	for i := 0; i < 3; i++ {
		if _, _, ok := z.Store(PageInfo{Java: false}); !ok {
			t.Fatalf("Store %d rejected below capacity", i)
		}
	}
	if !z.Full() {
		t.Fatal("partition should be full")
	}
	if _, _, ok := z.Store(PageInfo{Java: false}); ok {
		t.Fatal("Store accepted beyond capacity")
	}
	if z.Stats().RejectedFull != 1 {
		t.Fatalf("RejectedFull = %d", z.Stats().RejectedFull)
	}
}

func TestCompressionFootprint(t *testing.T) {
	cfg := DefaultConfig(1000)
	z := New(cfg, nil)
	for i := 0; i < 100; i++ {
		z.Store(PageInfo{Java: true}) // java, ratio 2.8
	}
	// 100 pages at ratio 2.8 occupy ~36 physical pages.
	fp := z.FootprintPages()
	if fp < 35 || fp > 37 {
		t.Fatalf("footprint %d, want ≈36", fp)
	}
}

func TestNativeCompressesWorseThanJava(t *testing.T) {
	zj := New(DefaultConfig(1000), nil)
	zn := New(DefaultConfig(1000), nil)
	for i := 0; i < 50; i++ {
		zj.Store(PageInfo{Java: true})
		zn.Store(PageInfo{Java: false})
	}
	if zn.FootprintPages() <= zj.FootprintPages() {
		t.Fatal("native pages should compress worse than java pages")
	}
}

func TestDropFreesWithoutDecompression(t *testing.T) {
	z := New(DefaultConfig(10), obs.NewRegistry())
	z.Store(PageInfo{Java: true})
	z.Drop(0, PageInfo{Java: true})
	if z.Stored() != 0 {
		t.Fatal("Drop did not free")
	}
	if z.Stats().LoadedTotal != 0 {
		t.Fatal("Drop counted as a load")
	}
	if z.FootprintPages() != 0 {
		t.Fatalf("footprint %d after drop", z.FootprintPages())
	}
}

func TestLoadEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Load on empty did not panic")
		}
	}()
	New(DefaultConfig(10), nil).Load(0, PageInfo{Java: true})
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	New(Config{CapacityPages: 0, JavaRatio: 2, NativeRatio: 2}, nil)
}

func TestStatsTotals(t *testing.T) {
	z := New(DefaultConfig(100), obs.NewRegistry())
	for i := 0; i < 10; i++ {
		z.Store(PageInfo{Java: i%2 == 0})
	}
	for i := 0; i < 4; i++ {
		z.Load(0, PageInfo{Java: i%2 == 0})
	}
	st := z.Stats()
	if st.StoredTotal != 10 || st.LoadedTotal != 4 {
		t.Fatalf("stats %+v", st)
	}
	if st.CompressTime <= 0 || st.DecompressTime <= 0 {
		t.Fatal("time accounting missing")
	}
	z.ResetStats()
	if st := z.Stats(); st != (Stats{}) {
		t.Fatalf("ResetStats did not clear: %+v", st)
	}
	if z.Stored() != 6 {
		t.Fatal("ResetStats must preserve contents")
	}
}

// Property: stored count equals stores minus loads minus drops, and the
// footprint never exceeds the logical count nor goes negative.
func TestOccupancyInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		z := New(DefaultConfig(64), nil)
		logical := 0
		var kinds []bool
		for _, op := range ops {
			java := op&1 == 0
			switch op % 3 {
			case 0:
				if _, _, ok := z.Store(PageInfo{Java: java}); ok {
					logical++
					kinds = append(kinds, java)
				}
			case 1:
				if len(kinds) > 0 {
					z.Load(0, PageInfo{Java: kinds[len(kinds)-1]})
					kinds = kinds[:len(kinds)-1]
					logical--
				}
			case 2:
				if len(kinds) > 0 {
					z.Drop(0, PageInfo{Java: kinds[len(kinds)-1]})
					kinds = kinds[:len(kinds)-1]
					logical--
				}
			}
			if z.Stored() != logical {
				return false
			}
			if z.FootprintPages() < 0 || z.FootprintPages() > logical+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
