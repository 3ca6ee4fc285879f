package storage

import (
	"testing"
	"testing/quick"

	"github.com/eurosys23/ice/internal/sim"
)

func newTestDevice(p Params) (*sim.Engine, *Device) {
	eng := sim.NewEngine(1)
	return eng, New(eng, p)
}

func TestReadServiceTime(t *testing.T) {
	eng, d := newTestDevice(UFS21)
	done := false
	completion := d.Read(10, func() { done = true })
	want := eng.Now() + 10*UFS21.ReadLatency
	if completion != want {
		t.Fatalf("completion %v, want %v", completion, want)
	}
	eng.RunUntil(completion)
	if !done {
		t.Fatal("completion callback did not run")
	}
}

func TestRandomReadSlower(t *testing.T) {
	_, d := newTestDevice(UFS21)
	seq := d.Read(10, nil)
	// fresh device for independent measurement
	_, d2 := newTestDevice(UFS21)
	rand := d2.ReadRandom(10, nil)
	if rand <= seq {
		t.Fatalf("random read (%v) not slower than sequential (%v)", rand, seq)
	}
}

func TestReadsQueueBehindReads(t *testing.T) {
	_, d := newTestDevice(UFS21)
	first := d.Read(10, nil)
	second := d.Read(1, nil)
	if second <= first {
		t.Fatalf("second read completed at %v, not after first at %v", second, first)
	}
}

func TestReadQueueWaitCapped(t *testing.T) {
	_, d := newTestDevice(UFS21)
	d.Read(10000, nil) // enormous backlog
	start := d.ReadQueueDelay()
	if start > maxReadQueueWait {
		t.Fatalf("read queue delay %v exceeds cap %v", start, maxReadQueueWait)
	}
}

func TestWriteBacklogDelaysReads(t *testing.T) {
	_, d := newTestDevice(UFS21)
	d.Write(100, nil)
	delayed := d.Read(1, nil)

	_, d2 := newTestDevice(UFS21)
	clean := d2.Read(1, nil)
	if delayed <= clean {
		t.Fatal("write backlog did not delay the read")
	}
	// And the interference is capped.
	_, d3 := newTestDevice(UFS21)
	d3.Write(1000000, nil)
	capped := d3.Read(1, nil)
	if capped > clean+maxWriteInterference {
		t.Fatalf("write interference uncapped: %v", capped)
	}
}

func TestWritesIgnoreReads(t *testing.T) {
	_, d := newTestDevice(UFS21)
	d.Read(1000, nil)
	w := d.Write(1, nil)
	_, d2 := newTestDevice(UFS21)
	w2 := d2.Write(1, nil)
	if w != w2 {
		t.Fatalf("reads delayed a write: %v vs %v", w, w2)
	}
}

func TestZeroSizeRequestsNoop(t *testing.T) {
	eng, d := newTestDevice(EMMC51)
	if c := d.Read(0, nil); c != eng.Now() {
		t.Fatal("zero read should complete immediately")
	}
	if c := d.Write(0, nil); c != eng.Now() {
		t.Fatal("zero write should complete immediately")
	}
	if d.Stats().TotalRequests() != 0 {
		t.Fatal("zero requests counted")
	}
}

func TestStatsAccounting(t *testing.T) {
	_, d := newTestDevice(EMMC51)
	d.Read(5, nil)
	d.ReadRandom(3, nil)
	d.Write(7, nil)
	st := d.Stats()
	if st.ReadRequests != 2 || st.PagesRead != 8 {
		t.Fatalf("read stats %+v", st)
	}
	if st.WriteRequests != 1 || st.PagesWritten != 7 {
		t.Fatalf("write stats %+v", st)
	}
	if st.TotalRequests() != 3 || st.TotalPages() != 15 {
		t.Fatalf("totals %+v", st)
	}
	d.ResetStats()
	if st := d.Stats(); st != (Stats{}) {
		t.Fatalf("ResetStats did not clear: %+v", st)
	}
}

func TestEMMCSlowerThanUFS(t *testing.T) {
	_, e := newTestDevice(EMMC51)
	_, u := newTestDevice(UFS21)
	if e.Read(100, nil) <= u.Read(100, nil) {
		t.Fatal("eMMC should be slower than UFS")
	}
}

func TestDefaultRandReadLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	d := New(eng, Params{Name: "x", ReadLatency: 100, WriteLatency: 100})
	if d.Params().RandReadLatency != 400 {
		t.Fatalf("default random-read latency %v, want 4x sequential", d.Params().RandReadLatency)
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero latency did not panic")
		}
	}()
	New(sim.NewEngine(1), Params{})
}

// Property: a read never completes before its own service time, and the
// queueing delay it suffers is bounded by the NCQ cap (small requests may
// overtake a huge backlog — completions are deliberately NOT monotone).
func TestReadCompletionBounds(t *testing.T) {
	f := func(sizes []uint8) bool {
		eng, d := newTestDevice(UFS21)
		for _, s := range sizes {
			n := int(s%32) + 1
			service := sim.Time(n) * UFS21.ReadLatency
			c := d.Read(n, nil)
			lo := eng.Now() + service
			hi := eng.Now() + service + maxReadQueueWait
			if c < lo || c > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: BusyTime equals the sum of service times regardless of
// interleaving.
func TestBusyTimeConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		_, d := newTestDevice(UFS21)
		var want sim.Time
		for i, op := range ops {
			n := int(op%16) + 1
			switch i % 3 {
			case 0:
				d.Read(n, nil)
				want += sim.Time(n) * UFS21.ReadLatency
			case 1:
				d.ReadRandom(n, nil)
				want += sim.Time(n) * UFS21.RandReadLatency
			case 2:
				d.Write(n, nil)
				want += sim.Time(n) * UFS21.WriteLatency
			}
		}
		return d.Stats().BusyTime == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
