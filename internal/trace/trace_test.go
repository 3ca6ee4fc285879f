package trace

import (
	"strings"
	"testing"

	"github.com/eurosys23/ice/internal/sim"
)

func TestNilBufferSafe(t *testing.T) {
	var b *Buffer
	b.Emit(Event{Name: "x"}) // must not panic
	if b.Len() != 0 || b.Events() != nil {
		t.Fatal("nil buffer not empty")
	}
}

func TestRingOrderAndWrap(t *testing.T) {
	b := NewBuffer(4)
	for i := 1; i <= 6; i++ {
		b.Emit(Event{When: sim.Time(i), Cat: CatMM, Name: "e"})
	}
	evs := b.Events()
	if len(evs) != 4 {
		t.Fatalf("held %d events", len(evs))
	}
	for i, ev := range evs {
		if ev.When != sim.Time(i+3) {
			t.Fatalf("wrap order wrong: %v", evs)
		}
	}
	if b.Recorded != 6 {
		t.Fatalf("Recorded = %d", b.Recorded)
	}
}

func TestCategoryFilter(t *testing.T) {
	b := NewBuffer(16)
	b.Emit(Event{Cat: CatFrame, Name: "frame"})
	b.Emit(Event{Cat: CatMM, Name: "refault"})
	if got := b.Filter(CatFrame); len(got) != 1 || got[0].Name != "frame" {
		t.Fatalf("Filter returned %v", got)
	}
}

func TestDump(t *testing.T) {
	b := NewBuffer(8)
	b.Emit(Event{When: 1500, Cat: CatLaunch, Name: "launch-cold", Subject: 10001, Arg: 4200})
	var sb strings.Builder
	if err := b.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"launch", "launch-cold", "10001", "4200"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q: %s", want, out)
		}
	}
}

func TestSummarize(t *testing.T) {
	b := NewBuffer(32)
	for i := 0; i < 5; i++ {
		b.Emit(Event{Cat: CatMM, Name: "refault-bg", Arg: 10})
	}
	for i := 0; i < 2; i++ {
		b.Emit(Event{Cat: CatFrame, Name: "frame", Arg: 12000})
	}
	sum := b.Summarize()
	if len(sum) != 2 {
		t.Fatalf("%d summary rows", len(sum))
	}
	if sum[0].Name != "refault-bg" || sum[0].Count != 5 || sum[0].ArgSum != 50 {
		t.Fatalf("top row %+v", sum[0])
	}
	if sum[1].Name != "frame" || sum[1].ArgSum != 24000 {
		t.Fatalf("second row %+v", sum[1])
	}
}

func TestDefaultCapacity(t *testing.T) {
	b := NewBuffer(0)
	if len(b.events) != 4096 {
		t.Fatalf("default capacity %d", len(b.events))
	}
}

func TestCategoryStrings(t *testing.T) {
	for c := Category(0); c < numCategories; c++ {
		if strings.HasPrefix(c.String(), "Category(") {
			t.Fatalf("category %d unnamed", c)
		}
	}
}
