package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("new engine at %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine has %d pending events", e.Pending())
	}
}

func TestEngineEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Drain(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran in order %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock at %v after drain, want 30", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Drain(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEnginePastEventPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {})
	e.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestEngineAfterNegativeClamped(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.After(-5, func() { ran = true })
	e.Step()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %v", e.Now())
	}
}

func TestEngineRunUntilStopsExactly(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	for _, ts := range []Time{5, 10, 15, 20} {
		ts := ts
		e.At(ts, func() { ran = append(ran, ts) })
	}
	e.RunUntil(12)
	if len(ran) != 2 {
		t.Fatalf("ran %v, want events at 5 and 10 only", ran)
	}
	if e.Now() != 12 {
		t.Fatalf("clock at %v, want 12", e.Now())
	}
	e.RunUntil(20)
	if len(ran) != 4 {
		t.Fatalf("ran %v after second RunUntil", ran)
	}
}

func TestEngineEveryRepeatsUntilFalse(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Every(10, func() bool {
		n++
		return n < 5
	})
	e.RunUntil(1000)
	if n != 5 {
		t.Fatalf("Every ran %d times, want 5", n)
	}
	if e.Pending() != 0 {
		t.Fatal("Every left a pending event after stopping")
	}
}

func TestEngineEveryZeroPeriodPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	e.Every(0, func() bool { return false })
}

func TestEngineDrainBudgetPanics(t *testing.T) {
	e := NewEngine(1)
	var loop func()
	loop = func() { e.After(1, loop) }
	e.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway loop did not trip the Drain budget")
		}
	}()
	e.Drain(100)
}

// TestEngineDispatchedCount also checks the process-wide total: RunUntil
// and Drain add what they dispatch, and a bare Step adds nothing.
func TestEngineDispatchedCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.After(Time(i), func() {})
	}
	total := TotalDispatched()
	e.Step()
	e.RunUntil(2)
	e.Drain(100)
	if e.Dispatched() != 7 {
		t.Fatalf("Dispatched = %d, want 7", e.Dispatched())
	}
	if got := TotalDispatched() - total; got != 6 {
		t.Fatalf("TotalDispatched rose by %d, want 6", got)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := NewEngine(42)
		rng := e.Rand()
		var out []uint64
		e.Every(Millisecond, func() bool {
			out = append(out, rng.Uint64())
			return len(out) < 50
		})
		e.RunUntil(Second)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism broken at %d: %d != %d", i, a[i], b[i])
		}
	}
}

// Property: RunUntil never moves the clock backwards and never beyond the
// target.
func TestEngineClockMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		for _, d := range delays {
			e.After(Time(d), func() {})
		}
		var last Time
		for e.Pending() > 0 {
			target := last + 100
			e.RunUntil(target)
			if e.Now() < last || e.Now() > target {
				return false
			}
			last = e.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500µs"},
		{2 * Millisecond, "2.000ms"},
		{1500 * Millisecond, "1.500s"},
		{Minute, "60.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Error("FromSeconds(1.5) wrong")
	}
	if FromMillis(2.5) != 2500*Microsecond {
		t.Error("FromMillis(2.5) wrong")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Error("Seconds() wrong")
	}
	if (3 * Millisecond).Millis() != 3.0 {
		t.Error("Millis() wrong")
	}
}

// TestCalmFollowsHorizon pins what Calm reports to a handler: the instant
// before the next pending event, capped by RunUntil's target, unbounded
// under Drain with nothing pending, and at most 0 under a bare Step. Each
// run restores the horizon it found.
func TestCalmFollowsHorizon(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	note := func() { got = append(got, e.Calm()) }
	e.At(10, note)
	e.At(40, note)
	e.RunUntil(30) // at 10: the next event (40) lies past the target
	e.At(50, func() {
		e.At(52, note)
		e.RunUntil(55) // a nested run: at 52, capped at 55
		note()         // its own horizon again: 60 is next
	})
	e.At(60, note)
	e.RunUntil(100) // at 40: 50 is next; at 60: nothing is
	e.At(200, note)
	e.Step() // a bare Step: at most 0
	e.At(300, note)
	e.Drain(10) // nothing else pending
	want := []Time{30, 49, 55, 59, 100, 0, forever}
	if len(got) != len(want) {
		t.Fatalf("Calm readings %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Calm readings %v, want %v", got, want)
		}
	}
	if c := e.Calm(); c > 0 {
		t.Fatalf("Calm after the runs = %v, want at most 0", c)
	}
}
