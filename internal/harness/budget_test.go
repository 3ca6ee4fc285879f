package harness

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// chanBudget is a Budget of cap(b) units: a unit is held while it sits
// in the channel, so len(b) is the units in use.
type chanBudget chan struct{}

func (b chanBudget) Acquire(ctx context.Context) bool {
	select {
	case b <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (b chanBudget) Release() { <-b }

// Keep never keeps: a channel cannot tell whether a sender waits.
func (b chanBudget) Keep() bool {
	b.Release()
	return false
}

// countingBudget wraps a chanBudget and counts granted Acquires and
// Releases.
type countingBudget struct {
	chanBudget
	granted, released atomic.Int64
}

func (b *countingBudget) Acquire(ctx context.Context) bool {
	ok := b.chanBudget.Acquire(ctx)
	if ok {
		b.granted.Add(1)
	}
	return ok
}

func (b *countingBudget) Release() {
	b.released.Add(1)
	b.chanBudget.Release()
}

func (b *countingBudget) Keep() bool {
	b.Release()
	return false
}

// TestBudgetBoundsConcurrency: with a Budget of one unit, at most one
// cell is in flight even when Workers allows eight.
func TestBudgetBoundsConcurrency(t *testing.T) {
	budget := make(chanBudget, 1)
	var inflight, peak atomic.Int64
	cells := make([]Cell, 16)
	for i := range cells {
		cells[i] = Cell{Round: i}
	}
	_, err := Map(Config{Workers: 8, Budget: budget},
		cells, func(c Cell) int {
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			defer inflight.Add(-1)
			return int(c.Seed)
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("peak in-flight %d under a 1-unit budget", p)
	}
	if len(budget) != 0 {
		t.Fatalf("%d budget units leaked", len(budget))
	}
}

// TestBudgetCancelReleasesBudget: a run cancelled while some workers
// execute cells and others wait on the budget releases exactly the
// units it was granted, no more and no fewer.
func TestBudgetCancelReleasesBudget(t *testing.T) {
	budget := &countingBudget{chanBudget: make(chanBudget, 2)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := MapContext(ctx, Config{Workers: 4, Budget: budget}, Spec{Rounds: 16}.Cells(), func(c Cell) int {
		if c.Index == 3 {
			cancel()
		}
		return 0
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if g, r := budget.granted.Load(), budget.released.Load(); g == 0 || g != r {
		t.Fatalf("%d units granted, %d released", g, r)
	}
	if len(budget.chanBudget) != 0 {
		t.Fatalf("%d budget units leaked", len(budget.chanBudget))
	}
}
