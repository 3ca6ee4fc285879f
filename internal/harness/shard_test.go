package harness

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardInjectsRemoteResults: chunks served by a loopback "worker"
// merge to the same bytes as a plain run, with progress counting every
// cell exactly once. The local pool holds no budget until the worker
// has leased every stealable chunk, so the split is certain: the pinned
// cell-0 chunk runs locally and everything else remotely.
func TestShardInjectsRemoteResults(t *testing.T) {
	cells := Spec{Variants: []string{"x", "y"}, Rounds: 8}.Cells() // 16 cells
	base := Config{BaseSeed: 17, Workers: 2}
	fn := func(c Cell) int64 { return c.Seed }
	serial, err := Map(base, cells, fn)
	if err != nil {
		t.Fatal(err)
	}

	var remoteRan atomic.Int64
	remoteFn := func(c Cell) int64 {
		remoteRan.Add(1)
		return c.Seed
	}
	slots := make(chan struct{}, 1)
	slots <- struct{}{}
	runDone := make(chan struct{})
	var completed atomic.Int64
	cfg := base
	cfg.Budget = chanBudget(slots)
	cfg.Progress = func(Progress) { completed.Add(1) }
	cfg.Steal = &StealConfig{
		ChunkCells: 6, // [0,6) pinned locally; [6,12) and [12,16) stealable
		Run: func(ctx context.Context, q *LeaseQueue) {
			defer close(runDone)
			var leased []Range
			for range 2 {
				r, ok := q.Lease()
				if !ok {
					t.Error("queue drained before the worker leased both chunks")
					break
				}
				leased = append(leased, r)
			}
			<-slots
			for _, r := range leased {
				payloads, err := execRangeLocally(base, cells, r, remoteFn)
				if err != nil {
					t.Error(err)
					q.Requeue(r)
					continue
				}
				if !q.Complete(r, payloads) {
					t.Errorf("Complete rejected the payloads of %v", r)
				}
			}
		},
	}
	var localRan atomic.Int64
	out, err := Map(cfg, cells, func(c Cell) int64 {
		localRan.Add(1)
		return c.Seed
	})
	if err != nil {
		t.Fatal(err)
	}
	<-runDone
	for i := range out {
		if out[i] != serial[i] {
			t.Fatalf("slot %d = %d, want %d", i, out[i], serial[i])
		}
	}
	if n := localRan.Load(); n != 6 {
		t.Fatalf("%d cells ran locally, want the 6 of the pinned chunk", n)
	}
	if n := remoteRan.Load(); n != 10 {
		t.Fatalf("%d cells ran remotely, want 10", n)
	}
	if n := completed.Load(); n != 16 {
		t.Fatalf("progress reported %d completions, want 16", n)
	}
}

// TestShardFailedChunkFallsBackLocal: a leased chunk whose dispatch
// errors (Requeue), or whose payloads are one short or do not unmarshal
// (Complete rejects them and requeues), is re-run locally and the
// merged output still matches the plain run. The local pool waits on a
// held Budget unit until the worker has leased, so the lease is certain.
func TestShardFailedChunkFallsBackLocal(t *testing.T) {
	cells := Spec{Rounds: 12}.Cells()
	base := Config{BaseSeed: 5, Workers: 3}
	fn := func(c Cell) int64 { return c.Seed }
	serial, err := Map(base, cells, fn)
	if err != nil {
		t.Fatal(err)
	}

	// Each case resolves the lease r and reports whether the chunk went
	// back to the queue.
	cases := []struct {
		name    string
		resolve func(q *LeaseQueue, r Range) bool
	}{
		{"peer down", func(q *LeaseQueue, r Range) bool {
			q.Requeue(r)
			return true
		}},
		{"short", func(q *LeaseQueue, r Range) bool {
			payloads, err := execRangeLocally(base, cells, r, fn)
			if err != nil {
				q.Requeue(r)
				return false
			}
			return !q.Complete(r, payloads[:len(payloads)-1])
		}},
		{"garbage", func(q *LeaseQueue, r Range) bool {
			return !q.Complete(r, [][]byte{[]byte("{"), nil, nil})
		}},
	}
	for _, tc := range cases {
		slots := make(chan struct{}, 1)
		slots <- struct{}{}
		requeued := make(chan bool, 1)
		cfg := base
		cfg.Budget = chanBudget(slots)
		cfg.Steal = &StealConfig{
			ChunkCells: 3,
			Run: func(ctx context.Context, q *LeaseQueue) {
				r, ok := q.Lease()
				<-slots
				if !ok {
					requeued <- false
					return
				}
				requeued <- tc.resolve(q, r)
			},
		}
		var localRan atomic.Int64
		out, err := Map(cfg, cells, func(c Cell) int64 { localRan.Add(1); return fn(c) })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !<-requeued {
			t.Fatalf("%s: the failed chunk was not requeued (or the worker never leased)", tc.name)
		}
		for i := range out {
			if out[i] != serial[i] {
				t.Fatalf("%s: slot %d = %d, want %d", tc.name, i, out[i], serial[i])
			}
		}
		if n := localRan.Load(); int(n) != len(cells) {
			t.Fatalf("%s: %d cells ran locally, want all %d", tc.name, n, len(cells))
		}
	}
}

// TestShardInvalidChunksIgnored: a worker's run executes exactly its
// Range. Nothing outside the Range is executed, merged or sunk, and
// every in-range cell runs and sinks its payload.
func TestShardInvalidChunksIgnored(t *testing.T) {
	cells := Spec{Rounds: 10}.Cells()
	fn := func(c Cell) int64 { return c.Seed }
	serial, err := Map(Config{BaseSeed: 2, Workers: 2}, cells, fn)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	executed := map[int]bool{}
	sunk := map[int][]byte{}
	cfg := Config{BaseSeed: 2, Workers: 2}
	cfg.Range = Cells(2, 8)
	cfg.Sink = func(i int, b []byte) { sunk[i] = append([]byte(nil), b...) }
	out, err := Map(cfg, cells, func(c Cell) int64 {
		mu.Lock()
		executed[c.Index] = true
		mu.Unlock()
		return fn(c)
	})
	if !errors.Is(err, ErrRangePartial) {
		t.Fatalf("error %v does not wrap ErrRangePartial", err)
	}
	for i := range out {
		if i >= 2 && i < 8 {
			if out[i] != serial[i] {
				t.Fatalf("slot %d = %d, want %d", i, out[i], serial[i])
			}
			want, _ := json.Marshal(serial[i])
			if string(sunk[i]) != string(want) {
				t.Fatalf("sink[%d] = %q, want %q", i, sunk[i], want)
			}
			if !executed[i] {
				t.Fatalf("in-range cell %d did not execute", i)
			}
		} else {
			if out[i] != 0 {
				t.Fatalf("out-of-range slot %d holds %d", i, out[i])
			}
			if _, ok := sunk[i]; ok {
				t.Fatalf("sink saw out-of-range index %d", i)
			}
			if executed[i] {
				t.Fatalf("out-of-range cell %d executed", i)
			}
		}
	}
}
