package harness

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stealLoop drives one fake remote executor: lease, execute, merge;
// exit on drain. Mirrors the service's peer lease loop.
func stealLoop(q *LeaseQueue, exec func(r Range) ([][]byte, error)) {
	for {
		r, ok := q.Lease()
		if !ok {
			return
		}
		payloads, err := exec(r)
		if err != nil {
			q.Requeue(r)
			return
		}
		q.Complete(r, payloads)
	}
}

// TestStealAllLocal: Steal set with no remote loops behaves exactly
// like a plain run — same values, every cell completed once.
func TestStealAllLocal(t *testing.T) {
	cells := Spec{Variants: []string{"a", "b"}, Rounds: 7}.Cells() // 14 cells
	fn := func(c Cell) int64 { return c.Seed }
	serial, err := Map(Config{BaseSeed: 5, Workers: 1}, cells, fn)
	if err != nil {
		t.Fatal(err)
	}
	var completed atomic.Int64
	cfg := Config{BaseSeed: 5, Workers: 3, Progress: func(Progress) {}}
	cfg.Progress = func(Progress) { completed.Add(1) }
	cfg.Steal = &StealConfig{ChunkCells: 3}
	out, err := Map(cfg, cells, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != serial[i] {
			t.Fatalf("slot %d = %d, want %d", i, out[i], serial[i])
		}
	}
	if n := completed.Load(); int(n) != len(cells) {
		t.Fatalf("progress reported %d completions, want %d", n, len(cells))
	}
}

// TestStealRemoteLoopsMergeIdentically: two fake remote lease loops
// pull chunks concurrently with a slow one-worker local pool; the
// merged matrix is identical to a serial run, remote executors did
// real work, and the pinned cell-0 chunk never left the local pool.
func TestStealRemoteLoopsMergeIdentically(t *testing.T) {
	cells := Spec{Variants: []string{"x", "y"}, Rounds: 8}.Cells() // 16 cells
	base := Config{BaseSeed: 17, Workers: 2}
	slow := func(c Cell) int64 { time.Sleep(2 * time.Millisecond); return c.Seed }
	serial, err := Map(base, cells, func(c Cell) int64 { return c.Seed })
	if err != nil {
		t.Fatal(err)
	}

	var remoteRan atomic.Int64
	remoteFn := func(c Cell) int64 { remoteRan.Add(1); return slow(c) }
	var completed atomic.Int64
	cfg := Config{BaseSeed: 17, Workers: 1}
	cfg.Progress = func(Progress) { completed.Add(1) }
	cfg.Steal = &StealConfig{
		ChunkCells: 3,
		Run: func(ctx context.Context, q *LeaseQueue) {
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					stealLoop(q, func(r Range) ([][]byte, error) {
						if r.From == 0 {
							t.Error("pinned chunk containing cell 0 was leased remotely")
						}
						return execRangeLocally(base, cells, r, remoteFn)
					})
				}()
			}
			wg.Wait()
			<-q.Drained()
		},
	}
	out, err := Map(cfg, cells, slow)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != serial[i] {
			t.Fatalf("slot %d = %d, want %d", i, out[i], serial[i])
		}
	}
	if remoteRan.Load() == 0 {
		t.Fatal("remote loops leased no work")
	}
	if n := completed.Load(); int(n) != len(cells) {
		t.Fatalf("progress reported %d completions, want %d", n, len(cells))
	}
}

// TestStealRequeueRunsLocally: a remote loop whose every dispatch
// fails requeues its chunks; the local pool drains them and the
// result is still byte-identical — the dead-peer path.
func TestStealRequeueRunsLocally(t *testing.T) {
	cells := Spec{Rounds: 10}.Cells()
	fn := func(c Cell) int64 { return c.Seed }
	serial, err := Map(Config{BaseSeed: 9, Workers: 1}, cells, fn)
	if err != nil {
		t.Fatal(err)
	}
	var leased atomic.Int64
	cfg := Config{BaseSeed: 9, Workers: 2}
	cfg.Steal = &StealConfig{
		ChunkCells: 2,
		Run: func(ctx context.Context, q *LeaseQueue) {
			stealLoop(q, func(r Range) ([][]byte, error) {
				leased.Add(1)
				return nil, errors.New("peer down")
			})
		},
	}
	var localRan atomic.Int64
	out, err := Map(cfg, cells, func(c Cell) int64 { localRan.Add(1); return fn(c) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != serial[i] {
			t.Fatalf("slot %d = %d, want %d", i, out[i], serial[i])
		}
	}
	if int(localRan.Load()) != len(cells) {
		t.Fatalf("%d cells ran locally, want all %d", localRan.Load(), len(cells))
	}
}

// TestStealGarbagePayloadRequeues: Complete rejects a payload set that
// does not unmarshal, requeues the chunk, and the merged result stays
// correct with no slot corrupted.
func TestStealGarbagePayloadRequeues(t *testing.T) {
	cells := Spec{Rounds: 8}.Cells()
	fn := func(c Cell) int64 { return c.Seed }
	serial, err := Map(Config{BaseSeed: 2, Workers: 1}, cells, fn)
	if err != nil {
		t.Fatal(err)
	}
	rejected := make(chan bool, 1)
	// One slow local worker: the pinned chunk keeps it busy long enough
	// that the remote loop reliably leases a stealable chunk.
	cfg := Config{BaseSeed: 2, Workers: 1}
	cfg.Steal = &StealConfig{
		ChunkCells: 2,
		Run: func(ctx context.Context, q *LeaseQueue) {
			r, ok := q.Lease()
			if !ok {
				rejected <- false
				return
			}
			bad := make([][]byte, r.Len())
			for i := range bad {
				bad[i] = []byte("not json")
			}
			rejected <- !q.Complete(r, bad)
		},
	}
	out, err := Map(cfg, cells, func(c Cell) int64 { time.Sleep(2 * time.Millisecond); return fn(c) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != serial[i] {
			t.Fatalf("slot %d = %d, want %d", i, out[i], serial[i])
		}
	}
	if ok := <-rejected; !ok {
		t.Fatal("Complete accepted garbage payloads (or the loop never leased)")
	}
}

// TestStealWorkerAndChunkInvariance: results are identical across
// worker counts and chunk sizes.
func TestStealWorkerAndChunkInvariance(t *testing.T) {
	cells := Spec{Variants: []string{"v1", "v2", "v3"}, Rounds: 5}.Cells() // 15 cells
	fn := func(c Cell) int64 { return c.Seed*31 + int64(c.Index) }
	serial, err := Map(Config{BaseSeed: 23, Workers: 1}, cells, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5} {
		for _, chunk := range []int{1, 3, 7} {
			cfg := Config{BaseSeed: 23, Workers: workers}
			cfg.Steal = &StealConfig{ChunkCells: chunk}
			out, err := Map(cfg, cells, fn)
			if err != nil {
				t.Fatal(err)
			}
			for i := range out {
				if out[i] != serial[i] {
					t.Fatalf("workers=%d chunk=%d: slot %d = %d, want %d", workers, chunk, i, out[i], serial[i])
				}
			}
		}
	}
}

// TestStealCancellation: cancelling mid-run unblocks the local pool,
// the remote loops' Lease calls return false, and MapContext reports
// the context error without deadlocking.
func TestStealCancellation(t *testing.T) {
	cells := Spec{Rounds: 20}.Cells()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, len(cells))
	release := make(chan struct{})
	loopDone := make(chan struct{})
	cfg := Config{BaseSeed: 1, Workers: 2}
	cfg.Steal = &StealConfig{
		ChunkCells: 2,
		Run: func(ctx context.Context, q *LeaseQueue) {
			defer close(loopDone)
			for {
				if _, ok := q.Lease(); !ok {
					return
				}
				// Never resolve promptly: hold the lease until cancelled,
				// like a peer that hangs mid-dispatch.
				<-ctx.Done()
				return
			}
		},
	}
	go func() {
		<-started
		cancel()
		close(release)
	}()
	_, err := MapContext(ctx, cfg, cells, func(c Cell) int64 {
		started <- struct{}{}
		<-release
		return c.Seed
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	select {
	case <-loopDone:
	case <-time.After(5 * time.Second):
		t.Fatal("remote loop did not unwind after cancellation")
	}
}
