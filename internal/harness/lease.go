package harness

// lease.go is the harness's single execution path. Every run — plain,
// a worker's Range, a coordinator stealing across peers — queues the
// cells it must execute on a LeaseQueue: a deque of contiguous
// cell-range chunks. The local pool claims one cell at a time from the
// front; remote lease loops pull whole chunks as they finish their
// previous one. A slow or busy executor simply stops pulling, so
// stragglers shed load without any replanning; a failed remote lease
// is requeued at the front of the deque and the next puller (possibly
// the local pool) runs it. Results merge by matrix index, so the
// output is byte-identical to a serial run at any worker count,
// executor count, join order, or failure pattern.

import (
	"context"
	"sync"
)

// defaultStealChunks is how many chunks the matrix is split into when
// StealConfig.ChunkCells is unset: enough granularity that a handful of
// executors keep pulling, coarse enough that per-chunk dispatch
// overhead stays negligible.
const defaultStealChunks = 16

// StealConfig lets remote executors pull work from a run's LeaseQueue
// (ExecHooks.Steal) alongside the local pool.
type StealConfig struct {
	// ChunkCells caps how many cells one lease covers. <=0 splits the
	// queued cells into about defaultStealChunks chunks.
	ChunkCells int
	// Run, when non-nil, is started on its own goroutine with the run's
	// LeaseQueue after chunks are built. It typically spawns one lease
	// loop per remote executor (Lease → execute remotely → Complete,
	// Requeue on failure) and returns when the queue reports drained.
	// MapContext does not wait for Run to return: once the run is over
	// every queue operation is a safe no-op, so a straggling loop
	// cannot touch the merged results.
	Run func(ctx context.Context, q *LeaseQueue)
}

// LeaseQueue is the shared chunk deque of one run. The local pool and
// remote lease loops pull from it concurrently:
//
//   - Lease hands the next whole chunk to a remote executor, blocking
//     while the deque is empty but an outstanding remote lease could
//     still requeue. It returns false when no chunk can ever appear
//     again — the loop's signal to exit.
//   - Complete merges a leased chunk's per-cell payloads back into the
//     run (matrix order, so merged bytes are position-independent).
//     A wrong payload count or any payload that does not unmarshal
//     requeues the chunk instead, and the cells re-run locally or on
//     the next puller — deterministic seeds make the re-run
//     byte-identical to what the remote should have produced.
//   - Requeue returns a chunk whose remote dispatch failed to the
//     front of the deque.
//
// The local pool consumes its current chunk one cell at a time and
// refills it from the front of the deque. Its first chunk is the one
// holding cell 0, which therefore never leaves the local pool: cell 0
// is the only cell that may record a trace, and trace buffers cannot
// cross the payload wire.
//
// Every successful Lease must be resolved by exactly one Complete or
// Requeue call. All methods are safe for concurrent use.
type LeaseQueue struct {
	mu   sync.Mutex
	cond *sync.Cond

	local   Range   // the local pool's chunk, consumed one cell at a time
	pending []Range // whole stealable chunks; requeues return to the front

	outRemote int // chunks leased via Lease, unresolved

	cancelled bool
	done      bool
	drained   chan struct{}

	// inject merges one remotely computed chunk (one payload per cell,
	// in index order) into the run's output; it reports false on a
	// wrong payload count or any malformed payload without writing.
	// Called under mu, which serialises remote merges against queue
	// shutdown.
	inject func(r Range, payloads [][]byte) bool
}

// newLeaseQueue splits the queued cells r into contiguous chunks of
// at most chunkCells cells each.
func newLeaseQueue(r Range, chunkCells int, inject func(Range, [][]byte) bool) *LeaseQueue {
	q := &LeaseQueue{drained: make(chan struct{}), inject: inject}
	q.cond = sync.NewCond(&q.mu)
	if chunkCells <= 0 {
		chunkCells = max((r.Len()+defaultStealChunks-1)/defaultStealChunks, 1)
	}
	for from := r.From; from < r.To; from += chunkCells {
		c := Range{From: from, To: min(from+chunkCells, r.To)}
		if c.From == 0 {
			q.local = c
		} else {
			q.pending = append(q.pending, c)
		}
	}
	q.checkDrainedLocked()
	return q
}

// Lease pulls the next whole chunk for a remote executor. It blocks
// while the deque is empty but an outstanding remote lease could still
// requeue; false means the queue is drained (or the run cancelled) and
// no chunk will ever be available again.
func (q *LeaseQueue) Lease() (Range, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.cancelled {
		if len(q.pending) > 0 {
			r := q.pending[0]
			q.pending = q.pending[1:]
			q.outRemote++
			return r, true
		}
		// The local chunk never re-enters the deque, so once no remote
		// lease is outstanding nothing can.
		if q.outRemote == 0 {
			break
		}
		q.cond.Wait()
	}
	return Range{}, false
}

// Complete resolves a remote lease with its per-cell payloads (one per
// index of the range, in order) and merges them into the run. False
// means the payloads were rejected — wrong count, or any byte that
// does not unmarshal — and the chunk was requeued for someone else;
// the caller should treat the executor as unhealthy.
func (q *LeaseQueue) Complete(r Range, payloads [][]byte) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	defer q.cond.Broadcast()
	q.outRemote--
	if q.cancelled {
		return false
	}
	if !q.inject(r, payloads) {
		q.pending = append([]Range{r}, q.pending...)
		return false
	}
	q.checkDrainedLocked()
	return true
}

// Requeue resolves a failed remote lease by returning its chunk to the
// front of the deque.
func (q *LeaseQueue) Requeue(r Range) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.outRemote--
	if !q.cancelled {
		q.pending = append([]Range{r}, q.pending...)
	}
	q.cond.Broadcast()
}

// Drained is closed once no chunk can be leased again — every queued
// cell is claimed locally or merged from a remote — or the run is
// cancelled: the dispatcher's signal that the job is over.
func (q *LeaseQueue) Drained() <-chan struct{} { return q.drained }

// claim takes the next cell for the local pool: the next index of the
// local chunk, which is refilled from the front of the deque. False
// means nothing is claimable right now.
func (q *LeaseQueue) claim() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.cancelled {
		return 0, false
	}
	if q.local.Len() == 0 {
		if len(q.pending) == 0 {
			return 0, false
		}
		q.local, q.pending = q.pending[0], q.pending[1:]
	}
	i := q.local.From
	q.local.From++
	q.checkDrainedLocked()
	return i, true
}

// await blocks until a cell may be claimable. False means none can
// ever be again: the run is cancelled, or the deque is empty and no
// outstanding remote lease could requeue.
func (q *LeaseQueue) await() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.cancelled {
		if q.local.Len() > 0 || len(q.pending) > 0 {
			return true
		}
		if q.outRemote == 0 {
			return false
		}
		q.cond.Wait()
	}
	return false
}

// cancelAll wakes every waiter and turns all further queue operations
// into no-ops. Called on context cancellation and, as a barrier, when
// the run's local pool finishes: inject runs under mu, so after
// cancelAll returns no remote merge is in flight and none can start —
// which is what lets MapContext return without waiting for Run.
func (q *LeaseQueue) cancelAll() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.cancelled = true
	q.checkDrainedLocked()
	q.cond.Broadcast()
}

func (q *LeaseQueue) checkDrainedLocked() {
	if q.done {
		return
	}
	empty := q.local.Len() == 0 && len(q.pending) == 0 && q.outRemote == 0
	if empty || q.cancelled {
		q.done = true
		close(q.drained)
	}
}
