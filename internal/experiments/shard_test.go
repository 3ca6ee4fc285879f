package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/eurosys23/ice/internal/harness"
)

// runRange re-runs a runner restricted to the cells of r and returns
// the sink payloads in index order — what a worker daemon does for
// POST /internal/cells, minus the HTTP transport.
func runRange(run Runner, o Options, r harness.Range) ([][]byte, error) {
	collected := make([][]byte, r.Len())
	o.Hooks = harness.ExecHooks{
		Range: harness.Cells(r.From, r.To),
		Sink: func(i int, b []byte) {
			if i >= r.From && i < r.To {
				collected[i-r.From] = append([]byte(nil), b...)
			}
		},
	}
	if _, _, err := run.Run(o); err != nil && !errors.Is(err, harness.ErrRangePartial) {
		return nil, err
	}
	for k, b := range collected {
		if b == nil {
			return nil, fmt.Errorf("cell %d produced no payload", r.From+k)
		}
	}
	return collected, nil
}

// TestRunnersShardLoopback proves every registered runner's cell type
// survives the sharding wire: a run whose stealable chunks are leased
// by a loopback peer computing range-restricted re-runs (the path a
// remote worker executes, minus HTTP) must render and marshal
// byte-identically to the plain local run. A runner whose per-cell
// result loses data through JSON — unexported fields, non-nil
// interfaces — fails here. The local pool holds no budget until the
// peer has leased its first chunk, so cells always go remote.
func TestRunnersShardLoopback(t *testing.T) {
	for _, run := range Registry() {
		run := run
		t.Run(run.ID, func(t *testing.T) {
			t.Parallel()
			base := Options{Fast: true, Workers: 2}
			render1, data1, err := run.Run(base)
			if err != nil {
				t.Fatal(err)
			}
			text1 := render1()
			json1, err := json.Marshal(data1)
			if err != nil {
				t.Fatal(err)
			}

			slots := make(chan struct{}, 1)
			slots <- struct{}{}
			var remote atomic.Int64
			sharded := base
			sharded.Slots = slots
			sharded.Hooks.Steal = &harness.StealConfig{
				ChunkCells: 1, // a 2-cell matrix still has a stealable chunk
				Run: func(ctx context.Context, q *harness.LeaseQueue) {
					r, ok := q.Lease()
					<-slots
					for ; ok; r, ok = q.Lease() {
						payloads, err := runRange(run, base, r)
						if err != nil {
							t.Error(err)
							q.Requeue(r)
							return
						}
						// Counted before Complete: once it merges the last
						// chunk, the run may return before this loop resumes.
						remote.Add(int64(r.Len()))
						if !q.Complete(r, payloads) {
							t.Errorf("chunk %v rejected", r)
							return
						}
					}
				},
			}
			render2, data2, err := run.Run(sharded)
			if err != nil {
				t.Fatal(err)
			}
			if remote.Load() == 0 {
				t.Error("no cells went remote")
			}
			json2, err := json.Marshal(data2)
			if err != nil {
				t.Fatal(err)
			}
			if string(json1) != string(json2) {
				t.Errorf("sharded run marshals differently\nlocal:   %.300s\nsharded: %.300s", json1, json2)
			}
			if text2 := render2(); text1 != text2 {
				t.Errorf("sharded run renders differently\nlocal:\n%s\nsharded:\n%s", text1, text2)
			}
		})
	}
}
