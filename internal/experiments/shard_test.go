package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/eurosys23/ice/internal/harness"
)

// chanBudget is a harness.Budget of cap(b) units, held while they sit
// in the channel.
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

// fastGolden pins every registered runner's Fast output at Workers 2
// and the default seed: the SHA-256 of its JSON result and of its
// rendered text. TestSchemeGolden pins one scenario per scheme; these
// pin the studies (fig3, fig4, the fig11 worst-case probe) and
// reductions the scheme goldens never reach. Update a pair only when a
// result-visible change is intended; the failure message prints the
// new values.
var fastGolden = map[string]struct{ json, text string }{
	"table1": {
		"7fe1015f219d881c30b2de8263da10c2c47e62d4b8bf149a0c3cfcbebbcafd46",
		"7e6b4958c2abb1a183b14aaa0f4d3ebbc4e774f571e8345f0455ecac5cf4e2f7",
	},
	"fig1": {
		"2b554ae5e2a19d1af96205dc7d5ea814624ae8e707c1cebf44a6cf0a5d7b083f",
		"81706877d5e2d41753092e1e00359d64539d03f6526c96f896fa72847a431723",
	},
	"fig2a": {
		"2b554ae5e2a19d1af96205dc7d5ea814624ae8e707c1cebf44a6cf0a5d7b083f",
		"67a018da94868b55e4e1548c0bb9930ed9f875fc2db6f2b8e811e4ef7576a659",
	},
	"fig2b": {
		"884e809233ce9b8db797750f9ad2f967c20a0f40d187dce4f7e86e8637223f94",
		"14fb6f7f72c535e42bc8129100ee6238bdb9536e50d059a894bb059546af697d",
	},
	"fig3": {
		"a763c3923661eac8dcc6f9e50405345af9b396feb11483c6c29fc2746a8cc0f4",
		"7266b63287e6018f6202004f92ea2f70c973b7bf01df286c6df84baea077fc81",
	},
	"fig4": {
		"d09506096fa05665c570ee5d70ae674fcb660de274490aa081c789545535eb7b",
		"734e0dd513c59c3b2619782bffd59948784391b86845d34cb5c38e28f543f73f",
	},
	"fig8": {
		"3e45b7cf95ee2775401709475952af03812e9731ae3537f0a2dd6351a9125cdf",
		"3e39fd9e919ffde09b8f77d59d046a4577e9316e1a958f5f56a5c902ae6111f3",
	},
	"fig9": {
		"e92ca5c374f60d816ec8dd13b1466e51435c41c8eb455bdd6251ddd48b6417d3",
		"cba0a55368106082dd2dfd8e547231973509a88b6d79414c0a2a927ff401ebce",
	},
	"fig10": {
		"c955c7e55d69ca3ea09b80a8d18214fc2120cb0a4ba891b1da8f363f603ce85b",
		"89e0a023186775ac4af6d97024691c7a2a99c578dbe377d5fd3d3a2d28dc4cb3",
	},
	"table5": {
		"c955c7e55d69ca3ea09b80a8d18214fc2120cb0a4ba891b1da8f363f603ce85b",
		"118ce4aa57dc8ac68f4daa95cbe54bbc50f92bb09056aa9cb83b644fbc72c578",
	},
	"pressure": {
		"86614a9f8c5f67b6692504fb2d90fdf3ae785964659e6125e6be9142517651cb",
		"aec3128d3453cbfb60b0f04551270c000e37e99394ceec9cba2e852b54b8d3f3",
	},
	"fig11": {
		"d62040d6e1de3a45843d7c56921a9919e1652497a48a44fe890b2ff9e917f130",
		"5aa27ceed6cb475fe79d3f3a88d4739a15b9115aac6e88b058f1bfb19780b833",
	},
	"ablations": {
		"a8b5e9ee41469e0d805b19116ab28a4ce095f2324a6e9c4c01dfc7e713f0d281",
		"f675b76ad7f013f9f4e9b2288f5b3fad652417e78be9d87a866aad9ec7f7593e",
	},
	"policy-sweep": {
		"424fad8bcd47f3cc7ce2dd30de4b8f7a6bb3df91b6700308acdb87eef235d3d0",
		"8c1963a5de662a2be4ee56401a89bc918dc88a53d2747d834cf122797063740f",
	},
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRunnersShardLoopback checks every registered runner's local Fast
// output against fastGolden, then proves its cell type survives the
// sharding wire: a run whose stealable chunks are leased
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
			want := fastGolden[run.ID]
			if got := sha(json1); got != want.json {
				t.Errorf("%s Fast JSON hash = %s, pinned %s", run.ID, got, want.json)
			}
			if got := sha([]byte(text1)); got != want.text {
				t.Errorf("%s Fast text hash = %s, pinned %s", run.ID, got, want.text)
			}

			slots := make(chan struct{}, 1)
			slots <- struct{}{}
			var remote atomic.Int64
			sharded := base
			sharded.Budget = chanBudget(slots)
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
