package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/eurosys23/ice/internal/experiments"
	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/tenant"
)

// counterValue reads one instrument from a manager's metrics snapshot.
func counterValue(m *Manager, name string) uint64 {
	for _, c := range m.Metrics().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// runJob submits a spec and returns the terminal result payload (and
// trace, when present).
func runJob(t *testing.T, url string, spec JobSpec) (result, trace []byte) {
	t.Helper()
	view := postJob(t, url, spec)
	final := waitTerminal(t, url, view.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	code, result := getBody(t, url+"/jobs/"+view.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d: %s", code, result)
	}
	if final.HasTrace {
		var tcode int
		tcode, trace = getBody(t, url+"/jobs/"+view.ID+"/trace")
		if tcode != http.StatusOK {
			t.Fatalf("trace: status %d: %s", tcode, trace)
		}
	}
	return result, trace
}

// workerAddr boots a worker-role manager + server and returns its
// host:port.
func workerAddr(t *testing.T) (*Manager, string) {
	t.Helper()
	m := NewManager(Config{MaxWorkers: 2, WorkerEndpoint: true})
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(ts.Close)
	return m, strings.TrimPrefix(ts.URL, "http://")
}

// TestTraceReexecutionDeterminism: re-executing a traced spec must
// reproduce the trace payload byte-for-byte — the property that lets a
// sharding coordinator compare or cache traces at all. (Historically
// broken: freezer epochs iterated the frozen-set map, emitting
// same-instant thaw spans in random order.)
func TestTraceReexecutionDeterminism(t *testing.T) {
	spec := JobSpec{Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice", DurationSec: 2, Rounds: 2, Seed: 7, Trace: true}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	var first, firstTrace []byte
	for i := 0; i < 3; i++ {
		m := NewManager(Config{MaxWorkers: 2})
		res, tr, err := execute(context.Background(), spec, gateBudget{g: m.gate}, nil, harness.ExecHooks{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first, firstTrace = res, tr
			continue
		}
		if !bytes.Equal(first, res) {
			t.Errorf("execution %d: result differs", i)
		}
		if !bytes.Equal(firstTrace, tr) {
			t.Errorf("execution %d: trace differs (len %d vs %d)", i, len(firstTrace), len(tr))
		}
	}
}

// TestShardedJobMatchesSingleNode is the tentpole acceptance check in
// miniature: an experiment job and a traced run job sharded across a
// coordinator and two workers produce result and trace payloads
// byte-identical to a single-node run, with remote execution actually
// happening.
func TestShardedJobMatchesSingleNode(t *testing.T) {
	w1, addr1 := workerAddr(t)
	w2, addr2 := workerAddr(t)

	coord := NewManager(Config{MaxWorkers: 2, Peers: []string{addr1, addr2}})
	cts := httptest.NewServer(NewServer(coord))
	defer cts.Close()
	if n := coord.ProbePeers(context.Background()); n != 2 {
		t.Fatalf("%d healthy peers, want 2", n)
	}

	single := NewManager(Config{MaxWorkers: 2})
	sts := httptest.NewServer(NewServer(single))
	defer sts.Close()

	for _, spec := range []JobSpec{
		{Kind: KindExperiment, Experiment: "table1", Fast: true},
		{Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice", DurationSec: 2, Rounds: 4, Seed: 7, Trace: true},
	} {
		spec := spec
		t.Run(spec.Kind, func(t *testing.T) {
			wantRes, wantTrace := runJob(t, sts.URL, spec)
			gotRes, gotTrace := runJob(t, cts.URL, spec)
			if !bytes.Equal(wantRes, gotRes) {
				t.Errorf("sharded result differs from single-node\nsingle:  %.200s\nsharded: %.200s", wantRes, gotRes)
			}
			if !bytes.Equal(wantTrace, gotTrace) {
				t.Errorf("sharded trace differs from single-node (%d vs %d bytes)", len(wantTrace), len(gotTrace))
			}
		})
	}

	if n := counterValue(coord, "service.shard.leases"); n < 2 {
		t.Errorf("leases = %d, want >= 2", n)
	}
	if n := counterValue(coord, "service.shard.steals"); n == 0 {
		t.Error("no chunks completed remotely")
	}
	if n := counterValue(coord, "service.shard.remote_cells"); n == 0 {
		t.Error("no cells executed remotely")
	}
	if n := counterValue(coord, "service.shard.requeues"); n != 0 {
		t.Errorf("requeues = %d with healthy workers", n)
	}
	served := counterValue(w1, "service.shard.served_cells") + counterValue(w2, "service.shard.served_cells")
	if served != counterValue(coord, "service.shard.remote_cells") {
		t.Errorf("workers served %d cells, coordinator merged %d", served, counterValue(coord, "service.shard.remote_cells"))
	}
}

// TestShardSlowPeerTimesOutAndRequeues injects a peer that accepts
// the dispatch but never answers within the chunk timeout: the
// coordinator must count a peer failure, requeue the chunk for the
// local pool, and still produce the single-node bytes.
func TestShardSlowPeerTimesOutAndRequeues(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
			return
		}
		// Hold the dispatch well past the coordinator's chunk timeout.
		// The cap keeps the handler (and httptest.Close) from hanging
		// when the server misses the client disconnect.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer slow.Close()

	coord := NewManager(Config{
		MaxWorkers:        2,
		Peers:             []string{strings.TrimPrefix(slow.URL, "http://")},
		ShardChunkTimeout: 100 * time.Millisecond,
	})
	cts := httptest.NewServer(NewServer(coord))
	defer cts.Close()
	if n := coord.ProbePeers(context.Background()); n != 1 {
		t.Fatalf("%d healthy peers, want 1", n)
	}

	single := NewManager(Config{MaxWorkers: 2})
	sts := httptest.NewServer(NewServer(single))
	defer sts.Close()

	spec := JobSpec{Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice", DurationSec: 2, Rounds: 4, Seed: 11}
	wantRes, _ := runJob(t, sts.URL, spec)
	gotRes, _ := runJob(t, cts.URL, spec)
	if !bytes.Equal(wantRes, gotRes) {
		t.Errorf("fallback result differs from single-node\nsingle:   %.200s\nfallback: %.200s", wantRes, gotRes)
	}
	if n := counterValue(coord, "service.shard.peer_failures"); n < 1 {
		t.Errorf("peer_failures = %d, want >= 1", n)
	}
	if n := counterValue(coord, "service.shard.requeues"); n < 1 {
		t.Errorf("requeues = %d, want >= 1", n)
	}
}

// TestShardDeadPeerRunsLocal: a peer that never passes a health probe
// is not dispatched to at all; the job still completes.
func TestShardDeadPeerRunsLocal(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	addr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close() // port is now closed

	coord := NewManager(Config{MaxWorkers: 2, Peers: []string{addr}})
	cts := httptest.NewServer(NewServer(coord))
	defer cts.Close()
	if n := coord.ProbePeers(context.Background()); n != 0 {
		t.Fatalf("%d healthy peers, want 0", n)
	}

	spec := JobSpec{Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice", DurationSec: 2, Rounds: 2, Seed: 3}
	runJob(t, cts.URL, spec)
	if n := counterValue(coord, "service.shard.leases"); n != 0 {
		t.Errorf("leases = %d to a dead peer, want 0", n)
	}
}

// TestInternalCellsEndpointGating: plain nodes refuse the worker
// endpoint; workers refuse mismatched coordinator versions.
func TestInternalCellsEndpointGating(t *testing.T) {
	plain := NewManager(Config{MaxWorkers: 1})
	pts := httptest.NewServer(NewServer(plain))
	defer pts.Close()
	body, _ := json.Marshal(shardRequest{Spec: tinySpec(), From: 0, To: 1, Version: codeVersion()})
	resp, err := http.Post(pts.URL+internalCellsPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("plain node served /internal/cells: status %d", resp.StatusCode)
	}

	_, addr := workerAddr(t)
	body, _ = json.Marshal(shardRequest{Spec: tinySpec(), From: 0, To: 1, Version: "some-other-build"})
	resp, err = http.Post("http://"+addr+internalCellsPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("version mismatch: status %d, want 409", resp.StatusCode)
	}
}

// TestExecCellRangeValidation covers the worker-side guard rails.
func TestExecCellRangeValidation(t *testing.T) {
	m := NewManager(Config{MaxWorkers: 1, WorkerEndpoint: true})
	spec := tinySpec()
	if _, err := m.ExecCellRange(context.Background(), spec, 2, 1, ""); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := m.ExecCellRange(context.Background(), spec, 0, 5, ""); err == nil {
		t.Error("range beyond the 1-cell matrix accepted")
	}
	// Both ranges were refused before a single cell ran.
	if h, _ := m.Metrics().Hist("harness.cell_us"); h.Count != 0 {
		t.Errorf("refused ranges simulated %d cells", h.Count)
	}
	cells, err := m.ExecCellRange(context.Background(), spec, 0, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || !json.Valid(cells[0]) {
		t.Fatalf("bad payloads: %d cells", len(cells))
	}
	var rc experiments.RunCell
	if err := json.Unmarshal(cells[0], &rc); err != nil {
		t.Fatalf("cell payload is not a RunCell: %v\n%s", err, cells[0])
	}

	bad := spec
	bad.Device = "no-such-device"
	if _, err := m.ExecCellRange(context.Background(), bad, 0, 1, ""); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestExecCellRangeCreatesNoRecords: a /internal/cells body names its
// principal, and a worker must not keep state for names its caller
// makes up. 10,000 distinct unknown names leave the principal records
// and the registry series as they were; a principal the token file
// gives max-cells still runs its cells under that quota, while a gate
// slot stays free.
func TestExecCellRangeCreatesNoRecords(t *testing.T) {
	reg, err := tenant.ParseTokens(strings.NewReader("tok-carol carol max-cells=1\n"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{MaxWorkers: 2, WorkerEndpoint: true, AuthTokens: reg})
	spec := tinySpec()
	series := func() int {
		s := m.Metrics()
		return len(s.Counters) + len(s.Gauges) + len(s.Hists)
	}
	records, before := len(m.fq.tenants), series()
	for i := 0; i < 10000; i++ {
		if _, err := m.ExecCellRange(context.Background(), spec, 2, 1, fmt.Sprintf("mallory-%d", i)); err == nil {
			t.Fatal("inverted range accepted")
		}
	}
	if got := len(m.fq.tenants); got != records {
		t.Fatalf("principal records %d after 10,000 unknown names, want %d", got, records)
	}
	if got := series(); got != before {
		t.Fatalf("registry series %d after 10,000 unknown names, want %d", got, before)
	}

	// carol's one cell is held, so her range waits at the gate until
	// the deadline and runs nothing, though a slot is free; once her
	// cell is released it runs.
	if _, err := m.ExecCellRange(context.Background(), spec, 2, 1, "carol"); err == nil {
		t.Fatal("inverted range accepted")
	}
	quota := m.fq.tenants["carol"].cells
	if quota == nil || quota.max != 1 {
		t.Fatalf("carol's max-cells quota is %+v, want 1", quota)
	}
	held := gateBudget{g: m.gate, quota: quota}
	if !held.Acquire(context.Background()) {
		t.Fatal("no gate slot for carol's first cell")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if cells, err := m.ExecCellRange(ctx, spec, 0, 1, "carol"); err == nil || len(cells) != 0 {
		t.Fatalf("range ran past a full quota: %d cells, err %v", len(cells), err)
	}
	held.Release()
	if cells, err := m.ExecCellRange(context.Background(), spec, 0, 1, "carol"); err != nil || len(cells) != 1 {
		t.Fatalf("range under a free quota: %d cells, err %v", len(cells), err)
	}
}

// TestShardedExperimentAcrossThreeDaemons shards every chunk shape the
// ci.sh smoke relies on: a 2-axis experiment across exactly 3 nodes.
func TestShardedExperimentAcrossThreeDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, addr1 := workerAddr(t)
	_, addr2 := workerAddr(t)
	coord := NewManager(Config{MaxWorkers: 4, Peers: []string{addr1, addr2}})
	cts := httptest.NewServer(NewServer(coord))
	defer cts.Close()
	coord.ProbePeers(context.Background())

	single := NewManager(Config{MaxWorkers: 4})
	sts := httptest.NewServer(NewServer(single))
	defer sts.Close()

	spec := JobSpec{Kind: KindExperiment, Experiment: "fig2b", Fast: true}
	wantRes, _ := runJob(t, sts.URL, spec)
	gotRes, _ := runJob(t, cts.URL, spec)
	if !bytes.Equal(wantRes, gotRes) {
		t.Fatalf("sharded fig2b differs from single-node:\n%s", firstDiff(wantRes, gotRes))
	}
}

// firstDiff renders the first divergence between two payloads.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("byte %d:\n a: %.160q\n b: %.160q", i, a[lo:], b[lo:])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}
