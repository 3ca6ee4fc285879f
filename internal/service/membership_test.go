package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// postJoin posts one membership request and returns the status code.
func postJoin(t *testing.T, url, path string, req joinRequest) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestJoinEndpoint covers the membership registration surface: a
// coordinator admits a well-formed join, rejects version mismatches
// and malformed addresses, and non-coordinators refuse the route.
func TestJoinEndpoint(t *testing.T) {
	_, workerAddr := workerAddr(t)

	coord := NewManager(Config{MaxWorkers: 1, Role: "coordinator"})
	cts := httptest.NewServer(NewServer(coord))
	defer cts.Close()

	if code := postJoin(t, cts.URL, internalJoinPath, joinRequest{Addr: workerAddr, Node: "w1", Version: codeVersion()}); code != http.StatusOK {
		t.Fatalf("join: status %d, want 200", code)
	}
	if n := coord.PeerCount(); n != 1 {
		t.Fatalf("PeerCount = %d after join, want 1", n)
	}
	// Re-announcing is idempotent.
	if code := postJoin(t, cts.URL, internalJoinPath, joinRequest{Addr: workerAddr, Version: codeVersion()}); code != http.StatusOK {
		t.Fatalf("re-join: status %d, want 200", code)
	}
	if n := coord.PeerCount(); n != 1 {
		t.Fatalf("PeerCount = %d after re-join, want 1", n)
	}

	if code := postJoin(t, cts.URL, internalJoinPath, joinRequest{Addr: workerAddr, Version: "other-build"}); code != http.StatusConflict {
		t.Errorf("version-mismatch join: status %d, want 409", code)
	}
	if code := postJoin(t, cts.URL, internalJoinPath, joinRequest{Addr: "not-an-address", Version: codeVersion()}); code != http.StatusBadRequest {
		t.Errorf("bad-address join: status %d, want 400", code)
	}

	plain := NewManager(Config{MaxWorkers: 1})
	pts := httptest.NewServer(NewServer(plain))
	defer pts.Close()
	if code := postJoin(t, pts.URL, internalJoinPath, joinRequest{Addr: workerAddr, Version: codeVersion()}); code != http.StatusForbidden {
		t.Errorf("join on a plain node: status %d, want 403", code)
	}

	// Voluntary leave removes a runtime-joined member entirely.
	if code := postJoin(t, cts.URL, internalLeavePath, joinRequest{Addr: workerAddr, Version: codeVersion()}); code != http.StatusOK {
		t.Fatalf("leave: status %d, want 200", code)
	}
	if n := coord.PeerCount(); n != 0 {
		t.Errorf("PeerCount = %d after leave, want 0", n)
	}
}

// TestSeedPeerSurvivesLeaveAndPruning: seed (-peers) members leave
// rotation when unhealthy but are never removed from membership, while
// a runtime-joined member is pruned after peerFailureLimit failed
// probes.
func TestSeedPeerSurvivesLeaveAndPruning(t *testing.T) {
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	dead := strings.TrimPrefix(deadSrv.URL, "http://")
	deadSrv.Close() // port now closed

	coord := NewManager(Config{MaxWorkers: 1, Peers: []string{dead}})
	if n := coord.PeerCount(); n != 1 {
		t.Fatalf("PeerCount = %d, want 1 seed", n)
	}
	if _, err := coord.RegisterPeer(dead[:strings.LastIndex(dead, ":")]+":1", "joined", codeVersion()); err != nil {
		t.Fatal(err)
	}
	if n := coord.PeerCount(); n != 2 {
		t.Fatalf("PeerCount = %d, want 2", n)
	}
	for i := 0; i < peerFailureLimit; i++ {
		coord.ProbePeers(context.Background())
	}
	// The joined member is pruned; the seed survives, just unhealthy.
	if n := coord.PeerCount(); n != 1 {
		t.Errorf("PeerCount = %d after pruning, want the 1 seed", n)
	}
	if coord.DeregisterPeer(dead) != true {
		t.Error("DeregisterPeer did not find the seed peer")
	}
	if n := coord.PeerCount(); n != 1 {
		t.Errorf("PeerCount = %d after seed leave, want 1 (seeds are never removed)", n)
	}
}

// TestPeerChurnLeavesNoSeries: each member registers two series under
// its address, and on a coordinator without -auth-tokens any caller may
// join and leave under any address. 1,000 distinct join/leave cycles
// and one joined peer pruned by failed probes must leave the registry
// with the series it started with.
func TestPeerChurnLeavesNoSeries(t *testing.T) {
	coord := NewManager(Config{MaxWorkers: 1, Role: "coordinator"})
	series := func() int {
		s := coord.Metrics()
		return len(s.Counters) + len(s.Gauges) + len(s.Hists)
	}
	before := series()
	for i := 0; i < 1000; i++ {
		addr := fmt.Sprintf("10.0.%d.%d:7000", i/256, i%256)
		if _, err := coord.RegisterPeer(addr, "w", codeVersion()); err != nil {
			t.Fatal(err)
		}
		if !coord.DeregisterPeer(addr) {
			t.Fatalf("leave of %s found no member", addr)
		}
	}
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	dead := strings.TrimPrefix(deadSrv.URL, "http://")
	deadSrv.Close()
	if _, err := coord.RegisterPeer(dead, "gone", codeVersion()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < peerFailureLimit; i++ {
		coord.ProbePeers(context.Background())
	}
	if n := coord.PeerCount(); n != 0 {
		t.Fatalf("PeerCount = %d after every peer left or was pruned, want 0", n)
	}
	if got := series(); got != before {
		t.Fatalf("registry holds %d series after the churn, want the %d it started with", got, before)
	}
}

// TestLateJoinWorkerReceivesLeases is the churn half of the tentpole:
// a coordinator starts a job with zero members, a worker registers
// mid-job, gets spawned into the active steal session, and completes
// chunks — with the merged result byte-identical to single-node.
func TestLateJoinWorkerReceivesLeases(t *testing.T) {
	_, addr := workerAddr(t)

	coord := NewManager(Config{MaxWorkers: 1, Role: "coordinator", ShardChunkCells: 1})
	cts := httptest.NewServer(NewServer(coord))
	defer cts.Close()

	single := NewManager(Config{MaxWorkers: 2})
	sts := httptest.NewServer(NewServer(single))
	defer sts.Close()

	spec := JobSpec{Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice", DurationSec: 2, Rounds: 8, Seed: 13}
	wantRes, _ := runJob(t, sts.URL, spec)

	view := postJob(t, cts.URL, spec)
	// Wait for the job to make progress — the steal session is live —
	// then register the worker mid-job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := coord.Get(view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.Completed >= 1 || terminal(v.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := coord.RegisterPeer(addr, "late", codeVersion()); err != nil {
		t.Fatal(err)
	}

	final := waitTerminal(t, cts.URL, view.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	code, gotRes := getBody(t, cts.URL+"/jobs/"+view.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if !bytes.Equal(wantRes, gotRes) {
		t.Errorf("late-join result differs from single-node:\n%s", firstDiff(wantRes, gotRes))
	}
	if n := counterValue(coord, "service.shard.steals"); n == 0 {
		t.Error("late-joined worker completed no chunks")
	}
	if n := counterValue(coord, "service.fleet.peer_joins"); n != 1 {
		t.Errorf("peer_joins = %d, want 1", n)
	}
}

// TestMidLeaseWorkerDeathRequeues kills a peer's connection mid-lease
// (the in-process equivalent of SIGKILL): the chunk must be requeued,
// re-run locally, and the merged result stays byte-identical.
func TestMidLeaseWorkerDeathRequeues(t *testing.T) {
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
			return
		}
		// Accept the dispatch, then die: sever the TCP connection with
		// no response, like a SIGKILLed process.
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("httptest server does not support hijacking")
			return
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	}))
	defer dying.Close()

	coord := NewManager(Config{MaxWorkers: 2, Peers: []string{strings.TrimPrefix(dying.URL, "http://")}, ShardChunkCells: 1})
	cts := httptest.NewServer(NewServer(coord))
	defer cts.Close()
	if n := coord.ProbePeers(context.Background()); n != 1 {
		t.Fatalf("%d healthy peers, want 1", n)
	}

	single := NewManager(Config{MaxWorkers: 2})
	sts := httptest.NewServer(NewServer(single))
	defer sts.Close()

	spec := JobSpec{Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice", DurationSec: 2, Rounds: 6, Seed: 19}
	wantRes, _ := runJob(t, sts.URL, spec)
	gotRes, _ := runJob(t, cts.URL, spec)
	if !bytes.Equal(wantRes, gotRes) {
		t.Errorf("post-death result differs from single-node:\n%s", firstDiff(wantRes, gotRes))
	}
	if n := counterValue(coord, "service.shard.requeues"); n < 1 {
		t.Errorf("requeues = %d, want >= 1", n)
	}
	if n := counterValue(coord, "service.shard.peer_failures"); n < 1 {
		t.Errorf("peer_failures = %d, want >= 1", n)
	}
}

// TestJoinCapRefusesNewAddress: once maxRuntimePeers members have
// joined at runtime, a join under a new address is refused with 429
// and changes no membership entry or series, while seed peers do not
// count and a member's re-announce is still accepted. After a leave, a
// new address joins again.
func TestJoinCapRefusesNewAddress(t *testing.T) {
	coord := NewManager(Config{MaxWorkers: 1, Peers: []string{"127.0.0.1:1"}})
	cts := httptest.NewServer(NewServer(coord))
	defer cts.Close()
	addr := func(i int) string { return fmt.Sprintf("127.0.0.2:%d", 1000+i) }
	for i := 0; i < maxRuntimePeers; i++ {
		if _, err := coord.RegisterPeer(addr(i), "", codeVersion()); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	state := func() (members, series []string) {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		for _, p := range coord.peers {
			members = append(members, fmt.Sprintf("%s %s %t %t", p.addr, p.node, p.seed, p.healthy))
		}
		return members, seriesNames(coord.reg.Snapshot())
	}
	members, series := state()
	if len(members) != maxRuntimePeers+1 {
		t.Fatalf("%d members, want %d joined and the seed", len(members), maxRuntimePeers)
	}
	if code := postJoin(t, cts.URL, internalJoinPath, joinRequest{Addr: addr(maxRuntimePeers), Version: codeVersion()}); code != http.StatusTooManyRequests {
		t.Fatalf("join past the cap: status %d, want 429", code)
	}
	if members2, series2 := state(); !slices.Equal(members2, members) || !slices.Equal(series2, series) {
		t.Fatalf("refused join changed state: members %d -> %d, series %d -> %d", len(members), len(members2), len(series), len(series2))
	}
	if code := postJoin(t, cts.URL, internalJoinPath, joinRequest{Addr: addr(0), Node: "again", Version: codeVersion()}); code != http.StatusOK {
		t.Fatalf("re-announce at the cap: status %d, want 200", code)
	}
	if !coord.DeregisterPeer(addr(1)) {
		t.Fatal("leave did not find a joined member")
	}
	if code := postJoin(t, cts.URL, internalJoinPath, joinRequest{Addr: addr(maxRuntimePeers), Version: codeVersion()}); code != http.StatusOK {
		t.Fatalf("join after a leave: status %d, want 200", code)
	}
	if n := coord.PeerCount(); n != maxRuntimePeers+1 {
		t.Fatalf("PeerCount = %d, want %d", n, maxRuntimePeers+1)
	}
}
