package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/eurosys23/ice/internal/tenant"
)

// testRegistry builds a two-principal token registry: alice (weight 4)
// and bob (weight 1, max-queued 1).
func testRegistry(t *testing.T) *tenant.Registry {
	t.Helper()
	reg, err := tenant.ParseTokens(strings.NewReader(`
tok-alice alice weight=4
tok-bob   bob   weight=1 max-queued=1
`))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// postJobAs submits a job with a bearer token and returns the response
// for the caller to dissect.
func postJobAs(t *testing.T, url, token string, spec JobSpec) (*http.Response, JobView) {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, err := http.NewRequest(http.MethodPost, url+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	json.NewDecoder(resp.Body).Decode(&view)
	return resp, view
}

// TestFairQueueDRR pins the deficit-round-robin contract at the unit
// level: with equal-cost jobs backlogged, a weight-3 principal drains
// three jobs per rotation to a weight-1 principal's one.
func TestFairQueueDRR(t *testing.T) {
	q := newFairQueue(1)
	for name, weight := range map[string]int{"a": 1, "b": 3} {
		q.tenants[name] = &tenantState{p: &tenant.Principal{Name: name, Weight: weight}}
	}
	for i := 0; i < 4; i++ {
		q.enqueue(&job{id: "a", principal: "a", class: classBatch, cost: 1})
	}
	for i := 0; i < 12; i++ {
		q.enqueue(&job{id: "b", principal: "b", class: classBatch, cost: 1})
	}
	var order []string
	for j := q.popClass(classBatch); j != nil; j = q.popClass(classBatch) {
		order = append(order, j.id)
	}
	got := strings.Join(order, "")
	// First rotation serves a once (deficit 1), then b's turn runs three
	// jobs (deficit 3); the 3:1 ratio repeats until a drains.
	want := "abbbabbbabbbabbb"
	if got != want {
		t.Fatalf("DRR order %q, want %q", got, want)
	}

	// remove deletes a queued job and keeps the counts consistent.
	j1 := &job{id: "x", principal: "a", class: classBatch, cost: 1}
	q.enqueue(j1)
	if !q.remove(j1) {
		t.Fatal("remove did not find the queued job")
	}
	if q.remove(j1) {
		t.Fatal("remove found an already-removed job")
	}
	if q.popClass(classBatch) != nil || q.len() != 0 {
		t.Fatal("queue should be empty")
	}
}

// TestTenancyEndToEnd is the multi-tenant acceptance path over HTTP:
// unauthenticated submits are 401, cross-principal cancels are 403,
// bob's max-queued quota yields 429, and an interactive job submitted
// while bob's batch job holds the batch running slot takes the gate's
// slot from it at cell boundaries — after which BOTH final results are
// byte-identical to runs of the same specs on a fresh open daemon.
func TestTenancyEndToEnd(t *testing.T) {
	const maxWorkers = 1
	m := NewManager(Config{
		MaxWorkers:     maxWorkers,
		MaxRunningJobs: 1,
		AuthTokens:     testRegistry(t),
	})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	batchSpec := JobSpec{
		Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice",
		DurationSec: 2, Rounds: 12, Seed: 11, Priority: PriorityBatch,
	}
	fastSpec := JobSpec{
		Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice",
		DurationSec: 2, Rounds: 1, Seed: 13,
	}

	// No token → 401, and health/metrics stay open.
	resp, _ := postJobAs(t, ts.URL, "", batchSpec)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated submit: %d, want 401", resp.StatusCode)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz behind auth: %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics behind auth: %d", code)
	}

	// Bob's batch matrix occupies the only running slot.
	resp, batch := postJobAs(t, ts.URL, "tok-bob", batchSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d", resp.StatusCode)
	}
	if batch.Principal != "bob" {
		t.Fatalf("batch principal %q", batch.Principal)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		view, err := m.Get(batch.ID)
		if err != nil {
			t.Fatal(err)
		}
		if view.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch job never started (state %s)", view.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Alice may not cancel bob's job.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs/"+batch.ID+"/cancel", nil)
	req.Header.Set("Authorization", "Bearer tok-alice")
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusForbidden {
		t.Fatalf("cross-principal cancel: %d, want 403", cresp.StatusCode)
	}

	// Bob's max-queued=1: one more queues, the next is quota-rejected.
	q1 := batchSpec
	q1.Seed = 17
	resp, queued := postJobAs(t, ts.URL, "tok-bob", q1)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second bob submit: %d", resp.StatusCode)
	}
	q2 := batchSpec
	q2.Seed = 19
	resp, _ = postJobAs(t, ts.URL, "tok-bob", q2)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429", resp.StatusCode)
	}
	if _, err := m.CancelBy(queued.ID, "bob"); err != nil {
		t.Fatal(err)
	}

	// Alice's interactive job starts beside the running batch job and
	// takes the only gate slot when it frees: at most 2·MaxWorkers batch
	// cells complete before it ends (see TestInteractiveCellsTakeFreedSlots),
	// and the batch job still completes.
	var fast JobView
	n, ev := batchCellsWhile(t, m, batch.ID, func() string {
		resp, fast = postJobAs(t, ts.URL, "tok-alice", fastSpec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("interactive submit: %d", resp.StatusCode)
		}
		return fast.ID
	})
	if ev.State != StateDone {
		t.Fatalf("interactive job: %s (%s)", ev.State, ev.Error)
	}
	if n > 2*maxWorkers {
		t.Errorf("%d batch cells completed while the interactive job ran, want at most %d", n, 2*maxWorkers)
	}
	batchView := waitTerminal(t, ts.URL, batch.ID)
	if batchView.State != StateDone {
		t.Fatalf("batch job: %s (%s)", batchView.State, batchView.Error)
	}

	_, gotBatch := getBody(t, ts.URL+"/jobs/"+batch.ID+"/result")
	_, gotFast := getBody(t, ts.URL+"/jobs/"+fast.ID+"/result")

	// Reference: the same specs on a fresh, open (auth-off) daemon with
	// a slot each. The payloads must be byte-identical.
	ref := NewManager(Config{MaxWorkers: 2, MaxRunningJobs: 2})
	tsr := httptest.NewServer(NewServer(ref))
	defer tsr.Close()
	refBatch := postJob(t, tsr.URL, batchSpec)
	refFast := postJob(t, tsr.URL, fastSpec)
	waitTerminal(t, tsr.URL, refBatch.ID)
	waitTerminal(t, tsr.URL, refFast.ID)
	_, wantBatch := getBody(t, tsr.URL+"/jobs/"+refBatch.ID+"/result")
	_, wantFast := getBody(t, tsr.URL+"/jobs/"+refFast.ID+"/result")

	if !bytes.Equal(gotBatch, wantBatch) {
		t.Error("batch result differs from the run on a fresh daemon")
	}
	if !bytes.Equal(gotFast, wantFast) {
		t.Error("interactive result differs from the run on a fresh daemon")
	}

	// The per-principal series surfaced in the exposition.
	code, prom := getBody(t, ts.URL+"/metrics?format=prom")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=prom: %d", code)
	}
	for _, want := range []string{
		`ice_service_tenant_submitted_total{`,
		`ice_service_tenant_rejected_total{`,
		`,principal="bob"`,
		`,principal="alice"`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPerPrincipalRetention: the terminal-job retention bound applies
// per principal and state, so one tenant's churn cannot evict another
// tenant's history.
func TestPerPrincipalRetention(t *testing.T) {
	m := NewManager(Config{RetainTerminalJobs: 2, AuthTokens: testRegistry(t)})
	spec := tinySpec()
	spec.Trace = false

	first, err := m.SubmitAs(spec, "alice")
	if err != nil {
		t.Fatal(err)
	}
	waitDone := func(id string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			view, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if terminal(view.State) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, view.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitDone(first.ID)

	// Cache-hit resubmissions are instantly terminal: churn three more
	// for alice, one for bob.
	var aliceIDs []string
	aliceIDs = append(aliceIDs, first.ID)
	for i := 0; i < 3; i++ {
		v, err := m.SubmitAs(spec, "alice")
		if err != nil {
			t.Fatal(err)
		}
		aliceIDs = append(aliceIDs, v.ID)
	}
	bobView, err := m.SubmitAs(spec, "bob")
	if err != nil {
		t.Fatal(err)
	}

	// Alice keeps her newest 2 done jobs; the older 2 are pruned. Bob's
	// single job survives alice's churn.
	for _, id := range aliceIDs[:2] {
		if _, err := m.Get(id); err == nil {
			t.Errorf("alice's old job %s survived retention", id)
		}
	}
	for _, id := range aliceIDs[2:] {
		if _, err := m.Get(id); err != nil {
			t.Errorf("alice's recent job %s was pruned", id)
		}
	}
	if _, err := m.Get(bobView.ID); err != nil {
		t.Errorf("bob's job was pruned by alice's churn")
	}
}

// TestTenantCacheBytesFollowStore: a principal's attributed cache bytes
// are its bytes in the disk store. The store holds 1.5 entries and
// alice's cache-bytes quota 2.75, so each of her five distinct jobs
// evicts the one before: none is skipped for quota, and her gauge ends
// at the one entry the store holds. Without a store nothing is
// attributed.
func TestTenantCacheBytesFollowStore(t *testing.T) {
	spec := func(seed int64) JobSpec {
		s := tinySpec()
		s.Trace, s.Seed = false, seed
		return s
	}
	m0 := NewManager(Config{MaxWorkers: 1})
	v, err := m0.Submit(spec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDoneMgr(t, m0, v.ID)
	result, _, _ := m0.Result(v.ID)
	size := int64(len(result))
	if got, _ := m0.Metrics().Gauge("service.tenant.cache_bytes.anonymous"); got != 0 {
		t.Errorf("without a store %d bytes were attributed", got)
	}

	reg, err := tenant.ParseTokens(strings.NewReader(fmt.Sprintf("tok-alice alice cache-bytes=%d\n", size*11/4)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := OpenManager(Config{MaxWorkers: 1, StateDir: t.TempDir(), CacheBytes: size * 3 / 2, AuthTokens: reg})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		v, err := m.SubmitAs(spec(seed), "alice")
		if err != nil {
			t.Fatal(err)
		}
		waitDoneMgr(t, m, v.ID)
	}
	snap := m.Metrics()
	if skipped, _ := snap.Counter("service.tenant.cache_quota_skipped"); skipped != 0 {
		t.Errorf("%d results skipped for quota, want 0", skipped)
	}
	alice, _ := snap.Gauge("service.tenant.cache_bytes.alice")
	stored, _ := snap.Gauge("service.store.bytes")
	entries, _ := snap.Gauge("service.store.entries")
	if entries != 1 || alice != stored {
		t.Errorf("alice's gauge %d, store %d bytes in %d entries; want her bytes in the one entry", alice, stored, entries)
	}
	m.mu.Lock()
	keys := len(m.fq.tenants["alice"].cacheKeys)
	m.mu.Unlock()
	if keys != 1 {
		t.Errorf("alice holds %d attributed keys, want the 1 stored", keys)
	}
	drainMgr(t, m)
}

// TestFleetScrapeDeadAuth: a peer that rejects the scrape with 401
// (e.g. a mis-tokened or foreign endpoint) reads ice_peer_up 0 — a
// flat line, not a hang or a fleet-scrape error.
func TestFleetScrapeDeadAuth(t *testing.T) {
	deny := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unauthorized", http.StatusUnauthorized)
	}))
	defer deny.Close()
	addr := strings.TrimPrefix(deny.URL, "http://")

	coord := NewManager(Config{
		Role: "coordinator", Node: "c1",
		Peers:     []string{addr},
		PeerToken: "tok-wrong",
	})
	tsc := httptest.NewServer(NewServer(coord))
	defer tsc.Close()

	done := make(chan struct{})
	var body []byte
	var code int
	go func() {
		code, body = getBody(t, tsc.URL+"/fleet/metrics")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fleet scrape hung on the 401 peer")
	}
	if code != http.StatusOK {
		t.Fatalf("/fleet/metrics: %d %s", code, body)
	}
	want := `ice_peer_up{role="coordinator",node="c1",peer="` + addr + `"} 0`
	if !strings.Contains(string(body), want) {
		t.Errorf("fleet exposition missing %q", want)
	}
}

// TestShardAuthForwarding: an authenticated worker accepts a
// coordinator carrying the fleet token, executes the forwarded
// principal's cells, and the sharded result stays byte-identical to a
// single-node run. A coordinator with the wrong token falls back to
// local execution — same bytes, just no remote cells.
func TestShardAuthForwarding(t *testing.T) {
	reg := testRegistry(t)
	worker := NewManager(Config{
		Role: "worker", Node: "w1", WorkerEndpoint: true, AuthTokens: reg,
	})
	tsw := httptest.NewServer(NewServer(worker))
	defer tsw.Close()
	addr := strings.TrimPrefix(tsw.URL, "http://")

	spec := JobSpec{
		Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice",
		DurationSec: 2, Rounds: 4, Seed: 23,
	}

	single := NewManager(Config{})
	tss := httptest.NewServer(NewServer(single))
	defer tss.Close()
	refView := postJob(t, tss.URL, spec)
	waitTerminal(t, tss.URL, refView.ID)
	_, want := getBody(t, tss.URL+"/jobs/"+refView.ID+"/result")

	for name, token := range map[string]string{"good": "tok-alice", "bad": "tok-nope"} {
		coord := NewManager(Config{
			Role: "coordinator", Node: "c2",
			Peers:      []string{addr},
			PeerToken:  token,
			AuthTokens: reg,
		})
		tsc := httptest.NewServer(NewServer(coord))
		coord.ProbePeers(context.Background())

		resp, view := postJobAs(t, tsc.URL, "tok-alice", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit: %d", name, resp.StatusCode)
		}
		final := waitTerminal(t, tsc.URL, view.ID)
		if final.State != StateDone {
			t.Fatalf("%s: job %s (%s)", name, final.State, final.Error)
		}
		_, got := getBody(t, tsc.URL+"/jobs/"+view.ID+"/result")
		if !bytes.Equal(got, want) {
			t.Errorf("%s: sharded result differs from single-node run", name)
		}
		remote := counterValue(coord, "service.shard.remote_cells")
		if name == "good" && remote == 0 {
			t.Errorf("good token: no cells executed remotely")
		}
		if name == "bad" && remote != 0 {
			t.Errorf("bad token: %d cells executed remotely, want 0", remote)
		}
		tsc.Close()
	}
}
