package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPeerCacheHitSkipsSimulation is the shared-cache half of the
// tentpole: a worker warms its cache, then a fresh coordinator that
// has never simulated the spec answers a submission from the worker's
// store — byte-identical, cached, with zero cells simulated locally.
func TestPeerCacheHitSkipsSimulation(t *testing.T) {
	w, addr := workerAddr(t)
	spec := JobSpec{Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice", DurationSec: 2, Rounds: 2, Seed: 29}
	wts := httptest.NewServer(NewServer(w))
	defer wts.Close()
	wantRes, _ := runJob(t, wts.URL, spec)

	coord := NewManager(Config{MaxWorkers: 2, Peers: []string{addr}})
	cts := httptest.NewServer(NewServer(coord))
	defer cts.Close()
	if n := coord.ProbePeers(context.Background()); n != 1 {
		t.Fatalf("%d healthy peers, want 1", n)
	}

	view := postJob(t, cts.URL, spec)
	if !view.Cached || view.State != StateDone {
		t.Fatalf("submission Cached=%v State=%s, want a cached done job", view.Cached, view.State)
	}
	code, gotRes := getBody(t, cts.URL+"/jobs/"+view.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if !bytes.Equal(wantRes, gotRes) {
		t.Errorf("peer-cache result differs from the worker's:\n%s", firstDiff(wantRes, gotRes))
	}
	if n := counterValue(coord, "service.cache.peer_hits"); n != 1 {
		t.Errorf("peer_hits = %d, want 1", n)
	}
	if n := counterValue(coord, "service.shard.leases"); n != 0 {
		t.Errorf("leases = %d for a cache-answered job, want 0", n)
	}
	if n := counterValue(w, "service.cache.peer_served"); n != 1 {
		t.Errorf("worker peer_served = %d, want 1", n)
	}

	// The adopted entry is now in the coordinator's own memory tier: a
	// resubmission hits locally, no peer round trip.
	view2 := postJob(t, cts.URL, spec)
	if !view2.Cached {
		t.Error("resubmission missed the promoted local entry")
	}
	if n := counterValue(coord, "service.cache.peer_hits"); n != 1 {
		t.Errorf("peer_hits = %d after local re-hit, want still 1", n)
	}
}

// TestPeerCacheMissSimulates: no peer has the entry, the miss is
// counted, and the job simulates normally.
func TestPeerCacheMissSimulates(t *testing.T) {
	_, addr := workerAddr(t)
	coord := NewManager(Config{MaxWorkers: 2, Peers: []string{addr}})
	cts := httptest.NewServer(NewServer(coord))
	defer cts.Close()
	if n := coord.ProbePeers(context.Background()); n != 1 {
		t.Fatalf("%d healthy peers, want 1", n)
	}
	spec := JobSpec{Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice", DurationSec: 2, Rounds: 2, Seed: 31}
	runJob(t, cts.URL, spec)
	if n := counterValue(coord, "service.cache.peer_misses"); n != 1 {
		t.Errorf("peer_misses = %d, want 1", n)
	}
	if n := counterValue(coord, "service.cache.peer_hits"); n != 0 {
		t.Errorf("peer_hits = %d, want 0", n)
	}
}

// TestInternalCacheEndpoint pins the wire surface: bad keys are 400,
// unknown keys 404, and a served entry round-trips through the full
// integrity verification.
func TestInternalCacheEndpoint(t *testing.T) {
	w, addr := workerAddr(t)
	wts := httptest.NewServer(NewServer(w))
	defer wts.Close()

	for _, bad := range []string{"short", strings.Repeat("z", 64), strings.Repeat("A", 64)} {
		code, _ := getBody(t, "http://"+addr+internalCachePath+bad)
		if code != http.StatusBadRequest {
			t.Errorf("key %q: status %d, want 400", bad, code)
		}
	}
	missing := strings.Repeat("ab", 32)
	if code, _ := getBody(t, "http://"+addr+internalCachePath+missing); code != http.StatusNotFound {
		t.Errorf("unknown key: want 404")
	}

	spec := JobSpec{Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "Ice", DurationSec: 2, Rounds: 2, Seed: 37, Trace: true}
	wantRes, wantTrace := runJob(t, wts.URL, spec)
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	key := CacheKey(spec, codeVersion())
	code, raw := getBody(t, "http://"+addr+internalCachePath+key)
	if code != http.StatusOK {
		t.Fatalf("cache fetch: status %d", code)
	}
	entry, err := decodeEntry(raw, key, codeVersion())
	if err != nil {
		t.Fatalf("served entry failed verification: %v", err)
	}
	if !bytes.Equal(entry.result, wantRes) {
		t.Error("served result differs from the job's")
	}
	if !bytes.Equal(entry.trace, wantTrace) {
		t.Error("served trace differs from the job's")
	}

	// Tampering with a single payload byte must fail verification.
	tampered := append([]byte(nil), raw...)
	tampered[len(tampered)-1] ^= 1
	if _, err := decodeEntry(tampered, key, codeVersion()); err == nil {
		t.Error("tampered entry passed verification")
	}
	// An entry for a different key must be rejected even if intact.
	if _, err := decodeEntry(raw, missing, codeVersion()); err == nil {
		t.Error("key-mismatched entry passed verification")
	}
}
