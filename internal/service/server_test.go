package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/eurosys23/ice/internal/harness"
)

// TestRequestBodyCap: a body over the 1 MiB cap gets 413 on a public
// route and on a fleet route, instead of being buffered whole and then
// rejected, and the daemon keeps serving.
func TestRequestBodyCap(t *testing.T) {
	// A seed peer makes the node a coordinator, which serves the join
	// route; the peer is never probed, so it stays out of rotation.
	m := NewManager(Config{Peers: []string{"127.0.0.1:1"}})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	filler := strings.Repeat("a", 2<<20)
	for path, body := range map[string]string{
		"/jobs":          `{"scenario":"` + filler + `"}`,
		internalJoinPath: `{"addr":"` + filler + `"}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", path, len(body), resp.StatusCode)
		}
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after oversized bodies: status %d", code)
	}
}

// TestStreamTerminalEventSurvivesFullBuffer: a subscriber that reads
// nothing while more progress events are published than its buffer
// holds still receives the terminal event, as the last one.
func TestStreamTerminalEventSurvivesFullBuffer(t *testing.T) {
	m := NewManager(Config{MaxWorkers: 1})
	view, err := m.Submit(JobSpec{
		Kind: KindRun, Device: "Pixel3", Scenario: "S-C", Scheme: "LRU+CFS",
		DurationSec: 2, Rounds: 64, Seed: 7, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, cancelSub, err := m.Subscribe(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelSub()
	m.mu.Lock()
	j := m.jobs[view.ID]
	m.mu.Unlock()
	for i := 0; i < 300; i++ {
		m.publish(j, harness.Progress{Completed: i % 64, Total: 64})
	}
	if _, err := m.Cancel(view.ID); err != nil {
		t.Fatal(err)
	}
	waitDoneMgr(t, m, view.ID)

	var last StreamEvent
	n := 0
	for ev := range events {
		last = ev
		n++
	}
	if !terminal(last.State) {
		t.Fatalf("last of %d events is %q, want a terminal state", n, last.State)
	}
}
