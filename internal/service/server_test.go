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

	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/obs"
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

// FuzzInternalBodies fuzzes the bodies of the three fleet routes any
// caller may reach on a node started without -auth-tokens
// (/internal/cells, /internal/join and /internal/leave) through
// decodeBody and each route's handler, on one node that both serves
// cell ranges and coordinates. Every request carries a cancelled
// context, so no cells body can start a simulation. A body's "@v" is
// replaced by the code version, so bodies get past the version check.
// Nothing may panic; a body the route refuses changes no principal
// record, membership entry or registry series; and after every request
// each member has exactly its two per-peer series.
func FuzzInternalBodies(f *testing.F) {
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, `{"spec":{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":6,"seed":23},"from":0,"to":6,"version":"@v","principal":"alice"}`},
		{0, `{"spec":{"kind":"experiment","experiment":"table1","fast":true},"from":3,"to":1,"version":"@v"}`},
		{0, `{"spec":{"kind":"run","rounds":2},"from":0,"to":1,"version":"other-build"}`},
		{1, `{"addr":"127.0.0.1:7001","node":"w1","version":"@v"}`},
		{1, `{"addr":"not-an-address","version":"@v"}`},
		{1, `{"addr":"[::1]:7002","version":"other-build"}`},
		{2, `{"addr":"127.0.0.1:7001","version":"@v"}`},
		{2, `{"addr":"127.0.0.1:7001","extra":true}`},
		{1, `{"addr":`},
	} {
		f.Add(seed.route, []byte(seed.body))
	}
	version, err := json.Marshal(codeVersion())
	if err != nil {
		f.Fatal(err)
	}
	paths := []string{internalCellsPath, internalJoinPath, internalLeavePath}
	m := NewManager(Config{MaxWorkers: 1, Role: "coordinator", WorkerEndpoint: true})
	h := NewServer(m)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// state is what a refused body must leave alone.
	state := func() (records int, members, series []string) {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, p := range m.peers {
			members = append(members, fmt.Sprintf("%s %s %t %t", p.addr, p.node, p.seed, p.healthy))
		}
		return len(m.fq.tenants), members, seriesNames(m.reg.Snapshot())
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		body = bytes.ReplaceAll(body, []byte(`"@v"`), version)
		path := paths[int(route)%len(paths)]
		records, members, series := state()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(cancelled))
		records2, members2, series2 := state()
		if rec.Code != http.StatusOK &&
			(records2 != records || !slices.Equal(members2, members) || !slices.Equal(series2, series)) {
			t.Fatalf("refused %s body (status %d) changed state: %d -> %d records, members %v -> %v, %d -> %d series",
				path, rec.Code, records, records2, members, members2, len(series), len(series2))
		}
		perPeer := 0
		for _, name := range series2 {
			if strings.HasPrefix(name, peerInflightPrefix) || strings.HasPrefix(name, peerHealthyPrefix) {
				perPeer++
			}
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		if perPeer != 2*len(m.peers) {
			t.Fatalf("%d per-peer series for %d members", perPeer, len(m.peers))
		}
		for _, p := range m.peers {
			for _, name := range []string{peerInflightPrefix + p.addr, peerHealthyPrefix + p.addr} {
				if _, found := slices.BinarySearch(series2, name); !found {
					t.Fatalf("member %s has no series %s", p.addr, name)
				}
			}
		}
	})
}

// seriesNames lists every instrument name in a snapshot, sorted.
func seriesNames(s obs.Snapshot) []string {
	var names []string
	for _, c := range s.Counters {
		names = append(names, c.Name)
	}
	for _, g := range s.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range s.Hists {
		names = append(names, h.Name)
	}
	slices.Sort(names)
	return names
}
