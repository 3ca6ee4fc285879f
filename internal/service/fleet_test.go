package service

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/eurosys23/ice/internal/obs"
)

// TestFleetMetrics stands up two real workers behind httptest servers
// plus one dead peer address, and asserts the coordinator's fleet
// exposition: every live peer's series re-emitted under a peer label,
// ice_peer_up 1/0 per configured peer, exactly one # TYPE line per
// family after the merge, and the whole thing parsing as 0.0.4 text.
func TestFleetMetrics(t *testing.T) {
	w1 := NewManager(Config{Role: "worker", Node: "w1", WorkerEndpoint: true})
	ts1 := httptest.NewServer(NewServer(w1))
	defer ts1.Close()
	w2 := NewManager(Config{Role: "worker", Node: "w2", WorkerEndpoint: true})
	ts2 := httptest.NewServer(NewServer(w2))
	defer ts2.Close()

	addr1 := strings.TrimPrefix(ts1.URL, "http://")
	addr2 := strings.TrimPrefix(ts2.URL, "http://")
	dead := "127.0.0.1:1" // nothing listens on port 1

	coord := NewManager(Config{
		Role: "coordinator", Node: "c0",
		Peers: []string{addr1, addr2, dead},
	})
	tsc := httptest.NewServer(NewServer(coord))
	defer tsc.Close()

	code, body := getBody(t, tsc.URL+"/fleet/metrics")
	if code != 200 {
		t.Fatalf("/fleet/metrics: %d %s", code, body)
	}
	text := string(body)

	// Each configured peer has an up gauge; the dead one reads 0, not a
	// scrape error.
	for _, want := range []string{
		"# TYPE ice_peer_up gauge",
		`ice_peer_up{role="coordinator",node="c0",peer="` + addr1 + `"} 1`,
		`ice_peer_up{role="coordinator",node="c0",peer="` + addr2 + `"} 1`,
		`ice_peer_up{role="coordinator",node="c0",peer="` + dead + `"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet exposition missing %q", want)
		}
	}

	// Live workers' series carry their peer label; the coordinator's own
	// series carry its node name as the peer value.
	for _, want := range []string{
		`ice_service_cache_hits_total{peer="` + addr1 + `",role="worker",node="w1"}`,
		`ice_service_cache_hits_total{peer="` + addr2 + `",role="worker",node="w2"}`,
		`ice_service_cache_hits_total{peer="c0",role="coordinator",node="c0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet exposition missing %q", want)
		}
	}

	// The merge dedups family headers: one # TYPE per family even though
	// three nodes contribute the same series.
	if n := strings.Count(text, "# TYPE ice_service_cache_hits_total "); n != 1 {
		t.Errorf("# TYPE ice_service_cache_hits_total appears %d times, want 1", n)
	}
	if n := strings.Count(text, "# TYPE ice_process_uptime_seconds "); n != 1 {
		t.Errorf("# TYPE ice_process_uptime_seconds appears %d times, want 1", n)
	}

	fams, err := obs.ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("fleet exposition does not parse: %v", err)
	}
	// Parsed form: the up family holds exactly the three configured peers.
	for _, f := range fams {
		if f.Name == "ice_peer_up" && len(f.Samples) != 3 {
			t.Errorf("ice_peer_up has %d samples, want 3", len(f.Samples))
		}
	}

	// A worker with no peers has no fleet surface.
	code, body = getBody(t, ts1.URL+"/fleet/metrics")
	if code != 404 {
		t.Errorf("worker /fleet/metrics: %d %s, want 404", code, body)
	}
}

// TestFleetMetricsSelfOnly pins the degenerate fleet: a coordinator
// whose only peer is dead still reports its own series plus the zero
// up gauge instead of failing the scrape.
func TestFleetMetricsSelfOnly(t *testing.T) {
	coord := NewManager(Config{
		Role: "coordinator", Node: "solo",
		Peers: []string{"127.0.0.1:1"},
	})
	text, err := coord.FleetMetrics(context.Background())
	if err != nil {
		t.Fatalf("FleetMetrics: %v", err)
	}
	for _, want := range []string{
		`ice_peer_up{role="coordinator",node="solo",peer="127.0.0.1:1"} 0`,
		`ice_service_cache_hits_total{peer="solo",role="coordinator",node="solo"}`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("self-only fleet exposition missing %q", want)
		}
	}
	if _, err := obs.ParseProm(strings.NewReader(string(text))); err != nil {
		t.Errorf("self-only exposition does not parse: %v", err)
	}
}
