// fleet.go is the coordinator's fleet-wide scrape surface: GET
// /fleet/metrics re-exposes this node's exposition plus every
// configured peer's, each sample tagged with a peer label, so one
// Prometheus scrape target covers the whole -peers fleet. A peer that
// cannot be scraped within Config.FleetScrapeTimeout contributes
// nothing but its ice_peer_up 0 sample — a dead worker shows as a flat
// line, never as a scrape error.
package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"

	"github.com/eurosys23/ice/internal/obs"
)

// fleetSelfPeer is the peer label of the scraping node's own series
// when no node name is configured.
const fleetSelfPeer = "self"

// labelPeer returns a deep-enough copy of fams with the peer label
// prepended to every sample.
func labelPeer(fams []obs.PromFamily, peer string) []obs.PromFamily {
	out := make([]obs.PromFamily, len(fams))
	for i, fam := range fams {
		nf := fam
		nf.Samples = make([]obs.PromSample, len(fam.Samples))
		for k, s := range fam.Samples {
			ns := s
			ns.Labels = append([]obs.PromLabel{{Key: "peer", Value: peer}}, s.Labels...)
			nf.Samples[k] = ns
		}
		out[i] = nf
	}
	return out
}

// FleetMetrics renders the fleet-wide exposition: this node's series
// under peer=<node name>, every scrapable peer's series under
// peer=<addr>, and an ice_peer_up gauge per configured peer. Output is
// deterministic for a given set of scrape results (families sorted by
// name, samples in self-then-configured-peer order).
func (m *Manager) FleetMetrics(ctx context.Context) ([]byte, error) {
	selfText, err := m.PromMetrics()
	if err != nil {
		return nil, err
	}
	selfFams, err := obs.ParseProm(bytes.NewReader(selfText))
	if err != nil {
		return nil, fmt.Errorf("self exposition does not parse: %w", err)
	}
	selfName := m.cfg.Node
	if selfName == "" {
		selfName = fleetSelfPeer
	}

	// Membership is dynamic (runtime joins and pruning mutate m.peers);
	// snapshot it so the scrape works on a consistent roster.
	m.mu.Lock()
	peers := append([]*peer(nil), m.peers...)
	m.mu.Unlock()

	peerFams := make([][]obs.PromFamily, len(peers))
	peerUp := make([]bool, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, err := m.peerCall(ctx, m.cfg.FleetScrapeTimeout, http.MethodGet, p.addr, "/metrics?format=prom", nil)
			if err != nil {
				return // dead peer: ice_peer_up 0, nothing else
			}
			fams, err := obs.ParseProm(bytes.NewReader(raw))
			if err != nil {
				return
			}
			peerFams[i] = fams
			peerUp[i] = true
		}()
	}
	wg.Wait()

	groups := make([][]obs.PromFamily, 0, len(peers)+2)
	groups = append(groups, labelPeer(selfFams, selfName))
	for i, p := range peers {
		if peerUp[i] {
			groups = append(groups, labelPeer(peerFams[i], p.addr))
		}
	}
	up := obs.PromFamily{
		Name: "ice_peer_up",
		Type: "gauge",
		Help: "Whether the last fleet scrape of the peer succeeded.",
	}
	for i, p := range peers {
		v := "0"
		if peerUp[i] {
			v = "1"
		}
		up.Samples = append(up.Samples, obs.PromSample{
			Name: up.Name,
			Labels: []obs.PromLabel{
				{Key: "role", Value: m.cfg.Role},
				{Key: "node", Value: m.cfg.Node},
				{Key: "peer", Value: p.addr},
			},
			Value: v,
		})
	}
	groups = append(groups, []obs.PromFamily{up})

	merged := obs.MergeFamilies(groups...)
	obs.SortFamilies(merged)
	var out bytes.Buffer
	if err := obs.WriteFamilies(&out, merged, nil); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}
