package service

// shard.go distributes a job's cell matrix across icesimd nodes with
// pull-based work stealing. A coordinator turns each job's stamped
// index space into a harness.LeaseQueue of contiguous chunks; every
// registered healthy peer gets a lease loop that pulls the next chunk
// as soon as it finishes the previous one (POST /internal/cells), so a
// slow or busy worker simply stops pulling and stragglers shed load
// without replanning. A dispatch failure requeues the chunk at the
// front of the deque for the next puller — possibly the coordinator's
// own pool. Cells derive their seeds from the spec alone and the
// harness merges payloads in matrix order, which keeps the final
// result/trace payloads — and therefore the cache keys and stored
// entries — byte-identical to a single-node run at any membership,
// steal pattern, or failure sequence.
//
// Membership is dynamic: -peers only seeds the list. Workers announce
// themselves with POST /internal/join (version-checked, authenticated
// like any mutating route) and re-announce periodically; the health
// probe prunes a runtime-joined peer after peerFailureLimit
// consecutive failures, while seed peers merely leave rotation until
// they recover. A peer that joins — or recovers — while jobs are
// running is spawned into every active lease session immediately,
// which is what lets a late-booted worker steal chunks mid-job.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/eurosys23/ice/internal/harness"
	"github.com/eurosys23/ice/internal/obs"
	"github.com/eurosys23/ice/internal/tenant"
)

// Internal fleet endpoints: cell-range execution (worker side), and
// membership registration (coordinator side).
const (
	internalCellsPath = "/internal/cells"
	internalJoinPath  = "/internal/join"
	internalLeavePath = "/internal/leave"
)

// peerFailureLimit is how many consecutive probe failures remove a
// runtime-joined peer from membership entirely. Seed peers (-peers)
// are never removed — only marked unhealthy — so a configured fleet
// keeps its shape across worker restarts.
const peerFailureLimit = 3

// maxRuntimePeers caps a coordinator's runtime-joined members. Without
// -auth-tokens any caller may join under any address, and each member
// costs two series and a lease loop in every running job; only
// liveness pruning removes one that never leaves, and that takes
// peerFailureLimit probe rounds that each probe members one at a time.
// The repository's fleets have two or three workers. Seed peers do not
// count.
const maxRuntimePeers = 64

// peerControlTimeout bounds one health probe or membership announce.
const peerControlTimeout = 2 * time.Second

// fleetScrapeTimeout bounds one peer scrape during GET /fleet/metrics.
// A peer that misses it reports ice_peer_up 0 instead of failing the
// fleet scrape.
const fleetScrapeTimeout = 3 * time.Second

// maxPeerBodyBytes caps the body of one peer answer. The largest
// legitimate one is a traced cache entry; a peer sending more is
// misbehaving and the answer is dropped.
const maxPeerBodyBytes = 1 << 30

// ErrPeerVersion rejects a join from a peer built at a different code
// version: merged payloads must all come from identical code.
var ErrPeerVersion = errors.New("service: peer version mismatch")

// ErrBadPeerAddr rejects a join whose advertised address is not a
// usable host:port.
var ErrBadPeerAddr = errors.New("service: bad peer address")

// ErrTooManyPeers rejects a join under a new address once the
// coordinator has maxRuntimePeers runtime-joined members.
var ErrTooManyPeers = errors.New("service: runtime fleet membership full")

// shardRequest asks a worker to execute stamped cells [From, To) of
// the spec's matrix. Version pins the coordinator's build: merged
// payloads must all come from identical code, so a worker on a
// different version refuses (HTTP 409) and the chunk is requeued.
type shardRequest struct {
	Spec    JobSpec `json:"spec"`
	From    int     `json:"from"`
	To      int     `json:"to"`
	Version string  `json:"version"`
	// Principal is the submitting caller's identity, forwarded so the
	// worker attributes the served cells — and applies its own
	// per-principal max-cells — to the original tenant rather than to
	// the coordinator.
	Principal string `json:"principal,omitempty"`
}

// shardResponse carries one JSON payload per cell of the requested
// range, in index order.
type shardResponse struct {
	Cells []json.RawMessage `json:"cells"`
}

// joinRequest is the POST /internal/join (and /internal/leave) body: a
// worker announcing the address coordinators should dispatch to.
type joinRequest struct {
	Addr    string `json:"addr"`
	Node    string `json:"node,omitempty"`
	Version string `json:"version"`
}

// peer is one member of the fleet — configured via -peers (seed) or
// registered at runtime via POST /internal/join. All mutable fields
// are guarded by Manager.mu.
type peer struct {
	addr     string
	node     string
	seed     bool // from -peers; survives liveness pruning
	healthy  bool
	failures int // consecutive probe failures (prunes joined peers)
	inflight *obs.Gauge
	healthyG *obs.Gauge
}

// findPeerLocked returns the member with the given address, or nil.
func (m *Manager) findPeerLocked(addr string) *peer {
	for _, p := range m.peers {
		if p.addr == addr {
			return p
		}
	}
	return nil
}

// Each member has two series, named by these prefixes and its address.
const (
	peerInflightPrefix = "service.shard.peer_inflight."
	peerHealthyPrefix  = "service.shard.peer_healthy."
)

// addPeerLocked appends a new member, registers its two series and
// refreshes the membership gauge.
func (m *Manager) addPeerLocked(addr string, seedPeer bool) *peer {
	p := &peer{
		addr:     addr,
		seed:     seedPeer,
		inflight: m.reg.Gauge(peerInflightPrefix + addr),
		healthyG: m.reg.Gauge(peerHealthyPrefix + addr),
	}
	m.peers = append(m.peers, p)
	m.peersGauge.Set(int64(len(m.peers)))
	return p
}

// removePeerLocked drops a runtime-joined member from the fleet, and its
// series with it: callers may join and leave under any address, so a
// departed member must leave nothing behind. A dispatch still holding
// the peer records into gauges no snapshot reads, and a rejoin under the
// same address registers fresh ones.
func (m *Manager) removePeerLocked(victim *peer) {
	for i, p := range m.peers {
		if p == victim {
			m.peers = append(m.peers[:i], m.peers[i+1:]...)
			break
		}
	}
	m.reg.Remove(peerInflightPrefix + victim.addr)
	m.reg.Remove(peerHealthyPrefix + victim.addr)
	m.peerLeaveCtr.Inc()
	m.peersGauge.Set(int64(len(m.peers)))
}

// RegisterPeer admits (or refreshes) a runtime member of the fleet.
// The peer enters rotation healthy immediately — it just proved
// liveness by calling — and is spawned into every active lease
// session, so a worker that joins mid-job starts pulling chunks for
// jobs already running. A new address is refused with ErrTooManyPeers
// once maxRuntimePeers members have joined at runtime; a member's
// re-announce is always accepted. Returns the resulting membership
// size.
func (m *Manager) RegisterPeer(addr, node, version string) (int, error) {
	if version != codeVersion() {
		return 0, fmt.Errorf("%w: peer %q, coordinator %q", ErrPeerVersion, version, codeVersion())
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil || host == "" || port == "" {
		return 0, fmt.Errorf("%w: %q (want host:port)", ErrBadPeerAddr, addr)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrDraining
	}
	p := m.findPeerLocked(addr)
	if p == nil {
		joined := 0
		for _, q := range m.peers {
			if !q.seed {
				joined++
			}
		}
		if joined >= maxRuntimePeers {
			return 0, fmt.Errorf("%w: %d members joined at runtime", ErrTooManyPeers, joined)
		}
		p = m.addPeerLocked(addr, false)
		m.peerJoinCtr.Inc()
	}
	if node != "" {
		p.node = node
	}
	p.failures = 0
	m.setHealthLocked(p, true)
	return len(m.peers), nil
}

// setHealthLocked moves a member into or out of rotation. A member that
// returns to health is spawned into every active lease session, so a
// joining or recovering worker starts pulling chunks for jobs already
// running.
func (m *Manager) setHealthLocked(p *peer, healthy bool) {
	returning := healthy && !p.healthy
	p.healthy = healthy
	var up int64
	if healthy {
		up = 1
	}
	p.healthyG.Set(up)
	if returning {
		for s := range m.sessions {
			s.spawnLocked(m, p)
		}
	}
}

// DeregisterPeer handles a voluntary leave (a draining worker's POST
// /internal/leave): runtime-joined members are removed, seed members
// merely leave rotation until their next successful probe. Reports
// whether the address was a member.
func (m *Manager) DeregisterPeer(addr string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.findPeerLocked(addr)
	if p == nil {
		return false
	}
	m.setHealthLocked(p, false)
	if !p.seed {
		m.removePeerLocked(p)
	}
	return true
}

// PeerCount reports the current membership size.
func (m *Manager) PeerCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.peers)
}

// ProbePeers checks every member's /healthz once and updates the
// health state, returning the healthy count. A member that recovers is
// spawned into every active lease session; a runtime-joined member
// that fails peerFailureLimit consecutive probes leaves the fleet.
// cmd/icesimd runs this periodically via PeerHealthLoop.
func (m *Manager) ProbePeers(ctx context.Context) int {
	m.mu.Lock()
	snapshot := append([]*peer(nil), m.peers...)
	m.mu.Unlock()
	healthy := 0
	for _, p := range snapshot {
		_, err := m.peerCall(ctx, peerControlTimeout, http.MethodGet, p.addr, "/healthz", nil)
		m.mu.Lock()
		m.setHealthLocked(p, err == nil)
		if err == nil {
			p.failures = 0
			healthy++
		} else {
			p.failures++
			if !p.seed && p.failures >= peerFailureLimit && m.findPeerLocked(p.addr) == p {
				m.removePeerLocked(p)
			}
		}
		m.mu.Unlock()
	}
	return healthy
}

// peerCall is the one client for calls to a fleet member: it sends
// method addr+path, with in as a JSON body when non-nil, under timeout
// and with the fleet token attached (open routes ignore it;
// authenticated workers require it on every mutating route). It
// returns the body of a 200 answer, read through the maxPeerBodyBytes
// bound; any other status is an error.
func (m *Manager) peerCall(ctx context.Context, timeout time.Duration, method, addr, path string, in any) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+addr+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if m.cfg.PeerToken != "" {
		req.Header.Set("Authorization", "Bearer "+m.cfg.PeerToken)
	}
	resp, err := m.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s%s: %s: %s", addr, path, resp.Status, bytes.TrimSpace(msg))
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(raw) > maxPeerBodyBytes {
		return nil, fmt.Errorf("%s%s: answer exceeds %d bytes", addr, path, maxPeerBodyBytes)
	}
	return raw, nil
}

// PeerHealthLoop probes immediately, then every interval, until ctx is
// cancelled. A peer marked unhealthy by a failed dispatch re-enters
// rotation — and any active lease sessions — at its next successful
// probe.
func (m *Manager) PeerHealthLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		m.ProbePeers(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// AnnounceLoop is the worker half of runtime membership: register with
// every coordinator immediately, re-announce each interval (healing
// coordinator restarts and dispatch-failure demotions), and
// best-effort deregister on ctx cancellation so a clean drain leaves
// membership tidy. cmd/icesimd runs it for -join.
func (m *Manager) AnnounceLoop(ctx context.Context, coordinators []string, advertise string, interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	// Announces are best effort: a failed join is retried next interval,
	// and a failed leave is healed by the coordinator's probe pruning.
	announce := func(ctx context.Context, path string) {
		for _, c := range coordinators {
			m.peerCall(ctx, peerControlTimeout, http.MethodPost, c, path,
				joinRequest{Addr: advertise, Node: m.cfg.Node, Version: codeVersion()})
		}
	}
	announce(ctx, internalJoinPath)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			leaveCtx, cancel := context.WithTimeout(context.Background(), peerControlTimeout)
			announce(leaveCtx, internalLeavePath)
			cancel()
			return
		case <-t.C:
			announce(ctx, internalJoinPath)
		}
	}
}

// stealSession is one running job's dispatcher state: the job's lease
// queue plus the set of peers currently pulling from it. Sessions are
// registered in Manager.sessions so membership events (join, probe
// recovery) can spawn loops into jobs that are already running.
type stealSession struct {
	q         *harness.LeaseQueue
	ctx       context.Context
	spec      JobSpec
	principal string
	wg        sync.WaitGroup
	closed    bool            // guarded by Manager.mu; no more spawns
	active    map[string]bool // peer addrs with a live loop; guarded by Manager.mu
}

// stealConfig builds the harness work-stealing hook for one job, or
// nil when this node does not coordinate. A coordinator opens steal
// sessions even with zero current members — that is exactly what lets
// a worker that joins mid-job start leasing.
func (m *Manager) stealConfig(spec JobSpec, principal string) *harness.StealConfig {
	if !m.coordinates() {
		return nil
	}
	return &harness.StealConfig{
		ChunkCells: m.cfg.ShardChunkCells,
		Run: func(ctx context.Context, q *harness.LeaseQueue) {
			m.runStealSession(ctx, q, spec, principal)
		},
	}
}

// runStealSession drives one job's remote dispatch: spawn a lease loop
// per healthy member, keep the session open to late joiners, and wait
// for the queue to drain.
func (m *Manager) runStealSession(ctx context.Context, q *harness.LeaseQueue, spec JobSpec, principal string) {
	s := &stealSession{q: q, ctx: ctx, spec: spec, principal: principal, active: make(map[string]bool)}
	m.mu.Lock()
	m.sessions[s] = struct{}{}
	for _, p := range m.peers {
		if p.healthy {
			s.spawnLocked(m, p)
		}
	}
	m.mu.Unlock()
	<-q.Drained()
	m.mu.Lock()
	s.closed = true
	delete(m.sessions, s)
	m.mu.Unlock()
	s.wg.Wait()
}

// spawnLocked starts a lease loop pulling for peer p, unless the
// session is over or one is already running for that address. The
// caller holds Manager.mu.
func (s *stealSession) spawnLocked(m *Manager, p *peer) {
	if s.closed || s.active[p.addr] {
		return
	}
	s.active[p.addr] = true
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		m.peerStealLoop(s, p)
		m.mu.Lock()
		delete(s.active, p.addr)
		m.mu.Unlock()
	}()
}

// peerStealLoop pulls chunks for one peer until the queue drains or a
// dispatch fails. Failure requeues the chunk at the front of the deque
// (the next puller — another peer or the local pool — re-runs it,
// byte-identical by seed determinism) and demotes the peer; a later
// successful probe or re-announce re-admits it, including into this
// very session.
func (m *Manager) peerStealLoop(s *stealSession, p *peer) {
	for {
		r, ok := s.q.Lease()
		if !ok {
			return
		}
		m.mu.Lock()
		m.shardLeaseCtr.Inc()
		m.mu.Unlock()
		cells, err := m.postCells(s.ctx, p, s.spec, r, s.principal)
		if err != nil {
			s.q.Requeue(r)
			m.notePeerFailure(p)
			return
		}
		if !s.q.Complete(r, cells) {
			// The queue rejected (and requeued) the payloads — unless the
			// run is simply over, treat garbage like any dispatch failure.
			if s.ctx.Err() == nil {
				m.notePeerFailure(p)
			}
			return
		}
		m.mu.Lock()
		m.shardStealCtr.Inc()
		m.shardRemoteCtr.Add(uint64(len(cells)))
		m.mu.Unlock()
	}
}

// notePeerFailure counts one failed dispatch and pulls the peer from
// rotation until the health loop (or its own re-announce) re-admits it.
func (m *Manager) notePeerFailure(p *peer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shardPeerFailCtr.Inc()
	m.shardRequeueCtr.Inc()
	m.setHealthLocked(p, false)
}

// postCells performs one dispatch attempt under the per-chunk timeout.
func (m *Manager) postCells(ctx context.Context, p *peer, spec JobSpec, r harness.Range, principal string) ([][]byte, error) {
	m.mu.Lock()
	p.inflight.Add(1)
	m.mu.Unlock()
	raw, err := m.peerCall(ctx, m.cfg.ShardChunkTimeout, http.MethodPost, p.addr, internalCellsPath,
		shardRequest{Spec: spec, From: r.From, To: r.To, Version: codeVersion(), Principal: principal})
	m.mu.Lock()
	p.inflight.Add(-1)
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	var sr shardResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, fmt.Errorf("%s: decode response: %w", p.addr, err)
	}
	out := make([][]byte, len(sr.Cells))
	for i, c := range sr.Cells {
		out[i] = c
	}
	return out, nil
}

// ExecCellRange executes stamped cells [from, to) of the spec's matrix
// locally and returns each cell's result as JSON, in index order — the
// worker half of the sharding protocol. Cell seeds derive from the
// spec alone, so these are exactly the bytes the coordinator's own
// pool would have computed for the same indices. principal is the
// coordinator-forwarded submitting identity ("" maps to anonymous):
// the served cells run under that principal's max-cells when this
// worker's token file defines one.
func (m *Manager) ExecCellRange(ctx context.Context, spec JobSpec, from, to int, principal string) ([][]byte, error) {
	if err := spec.normalize(); err != nil {
		return nil, &BadSpecError{Err: err}
	}
	if principal == "" {
		principal = tenant.AnonymousName
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	// The cells take the gate in the class of the coordinator's spec.
	// The principal's max-cells is all a worker reads of it, and only
	// the token file sets one. So only a principal the token file names
	// gets a record here; the file, not the caller, bounds the records.
	budget := gateBudget{g: m.gate, class: classOf(spec)}
	if _, ok := m.cfg.AuthTokens.ByName(principal); ok {
		budget.quota = m.tenantLocked(principal).cells
	}
	m.mu.Unlock()

	// Cells are collected by index, never into anything sized by the
	// request: the harness refuses a range that is empty or not within
	// the matrix (harness.ErrBadRange) before any cell runs.
	collected := make(map[int][]byte)
	hooks := harness.ExecHooks{
		Range: harness.Cells(from, to),
		Sink:  func(i int, b []byte) { collected[i] = b }, // calls serialised by the harness
		// Cells served for a coordinator fold into this worker's own
		// sim.* series, keeping fleet aggregation double-count free.
		ObsSink: m.foldSim,
	}
	// The progress callback records the served cells' wall-clock latency
	// into harness.cell_us — the same series coordinator-local cells use.
	progress := func(p harness.Progress) {
		if p.CellTime > 0 {
			m.mu.Lock()
			m.cellUs.Observe(p.CellTime.Microseconds())
			m.mu.Unlock()
		}
	}
	_, _, err := execute(ctx, spec, budget, progress, hooks)
	switch {
	case errors.Is(err, harness.ErrBadRange):
		return nil, &BadSpecError{Err: err}
	case len(collected) != to-from: // failed cells or cancellation
		return nil, err
	}
	cells := make([][]byte, 0, len(collected))
	for i := from; i < to; i++ {
		cells = append(cells, collected[i])
	}
	m.mu.Lock()
	m.shardServedCtr.Inc()
	m.shardServedCellsCtr.Add(uint64(len(cells)))
	m.mu.Unlock()
	return cells, nil
}
