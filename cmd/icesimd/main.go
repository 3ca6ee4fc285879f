// Command icesimd is the simulation-as-a-service daemon: a resident
// HTTP front-end over the ICE simulator. It accepts simulation jobs
// (single scenario×scheme×device runs and any experiment from the
// shared registry), executes them through internal/harness under a
// global bounded worker budget, streams per-cell progress as
// NDJSON/SSE, and answers repeated identical jobs from a
// content-addressed LRU result cache.
//
// With -state-dir the content-addressed result cache gains a
// persistent disk tier: completed payloads spill to
// <state-dir>/cache/<key[:2]>/<key> (atomic temp-file + rename, an
// integrity header with payload checksums), the daemon rebuilds the
// index from the directory on boot, and eviction is byte-budgeted
// (-cache-bytes, LRU order). Identical jobs are then served
// byte-identical across daemon restarts; corrupted or truncated
// entries are quarantined under <state-dir>/corrupt/ and re-simulated.
// Without -state-dir the daemon is fully in-memory, as before.
//
// Usage:
//
//	icesimd                          # listen on 127.0.0.1:7823
//	icesimd -addr :0                 # any free port (printed on stdout)
//	icesimd -workers 8 -max-jobs 4   # budget: ≤8 cells in flight, ≤4 jobs
//	icesimd -state-dir /var/lib/icesimd -cache-bytes 2147483648
//
// Quickstart:
//
//	curl -s localhost:7823/healthz
//	curl -s localhost:7823/experiments
//	curl -s -X POST localhost:7823/jobs -d '{"kind":"experiment","experiment":"fig8","fast":true}'
//	curl -sN localhost:7823/jobs/job-1/stream       # NDJSON progress
//	curl -s  localhost:7823/jobs/job-1/result
//
// SIGTERM/SIGINT drains gracefully: submissions are rejected, in-flight
// jobs finish (up to -drain-timeout, then they are cancelled), and the
// process exits cleanly.
//
// Several daemons form a cluster. Workers opt in to serving foreign
// cell ranges; a coordinator turns each job's cell matrix into a lease
// queue of chunks that its own pool and every registered worker pull
// from (work stealing — a slow worker simply stops pulling):
//
//	icesimd -role worker -addr 127.0.0.1:7824
//	icesimd -role worker -addr 127.0.0.1:7825
//	icesimd -peers 127.0.0.1:7824,127.0.0.1:7825
//
// Membership is dynamic: -peers only seeds the fleet. A worker started
// with -join coordinator:port announces itself (POST /internal/join,
// repeated every -join-interval) and is admitted at runtime — even
// into jobs already running — and deregisters on drain; a
// runtime-joined worker that stops answering health probes is pruned.
// A node given -peers coordinates and reports role coordinator on
// /healthz and in the metrics role label; -role coordinator makes a
// node coordinate with no seed workers at all, relying entirely on
// joins.
//
// Distributed jobs return byte-identical results to single-node runs:
// cell seeds derive from the job spec alone and the coordinator merges
// per-cell payloads back in matrix order. A peer that dies or times
// out mid-lease only costs wall-clock — its chunk is requeued for the
// next puller (-shard-timeout bounds one attempt, -shard-chunk-cells
// sizes leases). Peer health is re-probed every -health-interval, so a
// restarted worker rejoins the rotation.
//
// Coordinators also treat the fleet's content-addressed stores as one
// shared cache: a submission that misses the local memory and disk
// tiers asks every healthy member (GET /internal/cache/<key>) and
// adopts the first entry whose integrity header — lengths and SHA-256
// checksums, the same format the disk store trusts — verifies end to
// end, serving it byte-identical without simulating.
//
// Observability: GET /metrics speaks three formats — the legacy line
// dump, ?format=json, and the Prometheus text exposition (?format=prom
// or Accept: text/plain; version=0.0.4) with role/node const labels
// (-role, -node). A coordinator additionally serves GET /fleet/metrics,
// scraping every -peers worker and re-emitting its series under a peer
// label with an ice_peer_up gauge per peer, so one Prometheus target
// watches the whole fleet. See deploy/ for a ready-made
// Prometheus + Grafana stack.
//
// Multi-tenancy: -auth-tokens names a static token file (one
// "token principal key=value..." line per tenant; see internal/tenant)
// that turns on bearer-token auth for the mutating routes — health and
// metrics stay open for probes and scrapers. Each principal carries a
// fair-scheduler weight and optional quotas (max-cells, max-queued,
// cache-bytes), jobs queue per principal under deficit-round-robin
// with interactive priority over batch ("priority" in the job spec),
// and queued interactive work preempts running batch work at cell
// boundaries — the preempted job resumes later with its completed
// cells replayed, byte-identical. A coordinator authenticates to its
// workers with -peer-token. Without -auth-tokens every caller is the
// anonymous principal and the daemon behaves exactly as before.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/eurosys23/ice/internal/service"
	"github.com/eurosys23/ice/internal/tenant"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7823", "listen address (host:0 picks a free port)")
		workers      = flag.Int("workers", 0, "global cell budget across all jobs (0 = GOMAXPROCS)")
		maxJobs      = flag.Int("max-jobs", 0, "jobs simulating concurrently (0 = 2)")
		maxQueue     = flag.Int("max-queue", 0, "queued-job bound (0 = 64)")
		cacheEntries = flag.Int("cache", 0, "in-memory result-cache LRU entries (0 = 256)")
		stateDir     = flag.String("state-dir", "", "persistent result-store directory (empty = in-memory only)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "disk store payload-byte budget (0 = 1 GiB; needs -state-dir)")
		retainJobs   = flag.Int("retain-jobs", 0, "terminal jobs kept per principal and state for /jobs (0 = 256)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
		authTokens   = flag.String("auth-tokens", "", "token file enabling bearer auth (token principal key=value... per line)")
		peerToken    = flag.String("peer-token", "", "bearer token attached to outbound peer calls (shard dispatch, fleet scrape)")

		role            = flag.String("role", "node", "node role: node, worker (serves POST /internal/cells), or coordinator")
		node            = flag.String("node", "", "node name for /healthz and the metrics node label (default: hostname)")
		peersFlag       = flag.String("peers", "", "comma-separated seed worker host:port list; makes this node a coordinator")
		joinFlag        = flag.String("join", "", "comma-separated coordinator host:port list to announce this worker to")
		advertise       = flag.String("advertise", "", "host:port coordinators should dispatch to (default: the bound listen address)")
		joinInterval    = flag.Duration("join-interval", 5*time.Second, "re-announce period for -join")
		shardTimeout    = flag.Duration("shard-timeout", 5*time.Minute, "per-chunk dispatch timeout before the chunk is requeued")
		shardChunkCells = flag.Int("shard-chunk-cells", 0, "max cells per lease chunk (0 = split the matrix into ~16 chunks)")
		peerCacheWait   = flag.Duration("peer-cache-timeout", 0, "fleet-wide cache consultation bound per cache miss (0 = 2s)")
		healthInterval  = flag.Duration("health-interval", 5*time.Second, "peer health-probe period")
	)
	flag.Parse()

	if *role != "node" && *role != "worker" && *role != "coordinator" {
		fmt.Fprintf(os.Stderr, "icesimd: unknown -role %q (want node, worker, or coordinator)\n", *role)
		os.Exit(2)
	}
	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	var coordinators []string
	for _, c := range strings.Split(*joinFlag, ",") {
		if c = strings.TrimSpace(c); c != "" {
			coordinators = append(coordinators, c)
		}
	}
	var registry *tenant.Registry
	if *authTokens != "" {
		var err error
		registry, err = tenant.LoadTokens(*authTokens)
		if err != nil {
			fmt.Fprintf(os.Stderr, "icesimd: -auth-tokens: %v\n", err)
			os.Exit(2)
		}
	}

	mgr, err := service.OpenManager(service.Config{
		MaxWorkers:         *workers,
		MaxRunningJobs:     *maxJobs,
		MaxQueuedJobs:      *maxQueue,
		CacheEntries:       *cacheEntries,
		StateDir:           *stateDir,
		CacheBytes:         *cacheBytes,
		RetainTerminalJobs: *retainJobs,
		WorkerEndpoint:     *role == "worker",
		Peers:              peers,
		ShardChunkTimeout:  *shardTimeout,
		ShardChunkCells:    *shardChunkCells,
		PeerCacheTimeout:   *peerCacheWait,
		Role:               *role,
		Node:               *node,
		AuthTokens:         registry,
		PeerToken:          *peerToken,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	healthCtx, stopHealth := context.WithCancel(context.Background())
	defer stopHealth()
	if len(peers) > 0 || *role == "coordinator" {
		go mgr.PeerHealthLoop(healthCtx, *healthInterval)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: service.NewServer(mgr)}

	// The definite line tooling greps for the bound port.
	fmt.Printf("icesimd listening on %s\n", ln.Addr())

	// Announce this worker to its coordinators; the loop re-announces
	// every -join-interval and posts a leave when cancelled at drain.
	announceCtx, stopAnnounce := context.WithCancel(context.Background())
	announceDone := make(chan struct{})
	close(announceDone)
	if len(coordinators) > 0 {
		adv := *advertise
		if adv == "" {
			adv = ln.Addr().String()
		}
		announceDone = make(chan struct{})
		go func() {
			defer close(announceDone)
			mgr.AnnounceLoop(announceCtx, coordinators, adv, *joinInterval)
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigc:
		fmt.Printf("icesimd: %v, draining (timeout %v)\n", sig, *drainTimeout)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Deregister from coordinators first so no new chunk is dispatched
	// here mid-drain, then stop accepting connections, then drain the
	// job manager.
	stopAnnounce()
	<-announceDone
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, err)
	}
	if err := mgr.Drain(ctx); err != nil {
		fmt.Printf("icesimd: drain timeout, in-flight jobs cancelled\n")
		os.Exit(1)
	}
	fmt.Println("icesimd: drained, bye")
}
