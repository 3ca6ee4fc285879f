#!/usr/bin/env bash
# ci.sh — the repo's tier-1 gate plus hygiene checks:
#   gofmt (no unformatted files), go vet, build, the full test suite
#   under the race detector (the harness worker pool must stay
#   race-free at any -workers setting), a flake guard re-running the
#   concurrency-heavy packages, 10 s fuzzes of the cached-entry trust
#   check (FuzzDecodeEntry), of the job-spec path (FuzzNormalize:
#   decode, normalise, cache key), of the Prometheus exposition
#   parser a coordinator runs on peer metrics (FuzzParseProm: no panic,
#   and an accepted input re-renders to the same families) and of the
#   tenant token file (FuzzParseTokens: no panic, and every accepted
#   line's token resolves to its principal) and of the scheduler's burn
#   rounds (FuzzBurnMatchesStep: a run that applies CPU-only rounds at
#   once ends in the same state, counters and trace as one that steps
#   through every round) and of the fleet routes' request bodies
#   (FuzzInternalBodies: /internal/cells, /internal/join and
#   /internal/leave bodies through decodeBody and their handlers; no
#   panic, a refused body changes no principal record, membership entry
#   or registry series, and each member keeps exactly its two per-peer
#   series) and of the daemon's cell gate (FuzzCellGate: acquire,
#   release, keep and cancel sequences over both priority classes and
#   max-cells quotas; slots and quota counts stay balanced, no worker
#   waits while a slot it may take is free, no batch worker is
#   granted a slot an interactive worker could take, and a worker
#   keeps its slot between cells only when no waiter could take it
#   first) and of the
#   memory manager (FuzzMemoryOps: tapes of Map, MapOne, Touch,
#   FreePagesOf, reclaim, KswapdStep and exit steps; every arena slot
#   stays on exactly one LRU list or index and the totals balance after
#   each step, and a Map's pages head their inactive list in reverse
#   mapping order), a
#   golden-file check on the Perfetto trace exporter, the scheme
#   byte-identity goldens (every registered policy scheme's fixed-seed
#   result hash), an icesimd smoke test (boot with a state dir,
#   health check, one cached job round-trip, the Prometheus exposition
#   on /metrics in both negotiated forms, SIGTERM drain, then a
#   restart on the same state dir that must serve the job
#   byte-identical from the persistent result store), a multi-node
#   smoke test (coordinator + two workers steal a job's chunks and
#   must match the single-node bytes, including after one worker is
#   SIGKILLed mid-rotation, with the chunk requeued; a worker booted
#   AFTER the coordinator must join at runtime and lease chunks from
#   an already-running job; a fresh coordinator submitting a fleet-warm
#   spec must answer from a peer's cache with zero locally simulated
#   cells; /fleet/metrics must carry every peer's series under peer
#   labels and flip the dead worker's ice_peer_up gauge to 0), an
#   auth smoke test (a token-file daemon must 401 unauthenticated
#   submits, round-trip an authenticated job, and 429 a submit that
#   overruns the principal's max-queued quota — while health and
#   metrics stay open), a code-version leg (two unstamped builds of
#   one tree that differ only in link flags must not share stored
#   results or fleet membership), and last a one-iteration benchmark
#   smoke pass (benchmarks must at least run; their cells/sec,
#   allocs/cell, B/cell, events/cell (simulation events dispatched per
#   cell, a work count that repeats exactly at 1x and is not gated) and
#   p50/p99 per-cell latency metrics are written to
#   BENCH_<n>.json — n derived from the highest committed snapshot, no
#   hand edit per change — and each benchmark's cells/sec is compared
#   against the previous snapshot: a >10% regression fails the gate). The bench step runs last because its snapshot may come from
#   a faster or quieter machine, where unchanged code can fail it; every
#   correctness leg has reported by then.
set -euo pipefail
cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
# icebench is its own module (replace ../), so the root ./... never
# compiles it; vetting it type-checks every file, tests included,
# against the current harness and service APIs.
(cd icebench && go vet ./...)
go build ./...
go test -race ./...

# Flake guard: the packages with real concurrency (the harness worker
# pool, the job manager and its sharding dispatcher) must pass twice in
# a row under the race detector. A scheduling-order dependence usually
# shows up on the second, cache-warm iteration.
go test -race -count=2 -timeout 20m ./internal/harness/ ./internal/service/

# A short fuzz of the one trust check on cached entries (decodeEntry):
# every disk read and every peer fetch goes through it. Needs no
# network; the fuzzer writes only to the Go cache (and, on a failure,
# the failing input under internal/service/testdata/fuzz/).
go test -run='^$' -fuzz='^FuzzDecodeEntry$' -fuzztime=10s ./internal/service/

# The same for the spec path every submitted job takes (decode,
# normalize, CacheKey): no panic, and a normalised spec normalises to
# itself with the same key, directly and after a JSON round trip.
go test -run='^$' -fuzz='^FuzzNormalize$' -fuzztime=10s ./internal/service/

# And for the exposition parser the coordinator runs on every peer's
# /metrics?format=prom body: no panic, and an accepted input re-rendered
# with WriteFamilies parses back to the same families. Minimising a new
# input derived from the 3.5 KB golden seed can take the fuzzer's
# default 60 s, which would eat the whole budget; 1 s keeps it fuzzing.
go test -run='^$' -fuzz='^FuzzParseProm$' -fuzztime=10s -fuzzminimizetime=1s ./internal/obs/

# And for the token file icesimd -auth-tokens reads at boot: no panic,
# and in an accepted file each line's token authenticates to the
# principal that line names, with a weight of at least 1.
go test -run='^$' -fuzz='^FuzzParseTokens$' -fuzztime=10s ./internal/tenant/

# And for the scheduler's burn rounds: from fuzzed task mixes, weight
# and speed policies, freezes, thaws, stalls and I/O blocks, a Drain
# run (which applies CPU-only rounds at once) and a Step-only run
# (which never does) must end with the same vruntimes, CPU times,
# stats, instrument values, trace spans and clock.
go test -run='^$' -fuzz='^FuzzBurnMatchesStep$' -fuzztime=10s ./internal/sched/

# And for the bodies of the fleet routes any caller may send a node
# started without -auth-tokens: /internal/cells (under a cancelled
# context, so no body starts a simulation), /internal/join and
# /internal/leave. No panic; a refused body changes no principal record,
# membership entry or registry series; every member has exactly its two
# per-peer series.
go test -run='^$' -fuzz='^FuzzInternalBodies$' -fuzztime=10s ./internal/service/

# And for the cell gate every locally executed cell passes: from fuzzed
# enter, release, keep, cancel and grant-observed steps over both
# priority classes and principals with and without max-cells, free plus
# held slots stay at the capacity, each quota counts exactly its holders
# and stays within its max, no worker waits while a slot is free and its
# quota has room, no batch worker is granted a slot while an
# interactive worker whose quota has room waits, and a worker keeps its
# slot between cells only when no waiter could take it first.
go test -run='^$' -fuzz='^FuzzCellGate$' -fuzztime=10s ./internal/service/

# And for the memory manager's page arena: from fuzzed tapes of Map,
# MapOne, Touch, FreePagesOf, ReclaimProcess, reclaim scans, KswapdStep,
# ExitProcess and transient allocations, physical pages stay conserved,
# every arena slot is Resident on exactly one LRU list, Evicted or Dead
# and sits in exactly one of the per-process index, its dead list and
# the free slots, and each Map leaves its pages at the head of their
# inactive list in reverse mapping order. As for FuzzParseProm, 1 s of
# minimising keeps a new input's minimisation from eating the budget.
go test -run='^$' -fuzz='^FuzzMemoryOps$' -fuzztime=10s -fuzzminimizetime=1s ./internal/mm/

# The Perfetto exporter's output is pinned byte-for-byte; a drift means
# the golden file needs a deliberate `go test ./internal/trace -update`.
go test -run=TestExportChromeGolden ./internal/trace/

# Scheme byte-identity: every registered policy scheme must reproduce its
# fixed-seed golden hash (internal/workload/golden_test.go). A drift here
# means a refactor changed simulation behaviour.
go test -run=TestSchemeGolden ./internal/workload/

# icesimd smoke: boot on a random port with a persistent state dir,
# health-check, run one tiny job twice (the second answer must come from
# the result cache), SIGTERM and require a clean drain — then restart
# the daemon on the same state dir and require the identical job to be
# served byte-identical from the disk store without re-simulating.
# ICESIMD_SMOKE_DIR keeps the smoke daemons' logs in a known place
# (the GitHub workflow uploads them as artifacts on failure); default
# is a throwaway temp dir.
if [ -n "${ICESIMD_SMOKE_DIR:-}" ]; then
    smokedir=$ICESIMD_SMOKE_DIR
    mkdir -p "$smokedir"
else
    smokedir=$(mktemp -d)
    trap 'rm -rf "$smokedir"' EXIT
fi
go build -o "$smokedir/icesimd" ./cmd/icesimd
icesimd_bin=$smokedir/icesimd

# boot_icesimd LOG [ARGS...] — start $icesimd_bin on a random port, wait
# for the definite port line, set $daemon (pid) and $addr (host:port).
boot_icesimd() {
    local log=$1; shift
    "$icesimd_bin" -addr 127.0.0.1:0 "$@" >"$log" &
    daemon=$!
    addr=""
    for _ in $(seq 1 50); do
        # The backgrounded daemon may not have created its log yet.
        addr=$(sed -n 's/^icesimd listening on //p' "$log" 2>/dev/null || true)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "icesimd ($log) never reported its port" >&2; cat "$log" >&2; exit 1; }
}

# wait_done URL JOB — block until the job's NDJSON stream reports done.
wait_done() {
    curl -sfN "$1/jobs/$2/stream" | tail -1 | grep '"state":"done"' >/dev/null
}

boot_icesimd "$smokedir/log" -state-dir "$smokedir/state"

curl -sf "http://$addr/healthz" | grep true >/dev/null
spec='{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":1,"seed":11}'
curl -sf -X POST "http://$addr/jobs" -d "$spec" >/dev/null
# The NDJSON stream ends when the job does.
wait_done "http://$addr" job-1
curl -sf "http://$addr/jobs/job-1/result" >"$smokedir/r1"
curl -sf -X POST "http://$addr/jobs" -d "$spec" | grep '"cached": true' >/dev/null
curl -sf "http://$addr/jobs/job-2/result" >"$smokedir/r2"
cmp -s "$smokedir/r1" "$smokedir/r2" || { echo "cached result not byte-identical" >&2; exit 1; }
curl -sf "http://$addr/metrics" | grep 'service.cache.hits' >/dev/null
curl -sf "http://$addr/healthz" | grep '"role": "node"' >/dev/null

# Prometheus exposition: both negotiated forms must serve typed series,
# and a completed job must have lit up the harness latency histogram
# and the folded sim.* aggregation.
curl -sf "http://$addr/metrics?format=prom" >"$smokedir/prom"
curl -sf -H 'Accept: text/plain; version=0.0.4' "http://$addr/metrics" >"$smokedir/prom.accept"
for f in "$smokedir/prom" "$smokedir/prom.accept"; do
    grep -q '^# TYPE ice_service_cache_hits_total counter$' "$f" \
        || { echo "exposition missing typed cache counter ($f)" >&2; cat "$f" >&2; exit 1; }
    grep -q '^# TYPE ice_harness_cell_us histogram$' "$f" \
        || { echo "exposition missing harness cell histogram ($f)" >&2; exit 1; }
    grep -q '^ice_sim_mm_reclaim_pages_total' "$f" \
        || { echo "exposition missing folded sim series ($f)" >&2; exit 1; }
done

kill -TERM "$daemon"
wait "$daemon" || { echo "icesimd did not drain cleanly" >&2; cat "$smokedir/log" >&2; exit 1; }
grep -q 'drained, bye' "$smokedir/log"

# Second boot on the same state dir: the job must be a disk-cache hit.
boot_icesimd "$smokedir/log2" -state-dir "$smokedir/state"
curl -sf "http://$addr/metrics" | grep 'service.store.loaded_at_boot' | grep ' 1$' >/dev/null \
    || { echo "restarted daemon did not load the stored entry" >&2; curl -sf "http://$addr/metrics" >&2; exit 1; }
curl -sf -X POST "http://$addr/jobs" -d "$spec" | grep '"cached": true' >/dev/null \
    || { echo "restarted daemon re-simulated instead of hitting the disk store" >&2; exit 1; }
curl -sf "http://$addr/jobs/job-1/result" >"$smokedir/r3"
cmp -s "$smokedir/r1" "$smokedir/r3" || { echo "disk-store result not byte-identical across restart" >&2; exit 1; }
curl -sf "http://$addr/metrics" | grep 'service.store.disk_hits' | grep ' 1$' >/dev/null \
    || { echo "disk hit not counted" >&2; exit 1; }
kill -TERM "$daemon"
wait "$daemon" || { echo "icesimd (restart) did not drain cleanly" >&2; cat "$smokedir/log2" >&2; exit 1; }
grep -q 'drained, bye' "$smokedir/log2"

# Multi-node smoke: two workers plus a coordinator shard a job's cell
# matrix across three daemons. The sharded payload must be
# byte-identical to a single-node run of the same spec — and must stay
# identical when a worker is SIGKILLed out of the rotation, because a
# failed chunk is re-dispatched or re-run locally.
boot_icesimd "$smokedir/w1.log" -role worker
w1=$addr; w1pid=$daemon
boot_icesimd "$smokedir/w2.log" -role worker
w2=$addr; w2pid=$daemon
# The long health interval freezes the coordinator's post-boot view of
# the cluster, which makes the SIGKILL case below deterministic: the
# dead worker stays in rotation until a dispatch to it fails.
boot_icesimd "$smokedir/coord.log" -peers "$w1,$w2" -health-interval 10m
coord=$addr; coordpid=$daemon

# The boot-time probe must admit both workers.
healthy=0
for _ in $(seq 1 50); do
    healthy=$(curl -sf "http://$coord/metrics" | grep 'service\.shard\.peer_healthy' | grep -c ' 1$' || true)
    [ "$healthy" -eq 2 ] && break
    sleep 0.1
done
[ "$healthy" -eq 2 ] || { echo "coordinator admitted $healthy of 2 workers" >&2; curl -sf "http://$coord/metrics" >&2; exit 1; }

# Fleet scrape surface: the coordinator re-exposes both live workers'
# series under peer labels with ice_peer_up 1 each.
curl -sf "http://$coord/fleet/metrics" >"$smokedir/fleet"
for w in "$w1" "$w2"; do
    grep "^ice_peer_up{" "$smokedir/fleet" | grep "peer=\"$w\"" | grep ' 1$' >/dev/null \
        || { echo "fleet scrape missing ice_peer_up 1 for $w" >&2; cat "$smokedir/fleet" >&2; exit 1; }
    grep "^ice_service_cache_hits_total{peer=\"$w\"" "$smokedir/fleet" >/dev/null \
        || { echo "fleet scrape missing $w's series" >&2; cat "$smokedir/fleet" >&2; exit 1; }
done
# Exactly one # TYPE line per family after the merge.
[ "$(grep -c '^# TYPE ice_service_cache_hits_total ' "$smokedir/fleet")" -eq 1 ] \
    || { echo "fleet scrape duplicated family headers" >&2; exit 1; }

# A 2-axis experiment (bg-count × round), sharded vs single-node. The
# sharded run goes first: the fleet is cold, so the coordinator's
# peer-cache probe misses and the job genuinely shards. (Running w1's
# single-node copy first would let the coordinator answer from w1's
# store instead of simulating — that path gets its own leg below.)
specA='{"kind":"experiment","experiment":"table1","fast":true}'
curl -sf -X POST "http://$coord/jobs" -d "$specA" >/dev/null
wait_done "http://$coord" job-1
curl -sf "http://$coord/jobs/job-1/result" >"$smokedir/sharded"
curl -sf -X POST "http://$w1/jobs" -d "$specA" >/dev/null
wait_done "http://$w1" job-1
curl -sf "http://$w1/jobs/job-1/result" >"$smokedir/single"
cmp -s "$smokedir/single" "$smokedir/sharded" \
    || { echo "sharded experiment result not byte-identical to single-node" >&2; exit 1; }
curl -sf "http://$coord/metrics" | grep 'service\.shard\.remote_cells' | awk '{ exit !($3 > 0) }' \
    || { echo "no cells executed remotely" >&2; curl -sf "http://$coord/metrics" >&2; exit 1; }
curl -sf "http://$coord/metrics" | grep 'service\.shard\.steals' | awk '{ exit !($3 > 0) }' \
    || { echo "no chunks stolen by workers" >&2; curl -sf "http://$coord/metrics" >&2; exit 1; }

# Late-join steal: a coordinator with NO workers starts a job, then a
# worker boots afterwards, announces itself with -join, and must lease
# chunks from the already-running job — the runtime-membership half of
# the work-stealing dispatcher. Single local worker + one-cell chunks
# keep plenty of stealable work around while the late worker boots.
specC='{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":10,"rounds":16,"seed":47}'
curl -sf -X POST "http://$w1/jobs" -d "$specC" >/dev/null
wait_done "http://$w1" job-2
curl -sf "http://$w1/jobs/job-2/result" >"$smokedir/single3"
boot_icesimd "$smokedir/coord2.log" -role coordinator -workers 1 -shard-chunk-cells 1
coord2=$addr; coord2pid=$daemon
curl -sf -X POST "http://$coord2/jobs" -d "$specC" >/dev/null
boot_icesimd "$smokedir/w3.log" -role worker -join "$coord2" -join-interval 0.2s
w3=$addr; w3pid=$daemon
wait_done "http://$coord2" job-1
curl -sf "http://$coord2/jobs/job-1/result" >"$smokedir/latejoin"
cmp -s "$smokedir/single3" "$smokedir/latejoin" \
    || { echo "late-join result not byte-identical to single-node" >&2; exit 1; }
curl -sf "http://$coord2/metrics" | grep 'service\.shard\.steals' | awk '{ exit !($3 > 0) }' \
    || { echo "late-joined worker leased no chunks" >&2; curl -sf "http://$coord2/metrics" >&2; exit 1; }
curl -sf "http://$coord2/metrics" | grep 'service\.fleet\.peer_joins' | awk '{ exit !($3 >= 1) }' \
    || { echo "runtime join not counted" >&2; exit 1; }
# The worker deregisters on drain, and the coordinator counts the leave.
kill -TERM "$w3pid"
wait "$w3pid" || { echo "late-join worker did not drain cleanly" >&2; cat "$smokedir/w3.log" >&2; exit 1; }
curl -sf "http://$coord2/metrics" | grep 'service\.fleet\.peer_leaves' | awk '{ exit !($3 >= 1) }' \
    || { echo "worker leave not counted" >&2; curl -sf "http://$coord2/metrics" >&2; exit 1; }
kill -TERM "$coord2pid"
wait "$coord2pid" || { echo "late-join coordinator did not drain cleanly" >&2; cat "$smokedir/coord2.log" >&2; exit 1; }

# Fleet-warm cache: a FRESH coordinator (empty memory and disk tiers)
# submitting the spec w1 already computed must answer from w1's store —
# verified end to end via the integrity header — as a cached job with
# zero locally simulated cells, byte-identical.
boot_icesimd "$smokedir/coord3.log" -peers "$w1"
coord3=$addr; coord3pid=$daemon
for _ in $(seq 1 50); do
    h=$(curl -sf "http://$coord3/metrics" | grep 'service\.shard\.peer_healthy' | grep -c ' 1$' || true)
    [ "$h" -eq 1 ] && break
    sleep 0.1
done
curl -sf -X POST "http://$coord3/jobs" -d "$specA" | grep '"cached": true' >/dev/null \
    || { echo "fleet-warm submit did not come back cached" >&2; exit 1; }
curl -sf "http://$coord3/jobs/job-1/result" >"$smokedir/peercached"
cmp -s "$smokedir/single" "$smokedir/peercached" \
    || { echo "peer-cache result not byte-identical to single-node" >&2; exit 1; }
curl -sf "http://$coord3/metrics" | grep 'service\.cache\.peer_hits' | awk '{ exit !($3 >= 1) }' \
    || { echo "peer-cache hit not counted" >&2; curl -sf "http://$coord3/metrics" >&2; exit 1; }
curl -sf "http://$coord3/metrics" | grep 'harness\.cell_us' | grep -q 'count=0 ' \
    || { echo "fleet-warm coordinator simulated cells locally" >&2; curl -sf "http://$coord3/metrics" >&2; exit 1; }
kill -TERM "$coord3pid"
wait "$coord3pid" || { echo "warm-cache coordinator did not drain cleanly" >&2; cat "$smokedir/coord3.log" >&2; exit 1; }

# SIGKILL one worker, then shard a fresh job through the stale
# rotation: the dispatch to the dead worker must fail over without
# changing a byte of the result.
# The sharded run again goes first (cold fleet → the peer-cache probe
# misses and the job really dispatches into the stale rotation).
specB='{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":6,"seed":23,"trace":true}'
kill -9 "$w2pid"
curl -sf -X POST "http://$coord/jobs" -d "$specB" >/dev/null
wait_done "http://$coord" job-2
curl -sf "http://$coord/jobs/job-2/result" >"$smokedir/sharded2"
curl -sf "http://$coord/jobs/job-2/trace" >"$smokedir/sharded2.trace"
curl -sf -X POST "http://$w1/jobs" -d "$specB" >/dev/null
wait_done "http://$w1" job-3
curl -sf "http://$w1/jobs/job-3/result" >"$smokedir/single2"
curl -sf "http://$w1/jobs/job-3/trace" >"$smokedir/single2.trace"
cmp -s "$smokedir/single2" "$smokedir/sharded2" \
    || { echo "result changed after SIGKILLed worker" >&2; exit 1; }
cmp -s "$smokedir/single2.trace" "$smokedir/sharded2.trace" \
    || { echo "trace changed after SIGKILLed worker" >&2; exit 1; }
curl -sf "http://$coord/metrics" | grep 'service\.shard\.peer_failures' | awk '{ exit !($3 >= 1) }' \
    || { echo "dead-worker dispatch failure not counted" >&2; curl -sf "http://$coord/metrics" >&2; exit 1; }
curl -sf "http://$coord/metrics" | grep 'service\.shard\.requeues' | awk '{ exit !($3 >= 1) }' \
    || { echo "dead worker's chunk not requeued" >&2; curl -sf "http://$coord/metrics" >&2; exit 1; }

# The dead worker flatlines on the fleet surface — ice_peer_up 0, the
# live worker still 1, and no scrape error.
curl -sf "http://$coord/fleet/metrics" >"$smokedir/fleet2"
grep "^ice_peer_up{" "$smokedir/fleet2" | grep "peer=\"$w2\"" | grep ' 0$' >/dev/null \
    || { echo "SIGKILLed worker not reported as ice_peer_up 0" >&2; cat "$smokedir/fleet2" >&2; exit 1; }
grep "^ice_peer_up{" "$smokedir/fleet2" | grep "peer=\"$w1\"" | grep ' 1$' >/dev/null \
    || { echo "live worker lost its ice_peer_up 1" >&2; cat "$smokedir/fleet2" >&2; exit 1; }

kill -TERM "$coordpid"
wait "$coordpid" || { echo "coordinator did not drain cleanly" >&2; cat "$smokedir/coord.log" >&2; exit 1; }
kill -TERM "$w1pid"
wait "$w1pid" || { echo "worker 1 did not drain cleanly" >&2; cat "$smokedir/w1.log" >&2; exit 1; }
wait "$w2pid" 2>/dev/null || true  # SIGKILLed above

# Auth smoke: a token-file daemon must reject unauthenticated and
# wrong-token submits with 401 (health and metrics stay open), serve an
# authenticated round-trip, and answer a submit that overruns the
# principal's max-queued quota with 429.
cat >"$smokedir/tokens" <<'EOF'
tok-alice alice weight=4
tok-bob   bob   weight=1 max-queued=1
EOF
boot_icesimd "$smokedir/auth.log" -auth-tokens "$smokedir/tokens" -max-jobs 1
authpid=$daemon

# status METHOD URL [CURL_ARGS...] — HTTP status code only.
status() {
    local method=$1 url=$2; shift 2
    curl -s -o /dev/null -w '%{http_code}' -X "$method" "$@" "$url"
}

[ "$(status POST "http://$addr/jobs" -d "$spec")" = 401 ] \
    || { echo "unauthenticated submit not rejected with 401" >&2; exit 1; }
[ "$(status POST "http://$addr/jobs" -H 'Authorization: Bearer tok-wrong' -d "$spec")" = 401 ] \
    || { echo "wrong-token submit not rejected with 401" >&2; exit 1; }
curl -sf "http://$addr/healthz" | grep true >/dev/null
curl -sf "http://$addr/metrics" | grep 'service.tenant.auth_failures' >/dev/null

# Authenticated round-trip: submit as alice, stream to completion, read
# the result, and require the job view to carry the principal.
curl -sf -X POST "http://$addr/jobs" -H 'Authorization: Bearer tok-alice' -d "$spec" \
    | grep '"principal": "alice"' >/dev/null
wait_done "http://$addr" job-1
curl -sf "http://$addr/jobs/job-1/result" >"$smokedir/auth.r1"
cmp -s "$smokedir/r1" "$smokedir/auth.r1" \
    || { echo "authenticated result differs from the open-daemon bytes" >&2; exit 1; }

# Quota: with -max-jobs 1, bob's first long job runs, his second queues
# (max-queued=1), and the third must bounce with 429.
slow='{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":12,"seed":31,"priority":"batch"}'
slow2='{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":12,"seed":37,"priority":"batch"}'
slow3='{"kind":"run","device":"Pixel3","scenario":"S-C","scheme":"Ice","duration_sec":2,"rounds":12,"seed":41,"priority":"batch"}'
[ "$(status POST "http://$addr/jobs" -H 'Authorization: Bearer tok-bob' -d "$slow")" = 202 ] \
    || { echo "bob's first submit rejected" >&2; exit 1; }
[ "$(status POST "http://$addr/jobs" -H 'Authorization: Bearer tok-bob' -d "$slow2")" = 202 ] \
    || { echo "bob's second submit rejected" >&2; exit 1; }
[ "$(status POST "http://$addr/jobs" -H 'Authorization: Bearer tok-bob' -d "$slow3")" = 429 ] \
    || { echo "bob's over-quota submit not rejected with 429" >&2; exit 1; }
curl -sf "http://$addr/metrics" | grep 'service.tenant.rejected.bob' | grep ' 1$' >/dev/null \
    || { echo "quota rejection not attributed to bob" >&2; curl -sf "http://$addr/metrics" >&2; exit 1; }

kill -TERM "$authpid"
wait "$authpid" || { echo "auth daemon did not drain cleanly" >&2; cat "$smokedir/auth.log" >&2; exit 1; }

# Code-version leg: two unstamped builds of one tree that differ only
# in their link flags are different programs, so neither may serve the
# other's stored results or join the other's fleet. B, booted on A's
# state dir, must load none of A's entries; A, as coordinator, must
# answer a join carrying B's version with 409.
go build -buildvcs=false -ldflags=-X=main.buildNote=a -o "$smokedir/icesimd-a" ./cmd/icesimd
go build -buildvcs=false -ldflags=-X=main.buildNote=b -o "$smokedir/icesimd-b" ./cmd/icesimd
if cmp -s "$smokedir/icesimd-a" "$smokedir/icesimd-b"; then
    echo "version-leg builds are byte-identical" >&2; exit 1
fi
icesimd_bin=$smokedir/icesimd-a
boot_icesimd "$smokedir/va.log" -state-dir "$smokedir/vstate"
curl -sf -X POST "http://$addr/jobs" -d "$spec" >/dev/null
wait_done "http://$addr" job-1
kill -TERM "$daemon"
wait "$daemon" || { echo "build A did not drain cleanly" >&2; cat "$smokedir/va.log" >&2; exit 1; }
icesimd_bin=$smokedir/icesimd-b
boot_icesimd "$smokedir/vb.log" -state-dir "$smokedir/vstate"
vb=$addr; vbpid=$daemon
curl -sf "http://$vb/metrics" | grep 'service.store.loaded_at_boot' | grep ' 0$' >/dev/null \
    || { echo "build B loaded build A's stored entries" >&2; curl -sf "http://$vb/metrics" >&2; exit 1; }
vbversion=$(curl -sf "http://$vb/healthz" | sed -n 's/.*"version": "\([^"]*\)".*/\1/p')
case "$vbversion" in
    dev+*) ;;
    *) echo "unstamped build B reports version \"$vbversion\", want dev+<executable hash>" >&2; exit 1 ;;
esac
icesimd_bin=$smokedir/icesimd-a
boot_icesimd "$smokedir/va2.log" -role coordinator
vapid=$daemon
[ "$(status POST "http://$addr/internal/join" -d "{\"addr\":\"$vb\",\"version\":\"$vbversion\"}")" = 409 ] \
    || { echo "build A's coordinator did not refuse build B's join with 409" >&2; exit 1; }
for pid in "$vapid" "$vbpid"; do
    kill -TERM "$pid"
    wait "$pid" || { echo "version-leg daemon $pid did not drain cleanly" >&2; exit 1; }
done

# Benchmarks stay runnable: one iteration each, no timing claims — and
# their cells/sec + allocs/cell + B/cell + events/cell + per-cell latency percentile metrics
# are snapshotted into BENCH_<n>.json so the perf trajectory the
# ROADMAP asks for accumulates one file per change. The snapshot number
# is derived from the highest BENCH snapshot already committed (so a
# re-run never bumps it), and each benchmark's cells/sec is compared
# against that previous snapshot: a drop of more than 10% fails the
# gate, so a hot-path regression can't land silently. The 1x runs are
# noisy; 10% is wide enough that only a real regression (not
# scheduling jitter) trips it. It runs after every golden and icesimd
# leg, so a slower host failing it cannot hide their results.
benchprev=$( (git ls-files 'BENCH_*.json' 2>/dev/null || ls BENCH_*.json 2>/dev/null) \
    | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -1)
benchcur=$(( ${benchprev:-0} + 1 ))
echo "bench snapshot: BENCH_${benchcur}.json (previous: ${benchprev:-none})"
benchout=$(mktemp)
go test -run='^$' -bench=. -benchtime=1x ./... | tee "$benchout"
awk '
BEGIN { print "[" }
/^Benchmark/ {
    name=$1; sub(/-[0-9]+$/, "", name)
    cells=""; allocs=""; p50=""; p99=""; bytes=""; events=""
    for (i = 2; i <= NF; i++) {
        if ($i == "cells/sec")   cells = $(i-1)
        if ($i == "allocs/cell") allocs = $(i-1)
        if ($i == "p50_cell_us") p50 = $(i-1)
        if ($i == "p99_cell_us") p99 = $(i-1)
        if ($i == "B/cell")      bytes = $(i-1)
        if ($i == "events/cell") events = $(i-1)
    }
    if (cells != "") {
        if (n++) printf ",\n"
        printf "  {\"bench\": \"%s\", \"cells_per_sec\": %s, \"allocs_per_cell\": %s, \"p50_cell_us\": %s, \"p99_cell_us\": %s, \"bytes_per_cell\": %s, \"events_per_cell\": %s}", \
            name, cells, (allocs == "" ? "null" : allocs), \
            (p50 == "" ? "null" : p50), (p99 == "" ? "null" : p99), \
            (bytes == "" ? "null" : bytes), (events == "" ? "null" : events)
    }
}
END { print "\n]" }
' "$benchout" > "BENCH_${benchcur}.json"
rm -f "$benchout"
grep -q cells_per_sec "BENCH_${benchcur}.json" || { echo "BENCH_${benchcur}.json has no bench rows" >&2; exit 1; }
grep -q p99_cell_us "BENCH_${benchcur}.json" || { echo "BENCH_${benchcur}.json has no per-cell latency column" >&2; exit 1; }

if [ -n "$benchprev" ] && [ -f "BENCH_${benchprev}.json" ]; then
    awk '
    FNR == 1 { file++ }
    /"bench"/ {
        name = $0; sub(/.*"bench": "/, "", name); sub(/".*/, "", name)
        cps = $0; sub(/.*"cells_per_sec": /, "", cps); sub(/,.*/, "", cps)
        if (file == 1) prev[name] = cps + 0
        else           cur[name] = cps + 0
    }
    END {
        bad = 0
        for (name in cur) {
            if (!(name in prev) || prev[name] <= 0) continue
            if (cur[name] < 0.9 * prev[name]) {
                printf "%-28s %12.3f -> %12.3f cells/sec (%.0f%%): regression >10%%\n", \
                    name, prev[name], cur[name], 100 * cur[name] / prev[name] >> "/dev/stderr"
                bad = 1
            }
        }
        exit bad
    }
    ' "BENCH_${benchprev}.json" "BENCH_${benchcur}.json" \
        || { echo "benchmark throughput regressed >10% vs BENCH_${benchprev}.json" >&2; exit 1; }
fi

echo "ci.sh: all checks passed"
