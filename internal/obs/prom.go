// prom.go renders a Snapshot in the Prometheus text exposition format
// (version 0.0.4), the lingua franca every scrape-based monitoring
// stack speaks. The mapping is mechanical and read-only:
//
//   - counters export as "ice_<name>_total" with TYPE counter,
//   - gauges export as "ice_<name>" with TYPE gauge,
//   - log2 histograms export as cumulative le-bucketed Prometheus
//     histograms: bucket i of a Histogram holds observations v with
//     upper edge 2^i − 1 exactly (bucket 0 is v == 0), so the le
//     edges are exact, not resampled — plus "_sum" and "_count",
//
// with instrument names sanitised "." → "_", a collision check on the
// final series names, "# HELP"/"# TYPE" lines from the help registry,
// and deterministic output order (families sorted by exported name,
// samples sorted by label value). Dynamic-suffix instruments — series
// a component registers per peer, per route, per codec — are folded
// into one labelled family by PromRules, which is how the label-free
// hot-path registry meets Prometheus's label model.
//
// PromFamily is the one model of an exposition: PromFamilies builds it
// from a snapshot, ParseProm from text, and WriteFamilies is the one
// writer of either.
package obs

import (
	"fmt"
	"io"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promNamePrefix prefixes every exported family name.
const promNamePrefix = "ice_"

// PromLabel is one label pair. Values are escaped at render time; keys
// must match the Prometheus label-name grammar.
type PromLabel struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// PromRule folds a dynamic-suffix instrument family into one labelled
// series: an instrument named Prefix+"<suffix>" renders as the family
// named after Prefix (trailing "." trimmed, then sanitised) with
// Label="<suffix>". This is the bridge between the registry's label-free
// naming ("service.shard.peer_inflight.<addr>") and Prometheus's label
// model (ice_service_shard_peer_inflight{peer="<addr>"}).
type PromRule struct {
	// Prefix is the instrument-name prefix, conventionally ending in
	// ".". The matched suffix must be non-empty.
	Prefix string
	// Label is the label key that receives the suffix.
	Label string
}

// PromOptions configures one exposition rendering.
type PromOptions struct {
	// ConstLabels are applied to every sample, in order (role, node).
	ConstLabels []PromLabel
	// Rules extract dynamic suffixes into labels; the first matching
	// rule wins.
	Rules []PromRule
}

// promHelp is the help registry: instrument name (or PromRule family
// base name) → HELP text. Unknown names fall back to the instrument
// name itself.
var promHelp = map[string]string{
	// Simulator series (per-device registries, aggregated by the daemon
	// under the "sim." prefix).
	"mm.reclaim.pages":           "Pages reclaimed from app working sets.",
	"mm.reclaim.scans":           "LRU pages scanned by reclaim.",
	"mm.refault.pages":           "Reclaimed pages faulted back in (refaults).",
	"mm.refault.fg":              "Refaults taken by the foreground app.",
	"mm.refault.bg":              "Refaults taken by background apps.",
	"mm.refault.file":            "Refaults of file-backed pages.",
	"mm.refault.anon_java":       "Refaults of Java-heap anonymous pages.",
	"mm.refault.anon_native":     "Refaults of native anonymous pages.",
	"mm.writeback.pages":         "Dirty file pages written back by reclaim.",
	"mm.zram.rejects":            "Reclaim attempts bounced off a full zram.",
	"mm.kswapd.wakeups":          "Background reclaim (kswapd) wakeups.",
	"mm.direct_reclaim.episodes": "Allocations that entered direct reclaim.",
	"mm.direct_reclaim.stall_us": "Direct-reclaim stall time per episode.",
	"mm.lock.wait_us":            "mmap/LRU lock wait time.",
	"mm.thrash.stall_us":         "Thrashing (refault storm) stall time.",
	"io.pages_read":              "Pages read from flash.",
	"io.pages_written":           "Pages written to flash.",
	"io.read.queue_wait_us":      "Flash read queue wait time.",
	"io.write.backlog_us":        "Outstanding flash write backlog.",
	"zram.stored.pages":          "Pages compressed into zram.",
	"zram.loaded.pages":          "Pages decompressed out of zram.",
	"zram.rejected.full":         "Stores rejected because zram was full.",
	"zram.stored_pages":          "Logical pages currently held in zram.",
	"zram.footprint_pages":       "Physical pages zram occupies.",
	"zram.compress_us":           "Per-page compression latency.",
	"zram.decompress_us":         "Per-page decompression latency.",
	"zram.stores":                "Pages compressed into zram, by codec.",
	"sched.quanta":               "Scheduler quanta executed, by task class.",
	"sched.runqueue.depth":       "Runnable tasks on the CPU runqueue.",
	"freezer.freeze.procs":       "Processes frozen by the freezer cgroup.",
	"freezer.thaw.procs":         "Processes thawed by the freezer cgroup.",
	"freezer.frozen_apps":        "Apps currently frozen.",
	"freezer.frozen_us":          "Time apps spent frozen, per freeze episode.",
	"frame.drops":                "UI frames dropped.",
	"frame.latency_us":           "UI frame latency.",
	"launch.cold_us":             "Cold app-launch latency.",
	"launch.hot_us":              "Hot app-launch latency.",
	"lmk.kills":                  "Low-memory-killer victims.",
	"ice.freeze_actions":         "ICE freeze decisions taken.",
	"ice.thaw_actions":           "ICE thaw decisions taken.",
	"ice.whitelist_hits":         "ICE refault-whitelist hits.",
	"ice.intensity_r":            "ICE reclaim intensity R.",
	"ice.ef_us":                  "ICE freeze-efficiency window Ef.",
	"ice.frozen_set":             "Apps in ICE's frozen set.",
	"ice.table_bytes":            "ICE metadata table footprint.",

	// Daemon (icesimd) service series.
	"service.jobs.submitted":             "Jobs submitted to the daemon.",
	"service.jobs.completed":             "Jobs finished in state done.",
	"service.jobs.failed":                "Jobs finished in state failed.",
	"service.jobs.cancelled":             "Jobs finished in state cancelled.",
	"service.jobs.running":               "Jobs simulating right now.",
	"service.jobs.queued":                "Jobs waiting for a running slot.",
	"service.jobs.retained":              "Terminal jobs retained for /jobs.",
	"service.cache.hits":                 "Result-cache memory hits.",
	"service.cache.misses":               "Result-cache memory misses.",
	"service.cache.evictions":            "Result-cache LRU evictions.",
	"service.cache.entries":              "Result-cache entries resident.",
	"service.cache.peer_hits":            "Local misses answered by a peer's verified cache entry.",
	"service.cache.peer_misses":          "Local misses no peer could answer.",
	"service.cache.peer_served":          "Cache entries served to peers.",
	"service.store.disk_hits":            "Disk-store hits (verified and promoted).",
	"service.store.disk_misses":          "Disk-store misses.",
	"service.store.evictions":            "Disk-store byte-budget evictions.",
	"service.store.corrupt_quarantined":  "Disk entries quarantined as corrupt.",
	"service.store.write_errors":         "Disk-store write failures.",
	"service.store.oversize_skipped":     "Payloads larger than the whole byte budget.",
	"service.store.loaded_at_boot":       "Entries indexed by the boot scan.",
	"service.store.bytes":                "Disk-store payload bytes resident.",
	"service.store.entries":              "Disk-store entries resident.",
	"service.shard.remote_cells":         "Cells executed remotely.",
	"service.shard.steals":               "Chunks completed by a remote peer via work stealing.",
	"service.shard.leases":               "Chunks leased to remote peers.",
	"service.shard.requeues":             "Leased chunks requeued after a failed dispatch.",
	"service.shard.peer_failures":        "Chunk dispatches that failed on a peer.",
	"service.shard.served":               "Cell-range requests served (worker).",
	"service.shard.served_cells":         "Cells executed for coordinators (worker).",
	"service.shard.peer_inflight":        "Chunks in flight to the peer.",
	"service.shard.peer_healthy":         "Peer health (1 in rotation, 0 out).",
	"service.fleet.peer_joins":           "Workers admitted via POST /internal/join.",
	"service.fleet.peer_leaves":          "Runtime-joined workers removed (leave or liveness pruning).",
	"service.fleet.peers":                "Current fleet membership size.",
	"service.http.requests":              "HTTP requests served, by route.",
	"service.http.errors":                "HTTP responses with status >= 400, by route.",
	"service.http.latency_us":            "HTTP request latency, by route.",
	"service.sched.preemptions":          "Running batch jobs preempted for interactive work.",
	"service.sched.requeues":             "Preempted jobs requeued for resume.",
	"service.tenant.auth_failures":       "Requests rejected for a missing or unknown bearer token.",
	"service.tenant.cache_quota_skipped": "Results not persisted because the principal exceeded its cache-bytes quota.",
	"service.tenant.submitted":           "Jobs submitted, by principal.",
	"service.tenant.rejected":            "Submissions rejected by a queue bound or quota, by principal.",
	"service.tenant.preempted":           "Times the principal's batch jobs were preempted.",
	"service.tenant.queued_jobs":         "The principal's jobs waiting in the fair scheduler.",
	"service.tenant.running_jobs":        "The principal's jobs simulating right now.",
	"service.tenant.cache_bytes":         "Result-cache bytes attributed to the principal.",
	"harness.cell_us":                    "Wall-clock latency of locally executed simulation cells.",
	"process.uptime_seconds":             "Daemon uptime.",
	"process.goroutines":                 "Goroutines live in the daemon process.",
	"process.heap_bytes":                 "Go heap bytes in use.",
	"process.gc_cycles":                  "Garbage-collection cycles completed.",
	"process.gc_pause_us":                "Stop-the-world GC pause duration.",
}

// helpFor resolves the HELP text for a source instrument/family name.
// Daemon-aggregated simulator series carry a "sim." prefix over the
// per-device name; those inherit the per-device help text.
func helpFor(name string) string {
	if h, ok := promHelp[name]; ok {
		return h
	}
	if rest, ok := strings.CutPrefix(name, "sim."); ok {
		if h, ok := promHelp[rest]; ok {
			return h + " Aggregated over locally executed cells."
		}
	}
	return name
}

// instrumentNameRE is the grammar instrument names must satisfy so that
// "." → "_" sanitation yields a valid Prometheus series name. Dynamic
// suffixes captured by a PromRule (peer addresses, routes) are exempt —
// they become label values, which are free-form.
var instrumentNameRE = regexp.MustCompile(`^[a-z][a-z0-9_.]*$`)

// promNameRE is the (lowercase) Prometheus series-name grammar the
// sanitised names must land in.
var promNameRE = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)

// sanitizeName maps an instrument name onto a Prometheus name fragment.
func sanitizeName(name string) string {
	return strings.ReplaceAll(name, ".", "_")
}

// splitRule resolves an instrument name against the rules: the exported
// base name (pre-sanitation, pre-prefix) and the extracted label, if
// any.
func splitRule(name string, rules []PromRule) (base string, label *PromLabel) {
	for _, r := range rules {
		if strings.HasPrefix(name, r.Prefix) && len(name) > len(r.Prefix) {
			return strings.TrimSuffix(r.Prefix, "."), &PromLabel{Key: r.Label, Value: name[len(r.Prefix):]}
		}
	}
	return name, nil
}

// PromFamilies maps a snapshot onto the families of its exposition, in
// exactly the form ParseProm reads back from the text WriteProm renders:
// families sorted by name; each sample with its final series name
// (histograms add _bucket, _sum and _count), its full label list (the
// const labels, then the rule label, then le) and its formatted value;
// Help escaped as written. An error means the snapshot cannot be
// exported: an instrument name outside the grammar that no rule
// covers, or two instruments whose series names collide.
func PromFamilies(snap Snapshot, opts PromOptions) ([]PromFamily, error) {
	// member is one instrument's samples, ordered within its family by
	// the rule label's value ("" for a plain instrument).
	type member struct {
		key     string
		samples []PromSample
	}
	type family struct {
		PromFamily
		members []member
	}
	byName := map[string]*family{}
	// reserved maps every final series name (histogram children
	// included) to the family that owns it, so cross-kind collisions
	// ("x" histogram vs "x.count" gauge) are caught too.
	reserved := map[string]string{}

	add := func(srcName, kind string, render func(name string, labels []PromLabel) []PromSample) error {
		base, label := splitRule(srcName, opts.Rules)
		if !instrumentNameRE.MatchString(base) {
			return fmt.Errorf("obs: instrument %q: name %q is not exportable (want %s or a PromRule)", srcName, base, instrumentNameRE)
		}
		final := promNamePrefix + sanitizeName(base)
		if kind == "counter" {
			final += "_total"
		}
		if !promNameRE.MatchString(final) {
			return fmt.Errorf("obs: instrument %q: exported name %q is invalid", srcName, final)
		}
		fam := byName[final]
		if fam == nil {
			names := []string{final}
			if kind == "histogram" {
				names = append(names, final+"_bucket", final+"_sum", final+"_count")
			}
			for _, n := range names {
				if owner, taken := reserved[n]; taken {
					return fmt.Errorf("obs: series name collision: %q (from %q) already emitted by family %q", n, srcName, owner)
				}
				reserved[n] = final
			}
			fam = &family{PromFamily: PromFamily{Name: final, Type: kind, Help: escapeHelp(helpFor(base))}}
			byName[final] = fam
		}
		if fam.Type != kind {
			return fmt.Errorf("obs: series name collision: %q is both %s and %s", final, fam.Type, kind)
		}
		if label == nil && len(fam.members) > 0 {
			// Two distinct instruments can only share a family through a
			// rule (which labels them apart).
			return fmt.Errorf("obs: series name collision on %q (instrument %q)", final, srcName)
		}
		labels := append([]PromLabel(nil), opts.ConstLabels...)
		var key string
		if label != nil {
			labels = append(labels, *label)
			key = label.Value
		}
		fam.members = append(fam.members, member{key: key, samples: render(final, labels)})
		return nil
	}

	for _, c := range snap.Counters {
		v := strconv.FormatUint(c.Value, 10)
		if err := add(c.Name, "counter", func(name string, labels []PromLabel) []PromSample {
			return []PromSample{{Name: name, Labels: labels, Value: v}}
		}); err != nil {
			return nil, err
		}
	}
	for _, g := range snap.Gauges {
		v := strconv.FormatInt(g.Value, 10)
		if err := add(g.Name, "gauge", func(name string, labels []PromLabel) []PromSample {
			return []PromSample{{Name: name, Labels: labels, Value: v}}
		}); err != nil {
			return nil, err
		}
	}
	for _, h := range snap.Hists {
		if err := add(h.Name, "histogram", func(name string, labels []PromLabel) []PromSample {
			return histSamples(name, labels, h)
		}); err != nil {
			return nil, err
		}
	}

	var out []PromFamily
	for _, fam := range byName {
		sort.SliceStable(fam.members, func(i, j int) bool { return fam.members[i].key < fam.members[j].key })
		for _, m := range fam.members {
			fam.Samples = append(fam.Samples, m.samples...)
		}
		out = append(out, fam.PromFamily)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// histSamples expands one histogram into its cumulative le buckets,
// _sum and _count. Bucket i's exact upper edge is 2^i − 1 (bucket 0
// holds v == 0). The last bucket clamps, so its edge is not exact and
// folds into +Inf instead.
func histSamples(name string, labels []PromLabel, h HistSample) []PromSample {
	labels = slices.Clip(labels) // each bucket appends its own le
	out := make([]PromSample, 0, HistBuckets+2)
	bucket := func(le string, cum uint64) {
		out = append(out, PromSample{
			Name:   name + "_bucket",
			Labels: append(labels, PromLabel{Key: "le", Value: le}),
			Value:  strconv.FormatUint(cum, 10),
		})
	}
	var cum uint64
	for i := 0; i < HistBuckets-1; i++ {
		cum += h.Buckets[i]
		bucket(strconv.FormatUint(1<<uint(i)-1, 10), cum)
	}
	bucket("+Inf", h.Count)
	return append(out,
		PromSample{Name: name + "_sum", Labels: labels, Value: strconv.FormatInt(h.Sum, 10)},
		PromSample{Name: name + "_count", Labels: labels, Value: strconv.FormatUint(h.Count, 10)})
}

// escapeLabel escapes a label value per the exposition grammar.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes a HELP text per the exposition grammar.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): PromFamilies, written by WriteFamilies.
// Output is deterministic for a given snapshot and options. An error
// means the snapshot cannot be exported (invalid instrument name or a
// series-name collision) and nothing was written.
func WriteProm(w io.Writer, snap Snapshot, opts PromOptions) error {
	fams, err := PromFamilies(snap, opts)
	if err != nil {
		return err
	}
	return WriteFamilies(w, fams)
}
