package service

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeKey builds a syntactically valid (hex, 64-char) cache key for
// direct diskStore tests.
func fakeKey(seed byte) string {
	return strings.Repeat(string([]byte{"0123456789abcdef"[seed%16]}), 64)
}

func mustOpenStore(t *testing.T, dir string, budget int64) (*diskStore, storeBootStats) {
	t.Helper()
	s, boot, err := openDiskStore(dir, budget, "test-v1")
	if err != nil {
		t.Fatal(err)
	}
	return s, boot
}

// TestDiskStoreRoundTripAndRestart: entries written by one store are
// served byte-identical by a fresh store on the same directory.
func TestDiskStoreRoundTripAndRestart(t *testing.T) {
	dir := t.TempDir()
	s, boot := mustOpenStore(t, dir, 1<<20)
	if boot.Loaded != 0 || boot.Quarantined != 0 {
		t.Fatalf("fresh dir boot stats %+v", boot)
	}
	key := fakeKey(1)
	entry := cacheEntry{result: []byte(`{"fps":42}`), trace: []byte(`{"traceEvents":[]}`)}
	if _, _, err := s.put(key, entry); err != nil {
		t.Fatal(err)
	}
	got, ok, corrupt := s.get(key)
	if !ok || corrupt || !bytes.Equal(got.result, entry.result) || !bytes.Equal(got.trace, entry.trace) {
		t.Fatalf("same-process get: ok=%v corrupt=%v", ok, corrupt)
	}

	s2, boot2 := mustOpenStore(t, dir, 1<<20)
	if boot2.Loaded != 1 || boot2.LoadedBytes != int64(len(entry.result)+len(entry.trace)) {
		t.Fatalf("restart boot stats %+v", boot2)
	}
	got, ok, corrupt = s2.get(key)
	if !ok || corrupt || !bytes.Equal(got.result, entry.result) || !bytes.Equal(got.trace, entry.trace) {
		t.Fatalf("restart get: ok=%v corrupt=%v result=%q", ok, corrupt, got.result)
	}
	// Untraced entries keep the nil-means-untraced convention.
	key2 := fakeKey(2)
	s2.put(key2, cacheEntry{result: []byte(`{}`)})
	s3, _ := mustOpenStore(t, dir, 1<<20)
	if got, ok, _ := s3.get(key2); !ok || got.trace != nil {
		t.Fatalf("untraced entry came back with trace %v", got.trace)
	}
}

// TestDiskStoreCorruptionQuarantined: a bit-flipped payload is detected
// by the checksum, moved to corrupt/, and reported as a miss.
func TestDiskStoreCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpenStore(t, dir, 1<<20)
	key := fakeKey(3)
	if _, _, err := s.put(key, cacheEntry{result: []byte(`{"mean_fps":59.9}`)}); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in place; the size stays consistent with
	// the header, so only the checksum can catch it.
	path := s.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, boot := mustOpenStore(t, dir, 1<<20)
	if boot.Quarantined != 0 { // size is intact; boot scan can't see it
		t.Fatalf("boot quarantined %d before any read", boot.Quarantined)
	}
	if _, ok, corrupt := s2.get(key); ok || !corrupt {
		t.Fatalf("corrupted entry: ok=%v corrupt=%v, want miss+corrupt", ok, corrupt)
	}
	if _, ok, corrupt := s2.get(key); ok || corrupt {
		t.Fatal("quarantined entry still indexed on second get")
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "corrupt", "*"))
	if len(quarantined) != 1 {
		t.Fatalf("corrupt/ holds %d files, want 1", len(quarantined))
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupted entry still at its cache path")
	}
	// The key is re-storable after re-simulation.
	if _, _, err := s2.put(key, cacheEntry{result: []byte(`{"mean_fps":59.9}`)}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.get(key); !ok {
		t.Fatal("re-stored entry not served")
	}
}

// TestDiskStoreTruncationQuarantinedAtBoot: a file cut short at any
// offset (the SIGKILL-shaped failure a non-atomic writer would leave)
// is caught by the boot scan and quarantined before it can be indexed,
// and decodeEntry, the peer path's trust check, rejects the same bytes.
// The entry holds a 64-byte result and a 32-byte trace, so the proper
// prefixes cut the header line, the result and the trace; the whole
// entry is the control that must load and serve.
func TestDiskStoreTruncationQuarantinedAtBoot(t *testing.T) {
	key := fakeKey(4)
	full := encodeEntry(key, "test-v1", cacheEntry{
		result: bytes.Repeat([]byte("r"), 64),
		trace:  bytes.Repeat([]byte("t"), 32),
	})
	for n := 0; n <= len(full); n++ {
		dir := t.TempDir()
		s, _ := mustOpenStore(t, dir, 1<<20)
		path := s.entryPath(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}

		s2, boot := mustOpenStore(t, dir, 1<<20)
		_, served, _ := s2.get(key)
		_, decodeErr := decodeEntry(full[:n], key, "test-v1")
		if n == len(full) {
			if boot.Loaded != 1 || !served || decodeErr != nil {
				t.Fatalf("whole entry: boot stats %+v, served %v, decode error %v", boot, served, decodeErr)
			}
			continue
		}
		if boot.Quarantined != 1 || boot.Loaded != 0 {
			t.Fatalf("%d of %d bytes: boot stats %+v, want 1 quarantined 0 loaded", n, len(full), boot)
		}
		if served {
			t.Fatalf("%d of %d bytes: truncated entry served", n, len(full))
		}
		if decodeErr == nil {
			t.Fatalf("%d of %d bytes: decodeEntry accepted a truncated entry", n, len(full))
		}
		quarantined, _ := filepath.Glob(filepath.Join(dir, "corrupt", "*"))
		if len(quarantined) != 1 {
			t.Fatalf("%d of %d bytes: corrupt/ holds %d files, want 1", n, len(full), len(quarantined))
		}
	}
}

// TestDiskStoreTempFilesCleanedAtBoot: a write interrupted before the
// rename (SIGKILL mid-write) leaves only a temp file; the next boot
// deletes it and never indexes it.
func TestDiskStoreTempFilesCleanedAtBoot(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "cache", "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(shard, tempPrefix+"123456")
	if err := os.WriteFile(stray, []byte("half a header"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, boot := mustOpenStore(t, dir, 1<<20)
	if boot.Loaded != 0 || boot.Quarantined != 0 {
		t.Fatalf("boot stats %+v, want all zero", boot)
	}
	if s.len() != 0 {
		t.Fatalf("stray temp file indexed (%d entries)", s.len())
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stray temp file survived boot")
	}
}

// TestDiskStoreByteBudgetEviction: the store bounds payload bytes, not
// entry count, evicting in LRU order; oversized entries are refused.
func TestDiskStoreByteBudgetEviction(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpenStore(t, dir, 1000)
	big := cacheEntry{result: bytes.Repeat([]byte("a"), 400)}
	a, b, c := fakeKey(5), fakeKey(6), fakeKey(7)
	s.put(a, big)
	s.put(b, big)
	if _, ok, _ := s.get(a); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	_, evicted, err := s.put(c, big)
	if err != nil || evicted != 1 {
		t.Fatalf("evicted %d (err %v), want 1", evicted, err)
	}
	if _, ok, _ := s.get(b); ok {
		t.Fatal("LRU entry b not evicted")
	}
	if _, err := os.Stat(s.entryPath(b)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("evicted entry file still on disk")
	}
	if _, ok, _ := s.get(a); !ok {
		t.Fatal("recently used entry a evicted")
	}
	if s.totalBytes() != 800 || s.len() != 2 {
		t.Fatalf("bytes=%d len=%d, want 800/2", s.totalBytes(), s.len())
	}
	// An entry larger than the whole budget is not stored at all.
	huge := cacheEntry{result: bytes.Repeat([]byte("h"), 2000)}
	if stored, evicted, err := s.put(fakeKey(8), huge); err != nil || stored || evicted != 0 {
		t.Fatalf("oversized put: stored=%v evicted=%d err=%v", stored, evicted, err)
	}
	if s.len() != 2 {
		t.Fatal("oversized entry displaced resident ones")
	}
	// A restart over budget evicts oldest-by-mtime down to the budget.
	s2, boot := mustOpenStore(t, dir, 400)
	if boot.Evicted != 1 || s2.len() != 1 || s2.totalBytes() != 400 {
		t.Fatalf("boot with shrunk budget: %+v len=%d bytes=%d", boot, s2.len(), s2.totalBytes())
	}
}

// drainMgr drains a manager with a generous timeout.
func drainMgr(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// waitDoneMgr polls the manager until the job is terminal.
func waitDoneMgr(t *testing.T, m *Manager, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if terminal(v.State) {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job never terminal")
	return JobView{}
}

// TestManagerRestartSurvival is the tentpole end-to-end check: run a
// job, drain the manager, open a new manager on the same state dir, and
// the resubmitted identical spec is a byte-identical disk hit that
// never re-simulates.
func TestManagerRestartSurvival(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxWorkers: 2, StateDir: dir}
	m1, err := OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec() // traced, so the trace payload must survive too
	view, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if view.Cached {
		t.Fatal("fresh state dir served a cached job")
	}
	waitDoneMgr(t, m1, view.ID)
	result1, _, _ := m1.Result(view.ID)
	trace1, _, _ := m1.Trace(view.ID)
	if len(result1) == 0 || len(trace1) == 0 {
		t.Fatal("first run produced empty payloads")
	}
	drainMgr(t, m1)

	m2, err := OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := m2.Metrics()
	if loaded, _ := snap.Counter("service.store.loaded_at_boot"); loaded != 1 {
		t.Fatalf("loaded_at_boot = %d, want 1", loaded)
	}
	view2, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if view2.State != StateDone || !view2.Cached {
		t.Fatalf("restart resubmission not a cache hit: %+v", view2)
	}
	result2, _, _ := m2.Result(view2.ID)
	trace2, _, _ := m2.Trace(view2.ID)
	if !bytes.Equal(result1, result2) {
		t.Fatalf("result not byte-identical across restart (%d vs %d bytes)", len(result1), len(result2))
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("trace not byte-identical across restart (%d vs %d bytes)", len(trace1), len(trace2))
	}
	snap = m2.Metrics()
	if hits, _ := snap.Counter("service.store.disk_hits"); hits != 1 {
		t.Fatalf("disk hits = %d, want 1", hits)
	}
	// The disk hit promoted the entry into the memory front: a third
	// submission hits memory, not disk.
	view3, _ := m2.Submit(spec)
	if !view3.Cached {
		t.Fatal("promoted entry missed the memory cache")
	}
	snap = m2.Metrics()
	if hits, _ := snap.Counter("service.cache.hits"); hits != 1 {
		t.Fatalf("memory hits = %d, want 1", hits)
	}
	if hits, _ := snap.Counter("service.store.disk_hits"); hits != 1 {
		t.Fatalf("disk hits after promotion = %d, want still 1", hits)
	}
}

// TestManagerCorruptEntryResimulated: a corrupted stored entry is
// quarantined on the restart path and the job re-simulates to the
// correct payload instead of serving damaged bytes.
func TestManagerCorruptEntryResimulated(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxWorkers: 2, StateDir: dir}
	m1, err := OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.Trace = false
	view, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDoneMgr(t, m1, view.ID)
	result1, _, _ := m1.Result(view.ID)
	drainMgr(t, m1)

	// Flip a payload byte in the stored entry (size intact).
	path := m1.store.entryPath(view.CacheKey)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	view2, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if view2.Cached {
		t.Fatal("corrupted entry served as a cache hit")
	}
	snap := m2.Metrics()
	if n, _ := snap.Counter("service.store.corrupt_quarantined"); n != 1 {
		t.Fatalf("corrupt_quarantined = %d, want 1", n)
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "corrupt", "*"))
	if len(quarantined) != 1 {
		t.Fatalf("corrupt/ holds %d files, want 1", len(quarantined))
	}
	final := waitDoneMgr(t, m2, view2.ID)
	if final.State != StateDone {
		t.Fatalf("re-simulation ended %q (%s)", final.State, final.Error)
	}
	result2, _, _ := m2.Result(view2.ID)
	if !bytes.Equal(result1, result2) {
		t.Fatal("re-simulated payload differs from the original")
	}
	// The repaired entry is stored again and survives another restart.
	drainMgr(t, m2)
	m3, err := OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	view3, _ := m3.Submit(spec)
	if !view3.Cached {
		t.Fatal("repaired entry not served after restart")
	}
	result3, _, _ := m3.Result(view3.ID)
	if !bytes.Equal(result1, result3) {
		t.Fatal("repaired payload differs")
	}
}

// TestManagerRetentionSoak submits well over 2× the retention cap and
// asserts the job table stays bounded and the queue accounting stays an
// O(1) counter that agrees with a full recount.
func TestManagerRetentionSoak(t *testing.T) {
	const keep = 4
	m := NewManager(Config{MaxWorkers: 2, RetainTerminalJobs: keep})
	spec := tinySpec()
	spec.Trace = false
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDoneMgr(t, m, first.ID)

	const total = 3 * keep // > 2× the cap; all but the first are instant hits
	var lastID string
	for i := 1; i < total; i++ {
		v, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone || !v.Cached {
			t.Fatalf("soak submission %d not served from cache: %+v", i, v)
		}
		lastID = v.ID
	}

	m.mu.Lock()
	jobs, queued := len(m.jobs), m.fq.len()
	recount := 0
	for _, j := range m.jobs {
		if j.state == StateQueued {
			recount++
		}
	}
	m.mu.Unlock()
	if jobs != keep {
		t.Fatalf("job table after %d submissions: %d jobs, want %d", total, jobs, keep)
	}
	if queued != 0 || queued != recount {
		t.Fatalf("queued counter %d, recount %d", queued, recount)
	}
	snap := m.Metrics()
	if retained, _ := snap.Gauge("service.jobs.retained"); retained != int64(keep) {
		t.Fatalf("retained gauge %d, want %d", retained, keep)
	}
	// The oldest jobs are pruned, the most recent remain addressable.
	if _, err := m.Get(first.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("pruned job still addressable (err %v)", err)
	}
	if _, err := m.Get(lastID); err != nil {
		t.Fatalf("latest job pruned: %v", err)
	}
	if len(m.List()) != keep {
		t.Fatalf("List returned %d jobs, want %d", len(m.List()), keep)
	}
	// Pruning never loses the payload: the cache still answers.
	v, err := m.Submit(spec)
	if err != nil || !v.Cached {
		t.Fatalf("cache lost after pruning: %+v %v", v, err)
	}
}
