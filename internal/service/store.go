package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// storeSchema versions the entry format. Bump it whenever the header
// fields or the layout change; entries written under any other schema
// are quarantined on read, never misinterpreted.
const storeSchema = "icesimd-store-v1"

// storeHeader is the integrity header on the first line of every
// encoded entry (see encodeEntry), on disk and on the peer wire alike,
// followed by the raw result bytes and then the raw trace bytes.
// Lengths and checksums let a reader detect truncation and corruption
// before serving a single payload byte.
type storeHeader struct {
	Schema    string `json:"schema"`
	Version   string `json:"version"` // code version the entry was produced by
	Key       string `json:"key"`
	ResultLen int64  `json:"result_len"`
	ResultSHA string `json:"result_sha256"`
	TraceLen  int64  `json:"trace_len"`
	TraceSHA  string `json:"trace_sha256"`
}

// diskStore is the persistent tier behind the in-memory result cache:
// entries live at <root>/cache/<key[:2]>/<key>, written via temp file +
// fsync + rename so a crash (SIGKILL mid-write included) leaves either
// the complete old state or a stray temp file that the next boot
// removes — never a partial entry under a live name. Reads verify the
// header's lengths and SHA-256 checksums; anything that fails moves to
// <root>/corrupt/ and reports a miss, so a damaged entry is
// re-simulated rather than served.
//
// Eviction is byte-budgeted in LRU order: traced entries are megabytes
// while untraced ones are kilobytes, so bounding bytes (not entry
// count) is what actually bounds the footprint. Access order survives
// restarts approximately via file mtimes.
//
// Like the memory tier, the store is not self-locking: the owning
// Manager serialises every call under its mutex, which also keeps the
// obs instruments race-free.
type diskStore struct {
	root    string // state dir; entries under root/cache, rejects under root/corrupt
	version string // current code version; other versions' entries are unreachable
	// index costs each entry its payload bytes against the byte budget;
	// an evicted entry's file is deleted.
	index *lru[struct{}]
	// dropped hears every key the store stops holding after boot —
	// evicted to fit the budget or quarantined on read — so the Manager's
	// per-principal byte attribution follows the store.
	dropped func(key string)
}

// storeBootStats reports what the startup scan found, for the boot
// instruments.
type storeBootStats struct {
	Loaded      int   // intact entries indexed
	LoadedBytes int64 // their payload bytes
	Quarantined int   // damaged entries moved to corrupt/
	Evicted     int   // intact entries dropped to fit the budget
}

// openDiskStore creates the directory layout under root if needed and
// rebuilds the index by scanning existing entries. Damaged entries are
// quarantined immediately; entries from other code versions are
// removed (their keys embed the version, so they can never be hit);
// stray temp files from an interrupted write are deleted. If the
// surviving entries exceed the budget the oldest are evicted until
// they fit.
func openDiskStore(root string, budget int64, version string) (*diskStore, storeBootStats, error) {
	if budget <= 0 {
		budget = 1 << 30 // 1 GiB
	}
	s := &diskStore{root: root, version: version, dropped: func(string) {}}
	s.index = newLRU[struct{}](budget, func(key string) {
		os.Remove(s.entryPath(key))
		s.dropped(key)
	})
	var stats storeBootStats
	for _, dir := range []string{s.cacheDir(), s.corruptDir()} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, stats, fmt.Errorf("service: state dir: %w", err)
		}
	}

	type found struct {
		key   string
		size  int64
		mtime time.Time
	}
	var entries []found
	err := filepath.WalkDir(s.cacheDir(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if isTempName(d.Name()) { // interrupted write; the rename never happened
			os.Remove(path)
			return nil
		}
		hdr, size, verr := s.verifyHeader(path, d.Name())
		switch {
		case verr != nil:
			s.quarantine(path)
			stats.Quarantined++
		case hdr.Version != s.version:
			os.Remove(path) // unreachable: keys are version-scoped
		default:
			info, ierr := d.Info()
			if ierr != nil {
				return nil // raced with removal; skip
			}
			entries = append(entries, found{key: hdr.Key, size: size, mtime: info.ModTime()})
		}
		return nil
	})
	if err != nil {
		return nil, stats, fmt.Errorf("service: state dir scan: %w", err)
	}

	// Oldest first, so the most recently touched entry ends up at the
	// front of the LRU list and an over-budget directory loses its
	// oldest entries.
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	for _, e := range entries {
		stats.Evicted += s.index.put(e.key, struct{}{}, e.size)
	}
	stats.Loaded = len(entries) - stats.Evicted
	stats.LoadedBytes = s.index.used
	return s, stats, nil
}

func (s *diskStore) cacheDir() string   { return filepath.Join(s.root, "cache") }
func (s *diskStore) corruptDir() string { return filepath.Join(s.root, "corrupt") }

// entryPath shards entries by the first two hex digits of the key so
// no single directory grows unbounded.
func (s *diskStore) entryPath(key string) string {
	return filepath.Join(s.cacheDir(), key[:2], key)
}

const tempPrefix = ".tmp-"

func isTempName(name string) bool {
	return len(name) >= len(tempPrefix) && name[:len(tempPrefix)] == tempPrefix
}

// verifyHeader reads and validates just the header of the entry at
// path (schema, key/filename match, file size consistent with the
// declared payload lengths). It does not hash the payloads — get does
// that before serving. Returns the header and the payload size.
func (s *diskStore) verifyHeader(path, name string) (storeHeader, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return storeHeader{}, 0, err
	}
	defer f.Close()
	hdr, hdrLen, err := readHeader(f)
	if err != nil {
		return storeHeader{}, 0, err
	}
	if hdr.Key != name {
		return storeHeader{}, 0, fmt.Errorf("key %q does not match filename %q", hdr.Key, name)
	}
	info, err := f.Stat()
	if err != nil {
		return storeHeader{}, 0, err
	}
	payload := hdr.ResultLen + hdr.TraceLen
	if info.Size() != int64(hdrLen)+payload {
		return storeHeader{}, 0, fmt.Errorf("size %d, header declares %d", info.Size(), int64(hdrLen)+payload)
	}
	return hdr, payload, nil
}

// readHeader parses the first line of an entry file into a storeHeader
// and returns how many bytes the line (newline included) occupied.
func readHeader(r io.Reader) (storeHeader, int, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return storeHeader{}, 0, fmt.Errorf("header line: %w", err)
	}
	var hdr storeHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return storeHeader{}, 0, fmt.Errorf("header JSON: %w", err)
	}
	if hdr.Schema != storeSchema {
		return storeHeader{}, 0, fmt.Errorf("schema %q, want %q", hdr.Schema, storeSchema)
	}
	if hdr.ResultLen < 0 || hdr.TraceLen < 0 {
		return storeHeader{}, 0, fmt.Errorf("negative payload length")
	}
	return hdr, len(line), nil
}

// get loads and fully verifies the entry for key. corrupt reports that
// an indexed entry existed but failed verification and was quarantined
// — the caller should count it and re-simulate.
func (s *diskStore) get(key string) (e cacheEntry, ok, corrupt bool) {
	if _, indexed := s.index.get(key); !indexed {
		return cacheEntry{}, false, false
	}
	path := s.entryPath(key)
	raw, err := os.ReadFile(path)
	if err == nil {
		e, err = decodeEntry(raw, key, s.version)
	}
	if err != nil {
		s.quarantine(path)
		s.index.remove(key)
		s.dropped(key)
		return cacheEntry{}, false, true
	}
	// Best-effort recency stamp so LRU order survives a restart.
	now := time.Now()
	os.Chtimes(path, now, now)
	return e, true, false
}

// put persists the entry for key atomically and evicts least-recently
// used entries until the byte budget holds. Entries bigger than the
// whole budget are not written (stored false — they would evict
// everything and still not fit; the caller counts the skip). A write
// failure leaves the store consistent (the entry is simply not
// persisted) and is reported for the error counter.
func (s *diskStore) put(key string, e cacheEntry) (stored bool, evicted int, err error) {
	if _, ok := s.index.get(key); ok {
		// Same key ⇒ byte-identical payload (simulations are
		// deterministic); get refreshed recency, skip the rewrite.
		return true, 0, nil
	}
	size := int64(len(e.result) + len(e.trace))
	if size > s.index.budget {
		return false, 0, nil
	}
	if err := s.writeEntry(key, e); err != nil {
		return false, 0, err
	}
	return true, s.index.put(key, struct{}{}, size), nil
}

// writeEntry writes the encoded entry to a temp file in the entry's
// final directory, fsyncs, and renames into place.
func (s *diskStore) writeEntry(key string, e cacheEntry) error {
	dir := filepath.Dir(s.entryPath(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(encodeEntry(key, s.version, e)); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return err
	}
	tmp = nil
	if err := os.Rename(name, s.entryPath(key)); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// quarantine moves a damaged entry into corrupt/ (best effort; if even
// the rename fails the file is deleted so it can never be re-indexed).
func (s *diskStore) quarantine(path string) {
	base := filepath.Base(path)
	dest := filepath.Join(s.corruptDir(), base)
	for i := 1; ; i++ {
		if _, err := os.Stat(dest); os.IsNotExist(err) {
			break
		}
		dest = filepath.Join(s.corruptDir(), fmt.Sprintf("%s.%d", base, i))
	}
	if err := os.Rename(path, dest); err != nil {
		os.Remove(path)
	}
}

// len reports the number of indexed entries; totalBytes their summed
// payload bytes.
func (s *diskStore) len() int { return s.index.len() }

func (s *diskStore) totalBytes() int64 { return s.index.used }

// encodeEntry renders one entry in the store format — header line, raw
// result, raw trace. Disk files and peer-served entries are these bytes.
func encodeEntry(key, version string, e cacheEntry) []byte {
	// storeHeader is all string and integer fields: Marshal cannot fail.
	line, _ := json.Marshal(storeHeader{
		Schema: storeSchema, Version: version, Key: key,
		ResultLen: int64(len(e.result)), ResultSHA: sha256Hex(e.result),
		TraceLen: int64(len(e.trace)), TraceSHA: sha256Hex(e.trace),
	})
	buf := make([]byte, 0, len(line)+1+len(e.result)+len(e.trace))
	buf = append(buf, line...)
	buf = append(buf, '\n')
	buf = append(buf, e.result...)
	return append(buf, e.trace...)
}

// decodeEntry is the one trust check for an encoded entry, read from
// disk or fetched from a peer: schema, key and code-version pins,
// declared lengths, and both payload SHA-256 checksums. Anything short
// of a perfect match is rejected, and the caller treats it as a miss.
func decodeEntry(raw []byte, key, version string) (cacheEntry, error) {
	hdr, hdrLen, err := readHeader(bytes.NewReader(raw))
	if err != nil {
		return cacheEntry{}, err
	}
	if hdr.Key != key {
		return cacheEntry{}, fmt.Errorf("entry key %q, want %q", hdr.Key, key)
	}
	if hdr.Version != version {
		return cacheEntry{}, fmt.Errorf("entry version %q, want %q", hdr.Version, version)
	}
	body := raw[hdrLen:]
	if int64(len(body)) != hdr.ResultLen+hdr.TraceLen {
		return cacheEntry{}, fmt.Errorf("truncated: %d payload bytes, header declares %d", len(body), hdr.ResultLen+hdr.TraceLen)
	}
	result := body[:hdr.ResultLen:hdr.ResultLen]
	trace := body[hdr.ResultLen:]
	if sha256Hex(result) != hdr.ResultSHA {
		return cacheEntry{}, fmt.Errorf("result checksum mismatch")
	}
	if sha256Hex(trace) != hdr.TraceSHA {
		return cacheEntry{}, fmt.Errorf("trace checksum mismatch")
	}
	if len(trace) == 0 {
		trace = nil // preserve the nil-means-untraced convention
	}
	return cacheEntry{result: result, trace: trace}, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
