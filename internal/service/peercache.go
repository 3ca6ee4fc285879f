package service

// peercache.go makes every node's content-addressed result store a
// fleet-wide resource: GET /internal/cache/<key> serves a node's cached
// entry (memory tier first, then the verified disk store) encoded
// exactly as the disk store writes it — integrity header line, then raw
// result, then raw trace — and a coordinator that misses both its own
// tiers asks every healthy member before simulating. A fetched entry
// passes through the same decodeEntry check a local disk read does, so
// a remote entry is trusted only as far as a local one; the cache key
// already pins spec and code version, making a verified remote payload
// byte-identical to what a local simulation would produce.

import (
	"context"
	"net/http"
	"sync"
)

// internalCachePath prefixes GET /internal/cache/<key> — the peer-
// shared read side of the content-addressed store.
const internalCachePath = "/internal/cache/"

// peerCacheEntry encodes the locally cached entry for key for serving
// to a peer.
func (m *Manager) peerCacheEntry(key string) ([]byte, bool) {
	m.mu.Lock()
	entry, tier := m.lookupLocked(key)
	if tier != tierNone {
		m.peerCacheServedCtr.Inc()
	}
	m.mu.Unlock()
	if tier == tierNone {
		return nil, false
	}
	return encodeEntry(key, codeVersion(), entry), true
}

// peerCacheLookup asks every healthy member for the entry concurrently
// and returns the first fully verified response. Must be called
// WITHOUT Manager.mu held — it blocks on the network (bounded by
// Config.PeerCacheTimeout).
func (m *Manager) peerCacheLookup(ctx context.Context, key string) (cacheEntry, bool) {
	m.mu.Lock()
	var addrs []string
	for _, p := range m.peers {
		if p.healthy {
			addrs = append(addrs, p.addr)
		}
	}
	m.mu.Unlock()
	if len(addrs) == 0 {
		return cacheEntry{}, false
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hits := make(chan cacheEntry, len(addrs))
	var wg sync.WaitGroup
	for _, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, err := m.peerCall(ctx, m.cfg.PeerCacheTimeout, http.MethodGet, addr, internalCachePath+key, nil)
			if err != nil {
				return
			}
			if e, err := decodeEntry(raw, key, codeVersion()); err == nil {
				hits <- e
			}
		}()
	}
	go func() { wg.Wait(); close(hits) }()
	e, ok := <-hits
	cancel() // first hit wins; abort the stragglers
	return e, ok
}
