package service

import "container/list"

// cacheEntry is one completed job's payloads: the result JSON exactly as
// first marshalled (served byte-identical on every hit) and, for traced
// runs, the Perfetto trace-event JSON.
type cacheEntry struct {
	result []byte
	trace  []byte
}

// lru is the least-recently-used index both result tiers keep, keyed by
// content-addressed job keys (see CacheKey). Simulations are seeded and
// deterministic, so a key fully determines the payload; repeated
// submissions — the common case for sweep tooling — are answered
// without re-simulating. Every entry carries a cost, and put evicts from
// the cold end until the summed cost fits the budget. The memory tier
// costs an entry 1 against Config.CacheEntries; the disk store (see
// store.go) costs it its payload bytes against Config.CacheBytes and
// deletes each evicted entry's file in onEvict.
//
// It is not self-locking: the owning Manager serialises access under its
// mutex, which also keeps the obs instruments race-free.
type lru[V any] struct {
	budget  int64
	used    int64
	ll      *list.List // front = most recently used; values are *lruItem[V]
	items   map[string]*list.Element
	onEvict func(key string) // nil when the index holds all there is to release
}

type lruItem[V any] struct {
	key  string
	val  V
	cost int64
}

func newLRU[V any](budget int64, onEvict func(key string)) *lru[V] {
	return &lru[V]{budget: budget, ll: list.New(), items: make(map[string]*list.Element), onEvict: onEvict}
}

// get returns the value for key, refreshing its recency.
func (c *lru[V]) get(key string) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// put stores (or refreshes) key at the given cost and returns how many
// least recently used entries were evicted to fit the budget.
func (c *lru[V]) put(key string, v V, cost int64) (evicted int) {
	if el, ok := c.items[key]; ok {
		it := el.Value.(*lruItem[V])
		c.used += cost - it.cost
		it.val, it.cost = v, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruItem[V]{key: key, val: v, cost: cost})
		c.used += cost
	}
	for c.used > c.budget && c.ll.Len() > 0 {
		oldest := c.ll.Back().Value.(*lruItem[V]).key
		c.remove(oldest)
		if c.onEvict != nil {
			c.onEvict(oldest)
		}
		evicted++
	}
	return evicted
}

// remove drops key from the index; whatever else the entry held is the
// caller's to release.
func (c *lru[V]) remove(key string) {
	if el, ok := c.items[key]; ok {
		c.used -= c.ll.Remove(el).(*lruItem[V]).cost
		delete(c.items, key)
	}
}

// len reports the number of entries.
func (c *lru[V]) len() int { return c.ll.Len() }
