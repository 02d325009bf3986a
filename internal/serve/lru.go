package serve

import (
	"container/list"
	"sync"
)

// cachePart is one partition of the engine's result caches: a per-type LRU
// for the endpoint pairs that hash to it, tagged with the snapshot
// generation its entries were computed on. mu is held only around a lookup
// or an insert, never while a query is evaluated.
type cachePart struct {
	mu    sync.Mutex
	epoch int64
	lru   [numQueryTypes]*lruCache
}

// at reports whether the partition holds generation gen's answers, first
// resetting it when it still holds an older generation's. A request pinned
// to an older snapshot than the partition's finds false and bypasses the
// cache: it never reads, fills or resets a newer generation's entries.
// Callers hold mu.
func (p *cachePart) at(gen int64) bool {
	if gen > p.epoch {
		for _, c := range p.lru {
			c.reset()
		}
		p.epoch = gen
	}
	return gen == p.epoch
}

func (p *cachePart) get(t QueryType, gen, key int64) (v cacheVal, ok bool) {
	p.mu.Lock()
	if p.at(gen) {
		v, ok = p.lru[t].get(key)
	}
	p.mu.Unlock()
	return v, ok
}

func (p *cachePart) put(t QueryType, gen, key int64, v cacheVal) {
	p.mu.Lock()
	if p.at(gen) {
		p.lru[t].put(key, v)
	}
	p.mu.Unlock()
}

// lruCache is a fixed-capacity least-recently-used result cache. It is not
// safe for concurrent use; its cachePart's mutex guards it.
type lruCache struct {
	cap int
	ll  *list.List
	m   map[int64]*list.Element
}

type lruEntry struct {
	key int64
	val cacheVal
}

// cacheVal is a memoized query outcome (everything except per-request
// bookkeeping like latency and snapshot id).
type cacheVal struct {
	dist     int32
	bound    int32
	path     []int32
	err      error
	composed bool
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), m: make(map[int64]*list.Element, capacity)}
}

func (c *lruCache) get(key int64) (cacheVal, bool) {
	el, ok := c.m[key]
	if !ok {
		return cacheVal{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) put(key int64, v cacheVal) {
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = v
		return
	}
	if c.ll.Len() >= c.cap {
		back := c.ll.Back()
		if back != nil {
			c.ll.Remove(back)
			delete(c.m, back.Value.(*lruEntry).key)
		}
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, val: v})
}

func (c *lruCache) reset() {
	c.ll.Init()
	clear(c.m)
}
