package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// ShardedCache is a fingerprint-keyed response-byte cache striped over N
// independently locked shards, so concurrent cache-hit lookups contend
// only 1/N of the time instead of serializing on one mutex (and never
// touch the engine lock at all). Values are the exact serialized
// response bodies, stored immutably: a hit is one map lookup plus one
// write to the socket.
//
// Eviction is admission-aware: a full shard first evicts its oldest
// Unsat body, and falls back to plain oldest-inserted only when every
// resident entry is Sat. Unsat responses are small and cheap to
// recompute (the engine re-answers them from cached budget cores), while
// a Sat body embeds a whole synthesized algorithm, so under pressure the
// cache keeps the entries whose misses actually cost a solve. Eviction
// stays per-shard so it never takes a global lock.
type ShardedCache struct {
	shards       []cacheShard
	perShardCap  int
	hits, misses atomic.Uint64
	// evicted counts evictions per entry class, indexed by EntryClass.
	evicted [2]atomic.Uint64
}

// EntryClass labels a cached body for eviction priority.
type EntryClass uint8

const (
	// ClassSat marks bodies worth defending: synthesized algorithms and
	// frontiers, whose re-solve cost is the whole point of the cache.
	ClassSat EntryClass = iota
	// ClassUnsat marks infeasibility answers, evicted first — the engine
	// re-derives them from budget cores at a fraction of a solve.
	ClassUnsat
)

type cacheEntry struct {
	body  []byte
	class EntryClass
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]cacheEntry
	order   []string
}

// NewShardedCache builds a cache striped over shards locks holding at
// most capacity entries in total; shards < 1 selects 64, capacity < 1
// selects 65536. Capacity is rounded up to a whole number of entries
// per shard.
func NewShardedCache(shards, capacity int) *ShardedCache {
	shards, perShard := cacheGeometry(shards, capacity)
	c := &ShardedCache{shards: make([]cacheShard, shards), perShardCap: perShard}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]cacheEntry)
	}
	return c
}

// cacheGeometry resolves the Shards/CacheEntries defaults into a shard
// count and a per-shard entry cap, shared by the response cache and the
// alias table in front of it.
func cacheGeometry(shards, capacity int) (n, perShard int) {
	if shards < 1 {
		shards = 64
	}
	if capacity < 1 {
		capacity = 1 << 16
	}
	return shards, (capacity + shards - 1) / shards
}

// shard picks the stripe for a key. Keys are engine fingerprints —
// hex of a cryptographic hash, already uniform — but an FNV-1a pass
// keeps the striping sound for arbitrary keys too.
func (c *ShardedCache) shard(key string) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h%uint64(len(c.shards))]
}

// Get returns the cached bytes for key. The returned slice is shared
// and must be treated as immutable.
func (c *ShardedCache) Get(key string) ([]byte, bool) {
	s := c.shard(key)
	s.mu.Lock()
	ent, ok := s.entries[key]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ent.body, ok
}

// Put stores val under key as a Sat-class entry. The caller must not
// mutate val afterwards.
func (c *ShardedCache) Put(key string, val []byte) {
	c.PutClass(key, val, ClassSat)
}

// PutClass stores val under key with an explicit eviction class,
// evicting admission-aware if the shard is full: the oldest Unsat entry
// goes first, the oldest entry of any class only when no Unsat body is
// resident. The caller must not mutate val afterwards.
func (c *ShardedCache) PutClass(key string, val []byte, class EntryClass) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[key]; !exists {
		for len(s.entries) >= c.perShardCap && len(s.order) > 0 {
			c.evictLocked(s)
		}
		s.order = append(s.order, key)
	}
	s.entries[key] = cacheEntry{body: val, class: class}
}

// evictLocked removes one entry from a full shard: the first Unsat
// entry in insertion order if any, otherwise the oldest entry.
func (c *ShardedCache) evictLocked(s *cacheShard) {
	victim := 0
	for i, key := range s.order {
		if s.entries[key].class == ClassUnsat {
			victim = i
			break
		}
	}
	key := s.order[victim]
	c.evicted[s.entries[key].class].Add(1)
	s.order = append(s.order[:victim], s.order[victim+1:]...)
	delete(s.entries, key)
}

// Evicted returns the lifetime eviction counts by class.
func (c *ShardedCache) Evicted() (sat, unsat uint64) {
	return c.evicted[ClassSat].Load(), c.evicted[ClassUnsat].Load()
}

// Len returns the total number of cached entries across all shards.
func (c *ShardedCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].entries)
		c.shards[i].mu.Unlock()
	}
	return n
}

// Stats returns the lifetime hit and miss counts.
func (c *ShardedCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// aliasKey names one request document: the endpoint it was posted to and
// the SHA-256 of its exact bytes. A fixed-size key, so a lookup does not
// allocate.
type aliasKey struct {
	endpoint uint8
	digest   [sha256.Size]byte
}

// Endpoints of an aliasKey. The same bytes posted to another endpoint are
// another request (a pareto-request document is a 400 on /v1/synthesize).
const (
	aliasSynthesize uint8 = iota
	aliasPareto
)

// aliasTable maps request-body digests to the engine fingerprints those
// bodies decoded to, so a replayed document finds its cached response
// without being decoded again. An entry is a pure function of the bytes —
// decoding is deterministic and the fingerprint depends only on the
// decoded request and the engine's fixed options — so a stale alias (its
// response evicted, or never cached because the answer was Unknown) costs
// a decode, never a wrong answer. It is striped and capped like the
// response cache, with plain FIFO eviction per shard.
type aliasTable struct {
	shards      []aliasShard
	perShardCap int
}

type aliasShard struct {
	mu  sync.Mutex
	fps map[aliasKey]string
	// order holds the resident keys in insertion order; once the shard
	// is full it is a ring whose oldest key is at next.
	order []aliasKey
	next  int
}

func newAliasTable(shards, capacity int) *aliasTable {
	shards, perShard := cacheGeometry(shards, capacity)
	a := &aliasTable{shards: make([]aliasShard, shards), perShardCap: perShard}
	for i := range a.shards {
		a.shards[i].fps = make(map[aliasKey]string)
	}
	return a
}

// shard picks the stripe for a key; a SHA-256 digest is already uniform.
func (a *aliasTable) shard(k aliasKey) *aliasShard {
	return &a.shards[binary.LittleEndian.Uint64(k.digest[:8])%uint64(len(a.shards))]
}

// get returns the fingerprint a request document decoded to.
func (a *aliasTable) get(k aliasKey) (string, bool) {
	s := a.shard(k)
	s.mu.Lock()
	fp, ok := s.fps[k]
	s.mu.Unlock()
	return fp, ok
}

// put records that the document k decoded to fingerprint fp, evicting the
// shard's oldest alias when it is full.
func (a *aliasTable) put(k aliasKey, fp string) {
	s := a.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.fps[k]; !exists {
		if len(s.order) < a.perShardCap {
			s.order = append(s.order, k)
		} else {
			delete(s.fps, s.order[s.next])
			s.order[s.next] = k
			s.next = (s.next + 1) % len(s.order)
		}
	}
	s.fps[k] = fp
}

// len returns the number of aliases across all shards.
func (a *aliasTable) len() int {
	n := 0
	for i := range a.shards {
		a.shards[i].mu.Lock()
		n += len(a.shards[i].fps)
		a.shards[i].mu.Unlock()
	}
	return n
}
