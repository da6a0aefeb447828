// Package analysiscache is the shared, bounded, coalescing memo of
// elect.Analyze results keyed by the instance's canonical form. The
// centralized analysis (class ordering, Cayley recognition, the Theorem 2.1
// oracle) is often orders of magnitude more expensive than one simulated
// run and depends only on the (graph, homes) instance — never the seed —
// so every layer that analyzes repeatedly (campaign sweeps, the election
// daemon, the experiment harness) shares this cache instead of growing a
// private unbounded map.
//
// Three production properties distinguish it from the map it replaces:
//
//   - Sharding: keys are hashed onto a fixed set of independently locked
//     shards, so a daemon serving many concurrent requests never serializes
//     all lookups behind one mutex.
//   - Coalescing: concurrent requests for one key collapse into a single
//     computation (singleflight) — the first caller computes, the rest
//     block on the entry's latch. N clients asking about the same (or,
//     under CanonicalKey, isomorphic) instance pay for exactly one
//     elect.Analyze.
//   - Bounding: completed entries live on a per-shard LRU with byte-size
//     accounting; inserting past the budget evicts cold entries, so a
//     long-running process holds memory flat no matter how many distinct
//     instances pass through.
package analysiscache

import (
	"context"
	"hash/maphash"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/elect"
	"repro/internal/graph"
	"repro/internal/order"
)

// AnalyzeFunc computes the analysis of one instance. The ctx is the
// computation's own context, canceled when every waiter of the entry has
// abandoned it — the production value wraps elect.AnalyzeCtx, which plumbs
// it into every canonical search of COMPUTE & ORDER. Tests inject counting
// or blocking stand-ins to prove coalescing, eviction, and cancellation
// behavior.
type AnalyzeFunc func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error)

// KeyFunc maps an instance to its cache key. Two instances sharing a key
// share an entry (and therefore one analysis). See StructuralKey and
// CanonicalKey.
type KeyFunc func(g *graph.Graph, homes []int) string

// Config tunes a Cache. The zero value is usable: elect.Analyze under the
// Direct ordering, StructuralKey, DefaultMaxBytes, DefaultShards.
type Config struct {
	// Analyze computes entries (default: elect.Analyze with order.Direct).
	Analyze AnalyzeFunc
	// Key derives cache keys (default StructuralKey; the daemon uses
	// CanonicalKey so isomorphic-but-renumbered instances coalesce).
	Key KeyFunc
	// MaxBytes bounds the total estimated size of completed entries across
	// all shards (default DefaultMaxBytes; negative disables eviction).
	MaxBytes int64
	// Shards is the number of lock shards, rounded up to a power of two
	// (default DefaultShards).
	Shards int
}

// DefaultMaxBytes bounds the cache at 64 MiB of accounted entry size
// unless configured otherwise — far beyond any test workload, small
// enough that a daemon or week-long campaign holds memory flat.
const DefaultMaxBytes = 64 << 20

// DefaultShards is the default lock-shard count.
const DefaultShards = 16

// Stats is a point-in-time view of cache effectiveness.
type Stats struct {
	// Hits counts lookups served from a completed entry; Coalesced counts
	// lookups that joined an in-flight computation; Misses counts lookups
	// that computed. Hits+Coalesced is the "did not pay for an analysis"
	// total the campaign summary reports as cache hits.
	Hits      int64 `json:"hits"`
	Coalesced int64 `json:"coalesced"`
	Misses    int64 `json:"misses"`
	// Evictions counts completed entries dropped to stay under MaxBytes.
	Evictions int64 `json:"evictions"`
	// Entries and SizeBytes describe the resident completed entries.
	Entries   int   `json:"entries"`
	SizeBytes int64 `json:"size_bytes"`
	// AnalysisMS is total wall-clock spent inside the analyze function
	// (misses only — hits and coalesced waiters pay nothing).
	AnalysisMS float64 `json:"analysis_ms"`
}

// Cache is a sharded, coalescing, LRU-bounded analysis memo. Safe for
// concurrent use.
type Cache struct {
	analyze   AnalyzeFunc
	key       KeyFunc
	maxBytes  int64
	shardMask uint64
	shards    []shard
	seed      maphash.Seed

	hits       atomic.Int64
	coalesced  atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	analysisNS atomic.Int64
}

// shard is one independently locked slice of the key space. Completed
// entries form an intrusive LRU list (head = most recent); in-flight
// entries are in the map but not on the list and are never evicted.
type shard struct {
	mu      chMutex
	entries map[string]*entry
	head    *entry
	tail    *entry
	size    int64
}

// chMutex is a channel-based mutex so shard critical sections stay tiny
// and Lock can never be held across a computation.
type chMutex chan struct{}

func (m chMutex) lock()   { m <- struct{}{} }
func (m chMutex) unlock() { <-m }

type entry struct {
	key  string
	done chan struct{} // closed once an/err are set
	an   *elect.Analysis
	err  error
	cost int64
	// waiters counts the Get calls currently blocked on this in-flight
	// entry (including the one that started it); cancel stops the detached
	// computation. When the last waiter abandons the entry, the computation
	// is canceled and the entry is dropped so a future Get retries. Both
	// are guarded by the shard lock.
	waiters int
	cancel  context.CancelFunc
	// LRU links, valid only for completed entries; resident reports the
	// entry is still in the map (an evicted entry's waiters still read it).
	prev, next *entry
	resident   bool
	completed  bool
}

// New builds a cache from cfg (zero value ok).
func New(cfg Config) *Cache {
	if cfg.Analyze == nil {
		cfg.Analyze = func(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, error) {
			return elect.AnalyzeCtx(ctx, g, homes, order.Direct)
		}
	}
	if cfg.Key == nil {
		cfg.Key = StructuralKey
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	c := &Cache{
		analyze:   cfg.Analyze,
		key:       cfg.Key,
		maxBytes:  cfg.MaxBytes,
		shardMask: uint64(n - 1),
		shards:    make([]shard, n),
		seed:      maphash.MakeSeed(),
	}
	for i := range c.shards {
		c.shards[i].mu = make(chMutex, 1)
		c.shards[i].entries = make(map[string]*entry)
	}
	return c
}

// Get returns the memoized analysis of (g, homes), computing it on first
// use. The second result reports whether the call was served without
// computing (a completed-entry hit or a coalesced join of an in-flight
// computation). If ctx is done before the entry completes, Get returns
// ctx.Err() — including for the caller that started the computation. The
// computation runs detached from any single request context, so one
// canceled waiter never robs the others; but when the LAST waiter of an
// in-flight entry cancels, the computation's own context is canceled
// (stopping the canonical searches inside elect.AnalyzeCtx) and the
// entry is dropped so a future Get retries.
func (c *Cache) Get(ctx context.Context, g *graph.Graph, homes []int) (*elect.Analysis, bool, error) {
	key := c.key(g, homes)
	sh := &c.shards[maphash.String(c.seed, key)&c.shardMask]
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}

	sh.mu.lock()
	e, ok := sh.entries[key]
	if !ok {
		cctx, cancel := context.WithCancel(context.Background())
		e = &entry{key: key, done: make(chan struct{}), resident: true, waiters: 1, cancel: cancel}
		sh.entries[key] = e
		sh.mu.unlock()

		c.misses.Add(1)
		go c.compute(cctx, sh, e, g, homes)
		select {
		case <-e.done:
			return e.an, false, e.err
		case <-ctxDone:
			c.abandon(sh, e)
			return nil, false, ctx.Err()
		}
	}
	completed := e.completed
	if completed {
		sh.moveFront(e)
	} else {
		e.waiters++
	}
	sh.mu.unlock()

	if completed {
		c.hits.Add(1)
		return e.an, true, e.err
	}
	c.coalesced.Add(1)
	select {
	case <-e.done:
		return e.an, true, e.err
	case <-ctxDone:
		c.abandon(sh, e)
		return nil, false, ctx.Err()
	}
}

// abandon records that one waiter of an in-flight entry gave up. The last
// waiter out cancels the computation and removes the entry from the map, so
// the partially-done work is not installed and a future Get starts fresh.
func (c *Cache) abandon(sh *shard, e *entry) {
	sh.mu.lock()
	e.waiters--
	if e.waiters == 0 && !e.completed {
		e.cancel()
		if e.resident {
			e.resident = false
			delete(sh.entries, e.key)
		}
	}
	sh.mu.unlock()
}

// compute fills e (detached from any single request context; ctx is the
// entry's own, canceled only when every waiter abandons), closes its latch,
// and installs the completed entry on the shard's LRU. completed is set
// before the latch closes so an abandoning waiter that loses the race
// cannot drop a finished entry.
func (c *Cache) compute(ctx context.Context, sh *shard, e *entry, g *graph.Graph, homes []int) {
	start := time.Now()
	an, err := c.analyze(ctx, g, homes)
	c.analysisNS.Add(int64(time.Since(start)))
	e.an, e.err = an, err
	e.cost = entryCost(e.key, an)

	sh.mu.lock()
	e.completed = true
	if e.resident {
		if err != nil && ctx.Err() != nil {
			// A canceled computation's error is not a property of the
			// instance: drop the entry so a future Get retries.
			e.resident = false
			delete(sh.entries, e.key)
		} else {
			sh.pushFront(e)
			sh.size += e.cost
			c.evictLocked(sh)
		}
	}
	sh.mu.unlock()
	e.cancel() // release the context's resources
	close(e.done)
}

// evictLocked drops cold completed entries until the shard is under its
// slice of the byte budget. Caller holds sh.mu.
func (c *Cache) evictLocked(sh *shard) {
	if c.maxBytes < 0 {
		return
	}
	budget := c.maxBytes / int64(len(c.shards))
	for sh.size > budget && sh.tail != nil {
		victim := sh.tail
		sh.remove(victim)
		sh.size -= victim.cost
		victim.resident = false
		delete(sh.entries, victim.key)
		c.evictions.Add(1)
	}
}

// Stats snapshots the cache counters and resident-set accounting.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:       c.hits.Load(),
		Coalesced:  c.coalesced.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		AnalysisMS: float64(c.analysisNS.Load()) / float64(time.Millisecond),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.lock()
		s.Entries += len(sh.entries)
		s.SizeBytes += sh.size
		sh.mu.unlock()
	}
	return s
}

// entryCost measures an entry's real resident size: the key's backing
// bytes, the entry struct itself, the Analysis struct, and the full
// capacity (not length) of the Sizes backing array — a slice trimmed by
// append growth still pins cap(.)*8 bytes. unsafe.Sizeof keeps the struct
// constants honest across field changes.
func entryCost(key string, an *elect.Analysis) int64 {
	cost := int64(len(key)) + int64(unsafe.Sizeof(entry{}))
	if an != nil {
		cost += int64(unsafe.Sizeof(*an)) + int64(cap(an.Sizes))*int64(unsafe.Sizeof(int(0)))
	}
	return cost
}

// pushFront inserts a completed entry at the LRU head.
func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// moveFront marks e most-recently-used (no-op for in-flight entries).
func (sh *shard) moveFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.remove(e)
	sh.pushFront(e)
}

// remove unlinks e from the LRU list.
func (sh *shard) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if sh.head == e {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if sh.tail == e {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
