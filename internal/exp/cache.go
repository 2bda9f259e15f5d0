package exp

import (
	"container/list"
	"sync"
	"time"

	"ebcp/internal/metrics"
)

// The result store. One type serves two instances: every Session owns
// an unbounded one keyed by cell id (its memo), and a serving daemon
// hands one byte-budgeted instance, keyed by content hash, to every
// request's Session (Options.Cache). DESIGN.md §10 documents why there
// are two instances and the keying and eviction contracts.

// Cache is a result store: keyed values with single-flight coalescing
// of concurrent identical computations, LRU eviction under a byte
// budget, and counters (the daemon's /metrics cache block). Values are
// treated as immutable once stored; Cache is safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	budget   int64
	bytes    int64
	entries  map[string]*list.Element // key → LRU node holding *centry
	lru      *list.List               // front = most recently used
	inflight map[string]*cflight

	hits      uint64
	misses    uint64
	joins     uint64
	evictions uint64
	oversize  uint64

	// computeUS observes, for every computation the cache ran (i.e.
	// every miss), its duration in microseconds — the serving layer's
	// cell-latency histogram, since cache computations are exactly the
	// cells that actually simulate.
	computeUS metrics.Histogram
}

// centry is one stored value with its accounted cost.
type centry struct {
	key  string
	val  any
	cost int64
}

// cflight is one in-progress computation; joiners wait on done and read
// val afterwards.
type cflight struct {
	done chan struct{}
	val  any
}

// NewCache creates a cache evicting least-recently-used entries once
// stored costs exceed budget bytes. A budget <= 0 means unbounded (every
// Session's own instance; the daemon always sets one). A single entry
// costing more than the whole budget is served to its caller but never
// stored: no sequence of evictions could make room for it, so storing
// it would pin it forever and thrash every fitting entry out.
func NewCache(budget int64) *Cache {
	return &Cache{
		budget:   budget,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*cflight),
	}
}

// Do returns the value stored under key, or
// runs compute — coalescing concurrent callers of the same key into one
// computation — and stores the result with the cost compute reports.
// hit is true when compute did not run in this caller (stored earlier
// or joined another caller's in-flight computation).
func (c *Cache) Do(key string, compute func() (any, int)) (any, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		v := el.Value.(*centry).val
		c.mu.Unlock()
		return v, true
	}
	if f, ok := c.inflight[key]; ok {
		c.joins++
		c.mu.Unlock()
		<-f.done
		return f.val, true
	}
	f := &cflight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	start := now()
	v, cost := compute()
	elapsed := now().Sub(start)
	f.val = v

	c.mu.Lock()
	c.computeUS.Observe(uint64(elapsed.Microseconds()))
	c.insertLocked(key, v, int64(cost))
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return v, false
}

// insertLocked stores a completed computation and evicts from the LRU
// tail until the budget holds again (never evicting the entry just
// inserted: serving the value we just paid to compute always beats
// strict budget adherence for one round-trip).
func (c *Cache) insertLocked(key string, v any, cost int64) {
	if cost < 0 {
		cost = 0
	}
	if c.budget > 0 && cost > c.budget {
		// The eviction loop below spares the newest entry, so an entry
		// that exceeds the budget on its own would survive every pass
		// while forcing everything else out — a permanent squatter. Let
		// the caller keep the value it computed and store nothing.
		c.oversize++
		return
	}
	if el, ok := c.entries[key]; ok {
		// A racing caller can re-insert a key evicted between its miss
		// and its store; keep the newer value and re-account the cost.
		c.bytes -= el.Value.(*centry).cost
		c.lru.Remove(el)
		delete(c.entries, key)
	}
	e := &centry{key: key, val: v, cost: cost}
	c.entries[key] = c.lru.PushFront(e)
	c.bytes += cost
	for c.budget > 0 && c.bytes > c.budget && c.lru.Len() > 1 {
		c.evictOldestLocked()
	}
}

// evictOldestLocked removes the least-recently-used entry.
func (c *Cache) evictOldestLocked() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	e := el.Value.(*centry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.cost
	c.evictions++
}

// CacheStats is a point-in-time snapshot of the cache counters,
// embedded in the /metrics document.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Joins     uint64 `json:"inflight_joins"`
	Evictions uint64 `json:"evictions"`
	// Oversize counts computed values rejected (not stored) because
	// their single cost exceeded the whole budget.
	Oversize uint64 `json:"oversize_rejects"`
	Entries  int    `json:"entries"`
	Inflight int    `json:"inflight"`
	Bytes    int64  `json:"bytes"`
	Budget   int64  `json:"budget_bytes"`
	// HitRatio counts joins as hits: (hits+joins) / all lookups. 0 when
	// nothing was looked up yet.
	HitRatio float64 `json:"hit_ratio"`
	// ComputeUS is the per-computation (cache-miss) latency histogram in
	// microseconds.
	ComputeUS metrics.Histogram `json:"compute_us"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Joins:     c.joins,
		Evictions: c.evictions,
		Oversize:  c.oversize,
		Entries:   c.lru.Len(),
		Inflight:  len(c.inflight),
		Bytes:     c.bytes,
		Budget:    c.budget,
		ComputeUS: c.computeUS,
	}
	if total := c.hits + c.joins + c.misses; total > 0 {
		st.HitRatio = float64(st.Hits+st.Joins) / float64(total)
	}
	return st
}

// now returns wall-clock time for the compute_us histogram. It is
// observational by nature and never feeds a deterministic report path:
// every report byte comes from the simulation results, not this clock.
//
//ebcp:allow determinism the compute_us histogram is wall-clock by design and never feeds report bytes
func now() time.Time { return time.Now() }
