// Package cache models the on-chip cache hierarchy of the default
// processor configuration: set-associative L1 instruction/data caches and a
// unified L2, all with true-LRU replacement and 64B lines, plus the small
// 4-way prefetch buffer that every evaluated prefetcher fills (Section 5.2
// of the paper: prefetched lines live in the buffer and are only promoted
// into the regular caches when they satisfy a demand request). The MSHR
// file is modelled elsewhere: the cpu model's outstanding-miss limit
// bounds it, and the simulator's per-epoch miss set merges duplicates.
package cache

import (
	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
)

// Config describes one cache.
type Config struct {
	// Name is used in stats output ("L1I", "L1D", "L2").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes uint64
	// Ways is the set associativity.
	Ways int
	// HitLatency is the access latency in core cycles.
	HitLatency uint64
}

// Validate reports configuration errors. All errors match
// ebcperr.ErrInvalidConfig under errors.Is.
func (c Config) Validate() error {
	if c.SizeBytes == 0 || !amo.IsPow2(c.SizeBytes) {
		return ebcperr.Invalidf("cache %s: size %d must be a non-zero power of two", c.Name, c.SizeBytes)
	}
	if c.Ways <= 0 {
		return ebcperr.Invalidf("cache %s: ways %d must be positive", c.Name, c.Ways)
	}
	lines := c.SizeBytes / amo.LineSize
	if lines%uint64(c.Ways) != 0 {
		return ebcperr.Invalidf("cache %s: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / uint64(c.Ways)
	if !amo.IsPow2(sets) {
		return ebcperr.Invalidf("cache %s: %d sets is not a power of two", c.Name, sets)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Accesses uint64
	Misses   uint64
	// Fills counts lines installed (demand fills and promotions).
	Fills uint64
	// Evictions counts valid lines displaced by fills; DirtyEvictions the
	// subset needing a writeback.
	Evictions      uint64
	DirtyEvictions uint64
}

// MissRate returns misses/accesses (0 if no accesses).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache with true-LRU replacement. Its state
// is one flat, pointer-free array: set i occupies 2*Ways words starting
// at 2*Ways*i, first the Ways keys (tag+1, with 0 marking an invalid way)
// and then the Ways LRU words (stamp<<1 | dirty, where the stamp is the
// cache-wide access clock and higher is more recent). A 4-way set is one
// 64-byte host line, and the garbage collector never scans the array.
type Cache struct {
	cfg     Config
	sets    []uint64
	ways    int
	nSets   int
	setBits uint
	stamp   uint64
	stats   Stats
}

// New builds a cache from cfg. It returns an ErrInvalidConfig-classified
// error if the configuration fails Validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := int(cfg.SizeBytes / amo.LineSize / uint64(cfg.Ways))
	return &Cache{
		cfg:     cfg,
		sets:    make([]uint64, 2*nSets*cfg.Ways),
		ways:    cfg.Ways,
		nSets:   nSets,
		setBits: amo.Log2(uint64(nSets)),
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.nSets }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters (used at the warmup/measure
// boundary) without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// locate returns the key and LRU words of the line's set and the key the
// line is stored under.
//
//ebcp:hotpath
func (c *Cache) locate(l amo.Line) (keys, lru []uint64, key uint64) {
	base := l.SetIndex(c.nSets) * 2 * c.ways
	set := c.sets[base : base+2*c.ways]
	return set[:c.ways], set[c.ways:], l.Tag(c.setBits) + 1
}

// find returns the way holding key, or -1.
//
//ebcp:hotpath
func find(keys []uint64, key uint64) int {
	for i, k := range keys {
		if k == key {
			return i
		}
	}
	return -1
}

// Lookup probes for the line without updating statistics or LRU state.
//
//ebcp:hotpath
func (c *Cache) Lookup(l amo.Line) bool {
	keys, _, key := c.locate(l)
	return find(keys, key) >= 0
}

// Access probes for the line, counting the access and updating LRU on a
// hit. It returns whether the line was present.
//
//ebcp:hotpath
func (c *Cache) Access(l amo.Line) bool {
	c.stats.Accesses++
	keys, lru, key := c.locate(l)
	if i := find(keys, key); i >= 0 {
		c.stamp++
		lru[i] = c.stamp<<1 | lru[i]&1
		return true
	}
	c.stats.Misses++
	return false
}

// Fill installs the line (e.g. on a demand fill or a prefetch-buffer
// promotion), evicting the LRU way if the set is full. It returns the
// evicted line, whether an eviction occurred, and whether the victim was
// dirty (needs a writeback).
//
//ebcp:hotpath
func (c *Cache) Fill(l amo.Line, dirty bool) (victim amo.Line, evicted, victimDirty bool) {
	keys, lru, key := c.locate(l)
	c.stamp++
	var d uint64
	if dirty {
		d = 1
	}
	// Already present (e.g. racing fills): refresh.
	if i := find(keys, key); i >= 0 {
		lru[i] = c.stamp<<1 | lru[i]&1 | d
		return 0, false, false
	}
	c.stats.Fills++
	// The victim is the first invalid way, else the least recently used.
	// Valid ways carry distinct stamps, so the dirty bit never decides.
	vi, full := 0, true
	for i, k := range keys {
		if k == 0 {
			vi, full = i, false
			break
		}
		if lru[i] < lru[vi] {
			vi = i
		}
	}
	if full {
		victim = amo.Line((keys[vi]-1)<<c.setBits | uint64(l.SetIndex(c.nSets)))
		evicted = true
		victimDirty = lru[vi]&1 != 0
		c.stats.Evictions++
		if victimDirty {
			c.stats.DirtyEvictions++
		}
	}
	keys[vi], lru[vi] = key, c.stamp<<1|d
	return victim, evicted, victimDirty
}

// Touch refreshes the LRU position of the line if present (used when an
// upper-level hit should keep the L2 copy warm), without counting an
// access.
//
//ebcp:hotpath
func (c *Cache) Touch(l amo.Line) {
	keys, lru, key := c.locate(l)
	if i := find(keys, key); i >= 0 {
		c.stamp++
		lru[i] = c.stamp<<1 | lru[i]&1
	}
}

// Invalidate removes the line if present, returning whether it was there.
//
//ebcp:hotpath
func (c *Cache) Invalidate(l amo.Line) bool {
	keys, _, key := c.locate(l)
	if i := find(keys, key); i >= 0 {
		keys[i] = 0
		return true
	}
	return false
}
