package prefetch

import (
	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
)

// GHB is the Global History Buffer prefetcher of Nesbit and Smith in its
// PC/DC (program counter indexed, delta correlating) variant — the scheme
// Perez et al found best among twelve recent prefetchers and the paper's
// first comparison point (Section 5.3).
//
// PC/DC semantics: misses are appended to a global history buffer; an
// index table keyed by PC chains each PC's misses together; on a miss,
// the most recent *delta pair* of its PC is located earlier in the chain,
// and the deltas that followed that earlier occurrence are replayed from
// the current address as prefetches (depth prefetching, degree 6 in the
// comparison).
//
// Implementation note: the textbook realization walks the PC's linked
// list through the circular buffer to find the previous occurrence of the
// current delta pair. On commercial-style miss streams the recurrence
// distance is tens of thousands of misses, so any bounded walk finds
// nothing and an unbounded walk is neither hardware- nor
// simulation-feasible. We therefore realize the same function as a
// delta-pair correlation table: entries keyed by (PC, d1, d2) record the
// deltas that followed, with FIFO replacement bounding the entry count to
// the history-buffer budget. This computes exactly what the linked-list
// search computes — the continuation of the most recent earlier
// occurrence of the pair — while modelling the storage capacity honestly:
// GHB small (16K-entry index table + 16K-entry buffer, ~256KB) thrashes
// on working sets that GHB large (256K entries each, ~4MB) captures.
//
// Both tables are slot rings: entry state lives in flat arrays indexed by
// FIFO position (eviction overwrites in place), and an open-addressed
// index maps keys to slots. The arrays and the index grow with use up to
// the architected capacity, so a short run pays only for the entries it
// touches; once a ring is full the miss-stream hot path runs map-free
// and allocation-free.
type GHB struct {
	label    string
	degree   int
	depth    int
	capacity int
	idxSize  int

	// Delta-pair continuation table with FIFO eviction: slot s holds key
	// tabKeys[s] and its tabLens[s] continuation deltas at
	// tabDeltas[s*depth:].
	tabKeys   []uint64
	tabLens   []uint16
	tabDeltas []int64
	tabN      int
	tabPos    int
	tabIdx    oaMap

	// Per-PC recent-address state with FIFO eviction (the index table):
	// slot s holds the PC's last two miss lines, and the keys of its last
	// `depth` delta pairs (newest last) at pcRecent[s*depth:].
	pcKeys   []uint64
	pcLast0  []amo.Line
	pcLast1  []amo.Line
	pcHave   []uint8
	pcRecLen []uint16
	pcRecent []uint64
	pcN      int
	pcPos    int
	pcIdx    oaMap
}

// ifetchPC is the synthetic index-table key under which all instruction
// misses are chained, making the instruction stream one delta-correlated
// history.
const ifetchPC = amo.PC(1)

// NewGHB builds a GHB PC/DC prefetcher with the given index-table and
// history-buffer sizes and prefetch degree. A bad shape returns an
// ErrInvalidConfig-classified error.
func NewGHB(label string, indexEntries, bufferEntries, degree int) (*GHB, error) {
	if indexEntries <= 0 || bufferEntries <= 0 || degree <= 0 || degree > 1<<15 {
		return nil, ebcperr.Invalidf("prefetch: invalid GHB shape (index %d, buffer %d, degree %d)", indexEntries, bufferEntries, degree)
	}
	return &GHB{
		label:    label,
		degree:   degree,
		depth:    degree,
		capacity: bufferEntries,
		idxSize:  indexEntries,
		tabIdx:   newOAMap(),
		pcIdx:    newOAMap(),
	}, nil
}

// GHBSmall is the paper's 256KB configuration at the comparison degree.
func GHBSmall(degree int) (*GHB, error) { return NewGHB("GHB small", 16<<10, 16<<10, degree) }

// GHBLarge is the paper's 4MB configuration at the comparison degree.
func GHBLarge(degree int) (*GHB, error) { return NewGHB("GHB large", 256<<10, 256<<10, degree) }

// Name implements Prefetcher.
func (g *GHB) Name() string { return g.label }

//ebcp:hotpath
func ghbKey(pc amo.PC, d1, d2 int64) uint64 {
	const m1, m2, m3 = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb
	h := uint64(pc) * m1
	h = (h ^ uint64(d1)) * m2
	h = (h ^ uint64(d2)) * m3
	return h ^ (h >> 31)
}

// oaMap is an open-addressed hash map (linear probing, backward-shift
// deletion) from uint64 keys to slot numbers. It starts at oaMinSize
// probe slots and doubles before a put would pass half load. Its owner
// holds at most one key per ring slot, so for a ring of E slots the map
// never outgrows the smallest power of two, at least oaMinSize, covering
// 2E. vals[i] < 0 marks an empty probe slot, which lets keys take any
// uint64 value.
type oaMap struct {
	mask uint64
	keys []uint64
	vals []int32
	n    int // live keys
}

// oaMinSize is the probe-slot count every oaMap starts at.
const oaMinSize = 16

// newOAMap builds an empty map.
func newOAMap() oaMap {
	var m oaMap
	m.resize(oaMinSize)
	return m
}

// resize rehashes the map into n (a power of two) empty probe slots.
func (m *oaMap) resize(n int) {
	keys, vals := m.keys, m.vals
	m.mask = uint64(n - 1)
	m.keys = make([]uint64, n)
	m.vals = make([]int32, n)
	for i := range m.vals {
		m.vals[i] = -1
	}
	for i, v := range vals {
		if v >= 0 {
			m.insert(keys[i], v)
		}
	}
}

//ebcp:hotpath
func oaHash(key uint64) uint64 {
	h := key * 0x9e3779b97f4a7c15
	return h ^ (h >> 29)
}

//ebcp:hotpath
func (m *oaMap) get(key uint64) (int32, bool) {
	for i := oaHash(key) & m.mask; m.vals[i] >= 0; i = (i + 1) & m.mask {
		if m.keys[i] == key {
			return m.vals[i], true
		}
	}
	return 0, false
}

// put inserts key (which must not be present) with the given slot
// value, doubling the map first if the insert would pass half load.
//
//ebcp:hotpath
func (m *oaMap) put(key uint64, v int32) {
	if 2*(m.n+1) > len(m.keys) {
		m.resize(2 * len(m.keys))
	}
	m.insert(key, v)
	m.n++
}

// insert places key in the first free probe slot of its chain.
//
//ebcp:hotpath
func (m *oaMap) insert(key uint64, v int32) {
	i := oaHash(key) & m.mask
	for m.vals[i] >= 0 {
		i = (i + 1) & m.mask
	}
	m.keys[i], m.vals[i] = key, v
}

// del removes key if present, back-shifting the probe chain so no
// tombstones accumulate.
//
//ebcp:hotpath
func (m *oaMap) del(key uint64) {
	i := oaHash(key) & m.mask
	for {
		if m.vals[i] < 0 {
			return
		}
		if m.keys[i] == key {
			break
		}
		i = (i + 1) & m.mask
	}
	m.n--
	j := i
	for {
		j = (j + 1) & m.mask
		if m.vals[j] < 0 {
			break
		}
		// The entry at j may fill the hole at i only if its home slot is
		// cyclically outside (i, j] — otherwise moving it would break its
		// own probe chain.
		h := oaHash(m.keys[j]) & m.mask
		var movable bool
		if i <= j {
			movable = h <= i || h > j
		} else {
			movable = h <= i && h > j
		}
		if movable {
			m.keys[i], m.vals[i] = m.keys[j], m.vals[j]
			i = j
		}
	}
	m.vals[i] = -1
}

// pcSlot returns the index-table slot for a PC, allocating (with FIFO
// eviction) if absent.
//
//ebcp:hotpath
func (g *GHB) pcSlot(key amo.PC) int32 {
	if s, ok := g.pcIdx.get(uint64(key)); ok {
		return s
	}
	var s int32
	if g.pcN < g.idxSize {
		s = int32(g.pcN)
		g.growPC()
	} else {
		s = int32(g.pcPos)
		g.pcIdx.del(g.pcKeys[s])
		g.pcPos = (g.pcPos + 1) % g.idxSize
	}
	g.pcKeys[s] = uint64(key)
	g.pcHave[s] = 0
	g.pcRecLen[s] = 0
	g.pcIdx.put(uint64(key), s)
	return s
}

// growPC hands out the next index-table slot while the ring is still
// filling, extending every per-slot array to cover it.
func (g *GHB) growPC() {
	g.pcN++
	n, c := g.pcN, g.idxSize
	g.pcKeys = extend(g.pcKeys, n, c)
	g.pcLast0 = extend(g.pcLast0, n, c)
	g.pcLast1 = extend(g.pcLast1, n, c)
	g.pcHave = extend(g.pcHave, n, c)
	g.pcRecLen = extend(g.pcRecLen, n, c)
	g.pcRecent = extend(g.pcRecent, n*g.depth, c*g.depth)
}

// growTab hands out the next continuation-table slot while the ring is
// still filling, extending every per-slot array to cover it.
func (g *GHB) growTab() {
	g.tabN++
	n, c := g.tabN, g.capacity
	g.tabKeys = extend(g.tabKeys, n, c)
	g.tabLens = extend(g.tabLens, n, c)
	g.tabDeltas = extend(g.tabDeltas, n*g.depth, c*g.depth)
}

// extend returns s lengthened to n elements (n <= limit). When the
// backing array runs out it doubles, but never past limit elements, the
// table's architected size; elements past the old length are zero.
func extend[T any](s []T, n, limit int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	t := make([]T, n, min(max(2*cap(s), n, 64), limit))
	copy(t, s)
	return t
}

// newTabSlot allocates a continuation-table slot for key (which must not
// be present), evicting FIFO when the ring is full.
//
//ebcp:hotpath
func (g *GHB) newTabSlot(key uint64) int32 {
	var s int32
	if g.tabN < g.capacity {
		s = int32(g.tabN)
		g.growTab()
	} else {
		s = int32(g.tabPos)
		g.tabIdx.del(g.tabKeys[s])
		g.tabPos = (g.tabPos + 1) % g.capacity
	}
	g.tabKeys[s] = key
	g.tabLens[s] = 0
	g.tabIdx.put(key, s)
	return s
}

// OnAccess implements Prefetcher.
//
//ebcp:hotpath
func (g *GHB) OnAccess(a Access, ctx *Context) {
	// GHB trains on the L2 miss stream; prefetch-buffer hits are treated
	// as misses for training (they were misses before prefetching).
	if a.L2Hit || a.MissMerged {
		return
	}
	key := a.PC
	if a.IFetch {
		key = ifetchPC
	}
	s := g.pcSlot(key)
	switch g.pcHave[s] {
	case 0:
		g.pcLast1[s] = a.Line
		g.pcHave[s] = 1
		return
	case 1:
		g.pcLast0[s], g.pcLast1[s] = g.pcLast1[s], a.Line
		g.pcHave[s] = 2
		return
	}

	d := int64(a.Line) - int64(g.pcLast1[s])
	// Extend the continuations of the recent pairs with this delta: the
	// pair that ended j misses ago learns this as its j-th follower (the
	// most recent occurrence wins, as in the linked-list search).
	recent := g.pcRecent[int(s)*g.depth:][:g.pcRecLen[s]]
	for j := len(recent) - 1; j >= 0; j-- {
		ts, ok := g.tabIdx.get(recent[j])
		if !ok {
			continue
		}
		age := len(recent) - 1 - j
		switch n := int(g.tabLens[ts]); {
		case n == age:
			g.tabDeltas[int(ts)*g.depth+age] = d
			g.tabLens[ts] = uint16(age + 1)
		case n > age:
			g.tabDeltas[int(ts)*g.depth+age] = d
		}
	}

	d1 := int64(g.pcLast1[s]) - int64(g.pcLast0[s])
	k := ghbKey(key, d1, d)

	// Predict: replay the continuation recorded for this pair.
	if ts, ok := g.tabIdx.get(k); ok {
		if n := int(g.tabLens[ts]); n > 0 {
			cur := a.Line
			deltas := g.tabDeltas[int(ts)*g.depth:][:n]
			for i := 0; i < len(deltas) && i < g.degree; i++ {
				cur = cur.Add(deltas[i])
				ctx.Prefetch(a.Now, cur, NoTable)
			}
		}
	} else {
		g.newTabSlot(k) // allocate so followers can train it
	}

	// Slide state.
	rec := g.pcRecent[int(s)*g.depth:][:g.depth]
	if n := int(g.pcRecLen[s]); n < g.depth {
		rec[n] = k
		g.pcRecLen[s] = uint16(n + 1)
	} else {
		copy(rec, rec[1:])
		rec[g.depth-1] = k
	}
	g.pcLast0[s], g.pcLast1[s] = g.pcLast1[s], a.Line
}
