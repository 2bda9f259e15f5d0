package prefetch

import (
	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
)

// TCP is the Tag Correlating Prefetcher of Hu, Martonosi and Kaxiras
// (HPCA 2003), the paper's second comparison point. Instead of
// correlating full miss addresses, TCP correlates cache *tags* within a
// set: a Tag History Table (THT) keeps the last miss tag of each cache
// set, and a Pattern History Table (PHT), indexed by a hash of the set
// and that tag, predicts the next tag. Chained PHT lookups generate
// deeper prefetches. TCP targets load misses only.
//
// This is TCP-1, the one-tag history depth: the more robust variant on
// interleaved commercial miss streams, and the only one the
// reproduction evaluates.
//
// Two configurations are evaluated (Section 5.3): TCP small with 2048
// PHT sets of 16 ways (~256KB at 45-bit physical addresses) and TCP
// large with 32K PHT sets of 16 ways (~4MB). The THT has 128 entries,
// matching the number of sets in the simulated L1 data cache.
type TCP struct {
	label   string
	degree  int
	setBits uint

	tht []thtEntry
	pht *phtTable
}

type thtEntry struct {
	tag   uint64 // most recent miss tag of the set
	valid bool
}

// phtTable is a set-associative tag-prediction table with LRU
// replacement.
type phtTable struct {
	sets  int
	ways  int
	lines []phtWay
	stamp uint64
}

type phtWay struct {
	key     uint64 // full history hash, acts as the tag
	nextTag uint64
	valid   bool
	// confident is set once the same successor has been observed twice in
	// a row; only confident mappings generate prefetches (the hysteresis
	// keeps near-random set streams from flooding the prefetch buffer).
	confident bool
	lru       uint64
}

func newPHT(sets, ways int) *phtTable {
	return &phtTable{sets: sets, ways: ways, lines: make([]phtWay, sets*ways)}
}

//ebcp:hotpath
func (p *phtTable) set(key uint64) []phtWay {
	si := int(key % uint64(p.sets))
	return p.lines[si*p.ways : (si+1)*p.ways]
}

//ebcp:hotpath
func (p *phtTable) lookup(key uint64) (next uint64, confident, ok bool) {
	set := p.set(key)
	for i := range set {
		if set[i].valid && set[i].key == key {
			p.stamp++
			set[i].lru = p.stamp
			return set[i].nextTag, set[i].confident, true
		}
	}
	return 0, false, false
}

//ebcp:hotpath
func (p *phtTable) update(key, nextTag uint64) {
	set := p.set(key)
	p.stamp++
	for i := range set {
		if set[i].valid && set[i].key == key {
			set[i].confident = set[i].nextTag == nextTag
			set[i].nextTag = nextTag
			set[i].lru = p.stamp
			return
		}
	}
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			goto place
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
place:
	set[vi] = phtWay{key: key, nextTag: nextTag, valid: true, lru: p.stamp}
}

// NewTCP builds a tag correlating prefetcher. thtSets should match the L1
// data cache set count (128 in the default configuration). A bad shape
// returns an ErrInvalidConfig-classified error.
func NewTCP(label string, thtSets, phtSets, phtWays, degree int) (*TCP, error) {
	if thtSets <= 0 || !amo.IsPow2(uint64(thtSets)) {
		return nil, ebcperr.Invalidf("prefetch: TCP THT sets %d must be a positive power of two", thtSets)
	}
	if phtSets <= 0 || phtWays <= 0 || degree <= 0 {
		return nil, ebcperr.Invalidf("prefetch: invalid TCP shape (PHT %dx%d, degree %d)", phtSets, phtWays, degree)
	}
	return &TCP{
		label:   label,
		degree:  degree,
		setBits: amo.Log2(uint64(thtSets)),
		tht:     make([]thtEntry, thtSets),
		pht:     newPHT(phtSets, phtWays),
	}, nil
}

// TCPSmall is the ~256KB configuration of Section 5.3.
func TCPSmall(degree int) (*TCP, error) { return NewTCP("TCP small", 128, 2048, 16, degree) }

// TCPLarge is the ~4MB configuration of Section 5.3.
func TCPLarge(degree int) (*TCP, error) { return NewTCP("TCP large", 128, 32<<10, 16, degree) }

// Name implements Prefetcher.
func (t *TCP) Name() string { return t.label }

// historyKey hashes a set index and its most recent tag into a PHT key.
//
//ebcp:hotpath
func historyKey(set int, tag uint64) uint64 {
	h := (uint64(set) ^ tag) * 0x9e3779b97f4a7c15
	return h ^ (h >> 29)
}

// OnAccess implements Prefetcher.
//
//ebcp:hotpath
func (t *TCP) OnAccess(a Access, ctx *Context) {
	if a.IFetch || a.L2Hit || a.MissMerged {
		return
	}
	nSets := len(t.tht)
	set := a.Line.SetIndex(nSets)
	tag := a.Line.Tag(t.setBits)

	e := &t.tht[set]
	// Train: the previous tag predicts this one.
	if e.valid {
		t.pht.update(historyKey(set, e.tag), tag)
	}
	e.tag = tag
	if !e.valid {
		e.valid = true
		return
	}

	// Predict: chain PHT lookups to the configured depth, following only
	// confident mappings.
	hist := tag
	for i := 0; i < t.degree; i++ {
		next, confident, ok := t.pht.lookup(historyKey(set, hist))
		if !ok || !confident {
			return
		}
		line := amo.Line(next<<t.setBits | uint64(set))
		ctx.Prefetch(a.Now, line, NoTable)
		hist = next
	}
}
