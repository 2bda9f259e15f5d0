// Package corrtab models the main-memory-resident correlation table shared
// by the epoch-based correlation prefetcher and Solihin's memory-side
// prefetcher.
//
// The table is direct-mapped (Section 3.4.2: "to reduce the memory
// bandwidth needed to access the table, it is direct-mapped") and each
// entry fits within the 64B unit of memory transfer: a tag, LRU
// information, and a bounded list of compressed prefetch addresses. The
// on-chip prefetcher control computes entry addresses by adding the index
// to the table's base physical address; here we model the entry *contents*
// and leave the memory traffic (reads, update writes, LRU writes) to the
// caller, which charges it against the interconnect model.
//
// Storage is sparse (only touched indices are materialized) but flat:
// entries live in dense pages of fixed-capacity slots — a tag, a length,
// and an inline MaxAddrs-line address array carved out of one per-page
// backing slice — and a small open-addressed index maps touched table
// indices to slots. An 8M-entry idealized table therefore still costs
// memory proportional to its working set, not its architected size,
// while the steady state (update, lookup, touch) runs without pointer
// chasing or per-entry allocation; new storage is only allocated one
// page (or one index doubling) at a time. A slot is live from the moment
// its index is first written, so the arena never holds a dead entry.
package corrtab

import (
	"sort"

	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
)

// Config shapes a correlation table.
type Config struct {
	// Entries is the number of direct-mapped entries (a power of two).
	// One million entries (64MB of main memory) is the paper's tuned
	// configuration; the idealized design-space starting point is 8M.
	Entries int
	// MaxAddrs bounds prefetch addresses per entry. Eight fit comfortably
	// in a 64B line with compressed addresses (Section 3.4.2); the
	// idealized configuration stores 32 (entries spanning multiple lines).
	MaxAddrs int
}

// Validate reports configuration errors. All errors match
// ebcperr.ErrInvalidConfig under errors.Is.
func (c Config) Validate() error {
	if c.Entries <= 0 || !amo.IsPow2(uint64(c.Entries)) {
		return ebcperr.Invalidf("corrtab: entries %d must be a positive power of two", c.Entries)
	}
	if c.MaxAddrs <= 0 {
		return ebcperr.Invalidf("corrtab: max addrs %d must be positive", c.MaxAddrs)
	}
	if c.MaxAddrs > maxAddrsLimit {
		return ebcperr.Invalidf("corrtab: max addrs %d exceeds limit %d", c.MaxAddrs, maxAddrsLimit)
	}
	return nil
}

// maxAddrsLimit bounds per-entry address capacity (the slot length field
// is a uint16; real configurations use 8 or 32).
const maxAddrsLimit = 1 << 15

// Stats counts table activity.
type Stats struct {
	Lookups     uint64
	Hits        uint64
	Allocations uint64
	// ConflictEvictions counts allocations that displaced a live entry of
	// a different tag (direct-mapped conflict).
	ConflictEvictions uint64
	Updates           uint64
	Touches           uint64
}

// HitRate returns hits/lookups.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// pageShift sizes the entry pages: 512 fixed-capacity slots per page.
const (
	pageShift = 9
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// page is one dense block of entry slots. Addresses are kept MRU-first
// in the slot's inline span of the page's flat backing array (the span's
// order encodes the 64B entry's LRU information).
type page struct {
	tags [pageSize]uint64
	ns   [pageSize]uint16
	// addrs holds pageSize fixed-capacity spans of MaxAddrs lines each.
	addrs []amo.Line
}

// Table is the sparse direct-mapped correlation table.
type Table struct {
	cfg  Config
	mask uint64

	// pages is the append-only slot arena; nextSlot is the first unused
	// slot (pages are filled densely in allocation order). Every slot
	// below nextSlot holds a live entry, one per touched index.
	pages    []*page
	nextSlot uint32

	// Open-addressed index: table index -> arena slot. Keys are stored
	// as index+1 so the zero value means empty; the index only grows.
	idxKeys  []uint64
	idxSlots []uint32
	idxMask  uint64
	idxLen   int

	stats Stats
}

// New builds a table. It returns an ErrInvalidConfig-classified error if
// the configuration fails Validate.
func New(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	const initIdx = 1024
	return &Table{
		cfg:      cfg,
		mask:     uint64(cfg.Entries - 1),
		idxKeys:  make([]uint64, initIdx),
		idxSlots: make([]uint32, initIdx),
		idxMask:  initIdx - 1,
	}, nil
}

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// Stats returns a copy of the counters.
func (t *Table) Stats() Stats { return t.stats }

// ResetStats zeroes the counters.
func (t *Table) ResetStats() { t.stats = Stats{} }

// Index returns the direct-mapped index of a key line.
//
//ebcp:hotpath
func (t *Table) Index(key amo.Line) uint64 { return uint64(key) & t.mask }

// idxHash spreads table indices over the open-addressed index.
//
//ebcp:hotpath
func idxHash(idx uint64) uint64 {
	h := idx * 0x9e3779b97f4a7c15
	return h ^ (h >> 29)
}

// findSlot returns the arena slot for a table index, if indexed.
//
//ebcp:hotpath
func (t *Table) findSlot(idx uint64) (uint32, bool) {
	key := idx + 1
	for i := idxHash(idx) & t.idxMask; ; i = (i + 1) & t.idxMask {
		switch t.idxKeys[i] {
		case key:
			return t.idxSlots[i], true
		case 0:
			return 0, false
		}
	}
}

// indexSlot binds a table index to an arena slot, growing the index when
// it passes half full.
func (t *Table) indexSlot(idx uint64, slot uint32) {
	if t.idxLen*2 >= len(t.idxKeys) {
		t.growIndex()
	}
	key := idx + 1
	i := idxHash(idx) & t.idxMask
	for t.idxKeys[i] != 0 {
		i = (i + 1) & t.idxMask
	}
	t.idxKeys[i], t.idxSlots[i] = key, slot
	t.idxLen++
}

func (t *Table) growIndex() {
	oldKeys, oldSlots := t.idxKeys, t.idxSlots
	n := len(oldKeys) * 2
	t.idxKeys = make([]uint64, n)
	t.idxSlots = make([]uint32, n)
	t.idxMask = uint64(n - 1)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := idxHash(k-1) & t.idxMask
		for t.idxKeys[j] != 0 {
			j = (j + 1) & t.idxMask
		}
		t.idxKeys[j], t.idxSlots[j] = k, oldSlots[i]
	}
}

// slot dereferences an arena slot into its page and in-page position.
//
//ebcp:hotpath
func (t *Table) slot(s uint32) (*page, uint32) {
	return t.pages[s>>pageShift], s & pageMask
}

// newSlot appends a fresh slot to the arena, materializing a page when the
// current one is full.
func (t *Table) newSlot() uint32 {
	s := t.nextSlot
	if int(s>>pageShift) == len(t.pages) {
		t.pages = append(t.pages, &page{addrs: make([]amo.Line, pageSize*t.cfg.MaxAddrs)})
	}
	t.nextSlot++
	return s
}

// span returns the slot's inline fixed-capacity address array.
//
//ebcp:hotpath
func (p *page) span(s uint32, max int) []amo.Line {
	off := int(s) * max
	return p.addrs[off : off+max : off+max]
}

// Lookup returns the prefetch addresses stored under key (MRU first), or
// nil when the indexed entry holds a different tag or is empty. The
// returned slice aliases table state and must not be retained across
// updates.
//
//ebcp:hotpath
func (t *Table) Lookup(key amo.Line) []amo.Line {
	t.stats.Lookups++
	s, ok := t.findSlot(t.Index(key))
	if !ok {
		return nil
	}
	p, ps := t.slot(s)
	if p.tags[ps] != uint64(key) {
		return nil
	}
	t.stats.Hits++
	return p.span(ps, t.cfg.MaxAddrs)[:p.ns[ps]]
}

// Update merges addrs into the entry for key, in the order given (highest
// priority first — the paper gives priority to the misses of the older
// epoch). Present addresses move to MRU; new ones are inserted at MRU,
// displacing the LRU addresses when the entry is full. A tag mismatch
// reallocates the entry (direct-mapped conflict overwrite).
//
//ebcp:hotpath
func (t *Table) Update(key amo.Line, addrs []amo.Line) {
	t.stats.Updates++
	idx := t.Index(key)
	s, indexed := t.findSlot(idx)
	var p *page
	var ps uint32
	if indexed {
		p, ps = t.slot(s)
	}
	if !indexed || p.tags[ps] != uint64(key) {
		if indexed {
			t.stats.ConflictEvictions++
		} else {
			s = t.newSlot()
			t.indexSlot(idx, s)
			p, ps = t.slot(s)
		}
		t.stats.Allocations++
		p.tags[ps] = uint64(key)
		p.ns[ps] = 0
		if len(addrs) > t.cfg.MaxAddrs {
			addrs = addrs[:t.cfg.MaxAddrs]
		}
	}
	// Merge, highest priority last inserted so it ends most-recently-used:
	// iterate in reverse so addrs[0] lands at the front.
	span := p.span(ps, t.cfg.MaxAddrs)
	n := int(p.ns[ps])
	for i := len(addrs) - 1; i >= 0; i-- {
		n = promote(span, n, addrs[i])
	}
	p.ns[ps] = uint16(n)
}

// promote moves a to the MRU position of the n-entry span, inserting it if
// absent and evicting the LRU address if the span is at capacity. It
// returns the new entry count.
//
//ebcp:hotpath
func promote(span []amo.Line, n int, a amo.Line) int {
	for i := 0; i < n; i++ {
		if span[i] == a {
			copy(span[1:i+1], span[:i])
			span[0] = a
			return n
		}
	}
	if n < len(span) {
		n++
	}
	copy(span[1:n], span)
	span[0] = a
	return n
}

// Touch records a prefetch-buffer hit: the used address moves to the MRU
// position of the entry at the given index (Section 3.4.3: each prefetch
// buffer entry carries the index of the generating correlation table
// entry so its LRU information can be updated). The caller charges the
// corresponding table write.
//
//ebcp:hotpath
func (t *Table) Touch(index uint64, used amo.Line) {
	s, ok := t.findSlot(index & t.mask)
	if !ok {
		return
	}
	p, ps := t.slot(s)
	span := p.span(ps, t.cfg.MaxAddrs)
	for i := 0; i < int(p.ns[ps]); i++ {
		if span[i] == used {
			copy(span[1:i+1], span[:i])
			span[0] = used
			t.stats.Touches++
			return
		}
	}
}

// Occupancy returns how many distinct indices are materialized (for tests
// and memory accounting).
func (t *Table) Occupancy() int { return int(t.nextSlot) }

// Row is one live entry in export form: the full key line (whose
// direct-mapped index is Tag & (Entries-1)) and its prefetch addresses,
// MRU first — exactly the order Lookup returns.
type Row struct {
	Tag   amo.Line
	Addrs []amo.Line
}

// Rows exports every live entry, sorted by table index. Since the table
// is direct-mapped, at most one live entry exists per index, making the
// order a deterministic function of the table's contents — independent
// of insertion order and arena layout. The serializer depends on this
// determinism for byte-stable output.
func (t *Table) Rows() []Row {
	rows := make([]Row, 0, t.nextSlot)
	for s := uint32(0); s < t.nextSlot; s++ {
		p, ps := t.slot(s)
		span := p.span(ps, t.cfg.MaxAddrs)[:p.ns[ps]]
		rows = append(rows, Row{
			Tag:   amo.Line(p.tags[ps]),
			Addrs: append([]amo.Line(nil), span...),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		return t.Index(rows[i].Tag) < t.Index(rows[j].Tag)
	})
	return rows
}
