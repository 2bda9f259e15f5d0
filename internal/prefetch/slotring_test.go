package prefetch

import (
	"math/rand"
	"testing"

	"ebcp/internal/amo"
)

// oaBound is the probe-slot count an oaMap whose owner holds at most
// entries keys may reach: the smallest power of two, at least
// oaMinSize, covering twice the bound.
func oaBound(entries int) int {
	n := oaMinSize
	for n < 2*entries {
		n *= 2
	}
	return n
}

// checkOAMap compares m against the oracle and checks the load and
// size invariants.
func checkOAMap(t *testing.T, op int, m *oaMap, oracle map[uint64]int32, entries int) {
	t.Helper()
	if m.n != len(oracle) {
		t.Fatalf("op %d: map counts %d keys, oracle holds %d", op, m.n, len(oracle))
	}
	if 2*m.n > len(m.keys) {
		t.Fatalf("op %d: %d keys in %d probe slots passes half load", op, m.n, len(m.keys))
	}
	if len(m.keys) > oaBound(entries) {
		t.Fatalf("op %d: %d probe slots exceed the %d-slot bound for %d entries", op, len(m.keys), oaBound(entries), entries)
	}
	live := 0
	for _, v := range m.vals {
		if v >= 0 {
			live++
		}
	}
	if live != len(oracle) {
		t.Fatalf("op %d: %d occupied probe slots, oracle holds %d keys", op, live, len(oracle))
	}
	for k, want := range oracle {
		if got, ok := m.get(k); !ok || got != want {
			t.Fatalf("op %d: get(%#x) = %d, %v; want %d", op, k, got, ok, want)
		}
	}
}

// TestOAMapDifferential drives an oaMap with random put/get/del against
// a Go map, the way its owners do: never more than `entries` live keys,
// with the oldest key deleted before each put once full. Most keys come
// from a small pool (so gets and deletes hit); the rest are homed at the
// last two probe slots, so their chains wrap past the end of the array
// and back-shift deletes move entries across the wrap, including right
// after a doubling.
func TestOAMapDifferential(t *testing.T) {
	for _, entries := range []int{1, 7, 100, 1000} {
		rng := rand.New(rand.NewSource(int64(entries)))
		m := newOAMap()
		oracle := map[uint64]int32{}
		var live []uint64 // oracle's keys in insertion order
		drop := func(k uint64) {
			for i, l := range live {
				if l == k {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
			m.del(k)
			delete(oracle, k)
		}
		key := func() uint64 {
			if rng.Intn(8) != 0 {
				return uint64(rng.Intn(4 * entries))
			}
			// A key whose home slot is one of the last two of the current
			// array, so its probe chain wraps.
			for {
				k := rng.Uint64()
				if oaHash(k)&m.mask >= m.mask-1 {
					return k
				}
			}
		}
		for op := 0; op < 2000+4*entries; op++ {
			k := key()
			switch r := rng.Intn(10); {
			case r < 5:
				if _, ok := oracle[k]; ok {
					break
				}
				if len(live) == entries {
					drop(live[0])
				}
				v := int32(rng.Intn(entries))
				m.put(k, v)
				oracle[k] = v
				live = append(live, k)
			case r < 8:
				drop(k)
			default:
				got, ok := m.get(k)
				want, wok := oracle[k]
				if ok != wok || got != want {
					t.Fatalf("entries %d op %d: get(%#x) = %d, %v; want %d, %v", entries, op, k, got, ok, want, wok)
				}
			}
			checkOAMap(t, op, &m, oracle, entries)
		}
		if len(m.keys) < oaBound(entries)/2 {
			t.Errorf("entries %d: map ended at %d probe slots, never near its %d bound", entries, len(m.keys), oaBound(entries))
		}
	}
}

// TestOAMapDeleteWrapsAfterDoubling pins the back-shift case the random
// test reaches only by chance: a probe chain that wraps from the last
// slot to the first, deleted right after the put that doubled the map.
func TestOAMapDeleteWrapsAfterDoubling(t *testing.T) {
	m := newOAMap()
	oracle := map[uint64]int32{}
	// Fill to half load, then one more put doubles to 32 slots.
	for k := uint64(0); len(oracle) < oaMinSize/2; k++ {
		m.put(k, int32(k))
		oracle[k] = int32(k)
	}
	if len(m.keys) != oaMinSize {
		t.Fatalf("map at %d slots before the doubling put, want %d", len(m.keys), oaMinSize)
	}
	// Three keys homed at the last slot of the doubled map: the chain
	// wraps to slots 0 and 1 (or further, past any resident keys).
	var wrap []uint64
	for k := uint64(1 << 40); len(wrap) < 3; k++ {
		if oaHash(k)&uint64(2*oaMinSize-1) == uint64(2*oaMinSize-1) {
			wrap = append(wrap, k)
		}
	}
	for i, k := range wrap {
		m.put(k, int32(100+i))
		oracle[k] = int32(100 + i)
		if i == 0 && len(m.keys) != 2*oaMinSize {
			t.Fatalf("map at %d slots after the doubling put, want %d", len(m.keys), 2*oaMinSize)
		}
	}
	for op, k := range wrap {
		m.del(k)
		delete(oracle, k)
		checkOAMap(t, op, &m, oracle, 2*oaMinSize)
	}
}

// slotBytes is the backing storage a GHB holds: every slot array at its
// capacity plus both index maps.
func (g *GHB) slotBytes() int {
	return 8*cap(g.tabKeys) + 2*cap(g.tabLens) + 8*cap(g.tabDeltas) +
		8*cap(g.pcKeys) + 8*cap(g.pcLast0) + 8*cap(g.pcLast1) + cap(g.pcHave) + 2*cap(g.pcRecLen) + 8*cap(g.pcRecent) +
		12*len(g.tabIdx.keys) + 12*len(g.pcIdx.keys)
}

// feedDistinct drives g with n misses on pseudo-random lines from pcs
// PCs, so nearly every miss makes a new index- or continuation-table
// entry.
func feedDistinct(g *GHB, n, pcs int) {
	ctx := testContext()
	rng := uint64(7)
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		feed(g, ctx, uint64(i)*100, amo.Line(rng>>20), amo.PC(0x1000+rng%uint64(pcs)), false)
		ctx.Buffer.Invalidate(amo.Line(rng >> 20))
	}
}

// TestGHBStorageGrowsWithUse feeds GHB large N distinct miss keys and
// checks that it holds storage proportional to the entries it made,
// not its 256K-entry budget.
func TestGHBStorageGrowsWithUse(t *testing.T) {
	const degree = 6
	// Per live entry: one slot in each array of its table (the larger,
	// index-table slot is 75 bytes at degree 6), up to 2× for doubling,
	// and up to four 12-byte probe slots.
	const perEntry = 2*(8+8+8+1+2+8*degree) + 4*12
	for _, n := range []int{1000, 10000, 50000} {
		g := must(GHBLarge(degree))
		feedDistinct(g, n, n/4)
		live := g.pcN + g.tabN
		if live < n/2 {
			t.Fatalf("N=%d: only %d live entries; the feed should make about N", n, live)
		}
		if got, limit := g.slotBytes(), perEntry*live+4096; got > limit {
			t.Errorf("N=%d: %d live entries hold %d bytes, want at most %d", n, live, got, limit)
		}
	}
}

// TestGHBStorageStopsAtCapacity fills GHB small well past its 16K-entry
// tables: once full the rings wrap in place, and no array outgrows its
// table's architected size.
func TestGHBStorageStopsAtCapacity(t *testing.T) {
	g := must(GHBSmall(6))
	feedDistinct(g, 100000, 20000)
	if g.pcN != g.idxSize || g.tabN != g.capacity {
		t.Fatalf("rings hold %d/%d and %d/%d entries; the feed should fill both", g.pcN, g.idxSize, g.tabN, g.capacity)
	}
	for _, a := range []struct {
		name       string
		cap, limit int
	}{
		{"tabKeys", cap(g.tabKeys), g.capacity},
		{"tabLens", cap(g.tabLens), g.capacity},
		{"tabDeltas", cap(g.tabDeltas), g.capacity * g.depth},
		{"pcKeys", cap(g.pcKeys), g.idxSize},
		{"pcLast0", cap(g.pcLast0), g.idxSize},
		{"pcLast1", cap(g.pcLast1), g.idxSize},
		{"pcHave", cap(g.pcHave), g.idxSize},
		{"pcRecLen", cap(g.pcRecLen), g.idxSize},
		{"pcRecent", cap(g.pcRecent), g.idxSize * g.depth},
		{"tabIdx", len(g.tabIdx.keys), oaBound(g.capacity)},
		{"pcIdx", len(g.pcIdx.keys), oaBound(g.idxSize)},
	} {
		if a.cap > a.limit {
			t.Errorf("%s holds %d elements, above its architected %d", a.name, a.cap, a.limit)
		}
	}
}
