package main

import (
	"errors"
	"fmt"
	"time"

	"ebcp"
	"ebcp/internal/amo"
	"ebcp/internal/cache"
	"ebcp/internal/corrtab"
	"ebcp/internal/cpu"
	"ebcp/internal/exp"
	"ebcp/internal/mem"
	"ebcp/internal/prefetch"
	"ebcp/internal/registry"
	"ebcp/internal/sim"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// Stream sizes: large enough that every replay loop runs for
// milliseconds, small enough to hold in memory (about 32 MiB and
// 24 MiB).
const (
	streamRecs     = 1 << 20
	streamAccesses = 1 << 18
)

// streams are the two recorded inputs of the leaf replays: the
// generator's record stream and the access stream a baseline (no
// prefetching) run presents to its prefetcher.
type streams struct {
	recs []trace.Record
	accs []prefetch.Access
}

// accessRecorder is a no-op prefetcher that keeps what it observes.
type accessRecorder struct{ accs []prefetch.Access }

func (r *accessRecorder) Name() string { return "none" }

func (r *accessRecorder) OnAccess(a prefetch.Access, _ *prefetch.Context) {
	if len(r.accs) < cap(r.accs) {
		r.accs = append(r.accs, a)
	}
}

func recordStreams(bench workload.Params) (streams, error) {
	var st streams
	g, err := workload.New(bench)
	if err != nil {
		return st, err
	}
	st.recs = make([]trace.Record, streamRecs)
	for n := 0; n < len(st.recs); {
		k := trace.FillBatch(g, st.recs[n:])
		if k == 0 {
			return st, errors.New("record stream ended early")
		}
		n += k
	}
	// The baseline run over the same records, long enough to present
	// streamAccesses accesses.
	rec := &accessRecorder{accs: make([]prefetch.Access, 0, streamAccesses)}
	cfg := ebcp.DefaultSystem(bench)
	cfg.WarmInsts, cfg.MeasureInsts = 0, 1<<62
	src, err := workload.New(bench)
	if err != nil {
		return st, err
	}
	r, err := sim.NewRunner(cfg, rec)
	if err != nil {
		return st, err
	}
	if _, err := r.Run(&stopAfter{src: src, full: func() bool { return len(rec.accs) == cap(rec.accs) }}); err != nil {
		return st, err
	}
	st.accs = rec.accs
	return st, nil
}

// stopAfter ends a source once full reports true.
type stopAfter struct {
	src  trace.Source
	full func() bool
}

func (s *stopAfter) Next() (trace.Record, bool) {
	if s.full() {
		return trace.Record{}, false
	}
	return s.src.Next()
}

// perEvent times run (rebuilt by prepare, untimed) three times and
// returns the median host nanoseconds per event.
func perEvent(events int, prepare func() func()) float64 {
	var xs []float64
	for i := 0; i < 3; i++ {
		run := prepare()
		t := time.Now()
		run()
		xs = append(xs, float64(time.Since(t))/float64(events))
	}
	return median(xs)
}

// leafCosts are host nanoseconds per event of the leaf packages.
type leafCosts struct {
	l1Access, l2Access, l2Fill, pbHit, pbInsert float64
	cpuAdvance, cpuMiss, memRead, memWrite      float64
}

// kit builds the standalone leaf instances of one system
// configuration. newKit builds one of each first, so a configuration
// that does not validate fails there; later builds of the same
// configuration cannot fail.
type kit struct {
	cfg  sim.Config
	pcfg ebcp.EBCPConfig
	err  error
}

func newKit(bench workload.Params) (*kit, error) {
	k := &kit{cfg: ebcp.DefaultSystem(bench), pcfg: ebcp.TunedEBCP()}
	k.cache(k.cfg.L1I)
	k.cache(k.cfg.L1D)
	k.cache(k.cfg.L2)
	k.pb()
	k.core()
	k.mem()
	k.table()
	return k, k.err
}

func (k *kit) keep(err error) {
	if k.err == nil {
		k.err = err
	}
}

func (k *kit) cache(cc cache.Config) *cache.Cache {
	c, err := cache.New(cc)
	k.keep(err)
	return c
}

func (k *kit) pb() *cache.PrefetchBuffer {
	pb, err := cache.NewPrefetchBuffer(k.cfg.PBEntries, k.cfg.PBWays)
	k.keep(err)
	return pb
}

func (k *kit) core() *cpu.Model {
	m, err := cpu.New(k.cfg.Core)
	k.keep(err)
	return m
}

func (k *kit) mem() *mem.System {
	m, err := mem.New(k.cfg.Mem)
	k.keep(err)
	return m
}

func (k *kit) table() *corrtab.Table {
	t, err := corrtab.New(corrtab.Config{Entries: k.pcfg.TableEntries, MaxAddrs: k.pcfg.TableMaxAddrs})
	k.keep(err)
	return t
}

// replayLeaves replays the recorded streams into standalone instances
// of each leaf package and reports host ns per call.
func replayLeaves(st streams, bench workload.Params, ms map[string]metric) (leafCosts, error) {
	var c leafCosts
	k, err := newKit(bench)
	if err != nil {
		return c, err
	}
	recs, accs := st.recs, st.accs

	// Which records miss both cache levels, for the core model replay.
	l1i, l1d, l2 := k.cache(k.cfg.L1I), k.cache(k.cfg.L1D), k.cache(k.cfg.L2)
	missRec := make([]bool, len(recs))
	nMiss := 0
	for i, r := range recs {
		line := amo.LineOf(r.Addr)
		l1 := l1d
		if r.Kind == trace.IFetch {
			l1 = l1i
		}
		if l1.Access(line) {
			continue
		}
		l1.Fill(line, false)
		if !l2.Access(line) {
			l2.Fill(line, false)
			if r.Kind != trace.Store {
				missRec[i] = true
				nMiss++
			}
		}
	}
	var missAccs []prefetch.Access
	for _, a := range accs {
		if a.Miss {
			missAccs = append(missAccs, a)
		}
	}
	if nMiss == 0 || len(missAccs) == 0 {
		return c, errors.New("recorded streams hold no off-chip misses")
	}

	c.l1Access = perEvent(len(recs), func() func() {
		i, d := k.cache(k.cfg.L1I), k.cache(k.cfg.L1D)
		pick := func(r trace.Record) *cache.Cache {
			if r.Kind == trace.IFetch {
				return i
			}
			return d
		}
		for _, r := range recs {
			if l := amo.LineOf(r.Addr); !pick(r).Access(l) {
				pick(r).Fill(l, false)
			}
		}
		return func() {
			for _, r := range recs {
				pick(r).Access(amo.LineOf(r.Addr))
			}
		}
	})
	c.l2Access = perEvent(len(accs), func() func() {
		l2 := k.cache(k.cfg.L2)
		for _, a := range accs {
			if !l2.Access(a.Line) {
				l2.Fill(a.Line, false)
			}
		}
		return func() {
			for _, a := range accs {
				l2.Access(a.Line)
			}
		}
	})
	c.l2Fill = perEvent(len(accs), func() func() {
		l2 := k.cache(k.cfg.L2)
		return func() {
			for _, a := range accs {
				l2.Fill(a.Line, false)
			}
		}
	})
	insertAll := func(pb *cache.PrefetchBuffer) {
		for _, a := range accs {
			pb.Insert(a.Line, cache.PBEntry{ReadyAt: a.Now + 400, IssuedAt: a.Now, TableIndex: cache.NoTableIndex})
		}
	}
	c.pbInsert = perEvent(len(accs), func() func() {
		pb := k.pb()
		return func() { insertAll(pb) }
	})
	c.pbHit = perEvent(len(accs), func() func() {
		pb := k.pb()
		insertAll(pb)
		return func() {
			for _, a := range accs {
				pb.Hit(a.Line, a.Now)
			}
		}
	})

	c.cpuAdvance = perEvent(len(recs), func() func() {
		m := k.core()
		return func() {
			for _, r := range recs {
				m.Advance(uint64(r.Gap) + 1)
			}
		}
	})
	// The miss path is timed as the difference between the record loop
	// with and without its misses.
	withMisses := perEvent(len(recs), func() func() {
		m := k.core()
		return func() {
			for i, r := range recs {
				m.Advance(uint64(r.Gap) + 1)
				if missRec[i] {
					at := m.PrepareMiss(r.DependsOnMiss, r.Serializing)
					m.Miss(at+300, r.Kind == trace.IFetch)
				}
			}
		}
	})
	c.cpuMiss = (withMisses - c.cpuAdvance) * float64(len(recs)) / float64(nMiss)

	c.memRead = perEvent(len(missAccs), func() func() {
		m := k.mem()
		return func() {
			for _, a := range missAccs {
				m.Read(a.Line, a.Now, mem.Demand)
			}
		}
	})
	c.memWrite = perEvent(len(missAccs), func() func() {
		m := k.mem()
		return func() {
			for _, a := range missAccs {
				m.Write(a.Line, a.Now, mem.Demand)
			}
		}
	})

	// Correlation-table traffic shaped like EBCP's: each epoch trigger
	// keys the misses of the epoch two later (at most one entry's worth).
	var keys []amo.Line
	var epochs [][]amo.Line
	for _, a := range missAccs {
		if a.NewEpoch {
			keys = append(keys, a.Line)
			epochs = append(epochs, nil)
		}
		if n := len(epochs); n > 0 && len(epochs[n-1]) < k.pcfg.TableMaxAddrs {
			epochs[n-1] = append(epochs[n-1], a.Line)
		}
	}
	if len(keys) < 3 {
		return c, errors.New("recorded access stream holds fewer than three epochs")
	}
	keys = keys[:len(keys)-2]
	updateAll := func(t *corrtab.Table) {
		for i, key := range keys {
			t.Update(key, epochs[i+2])
		}
	}
	update := perEvent(len(keys), func() func() {
		t := k.table()
		return func() { updateAll(t) }
	})
	lookup := perEvent(len(keys), func() func() {
		t := k.table()
		updateAll(t)
		return func() {
			for _, key := range keys {
				t.Lookup(key)
			}
		}
	})

	for name, v := range map[string]float64{
		"cache.l1_access_ns": c.l1Access,
		"cache.l2_access_ns": c.l2Access,
		"cache.l2_fill_ns":   c.l2Fill,
		"cache.pb_hit_ns":    c.pbHit,
		"cache.pb_insert_ns": c.pbInsert,
		"cpu.advance_ns":     c.cpuAdvance,
		"cpu.miss_ns":        c.cpuMiss,
		"mem.read_ns":        c.memRead,
		"mem.write_ns":       c.memWrite,
		"corrtab.lookup_ns":  lookup,
		"corrtab.update_ns":  update,
	} {
		ms[name] = metric{v, "ns"}
	}
	return c, k.err
}

// ledger prices every event of one untraced sim-db run, measured over
// its whole length, at the replayed and traced per-event costs, and
// returns the share of the run's host time those costs explain.
func ledger(w simWorkload, c leafCosts, ms map[string]metric) (float64, error) {
	lw := w
	lw.warm, lw.measure = 0, w.warm+w.measure
	r, err := lw.rep(false, nil)
	if err != nil {
		return 0, err
	}
	s := r.snaps[0]
	f := func(n uint64) float64 { return float64(n) }
	recs := f(s.L1I.Accesses + s.L1D.Accesses) // every record makes one L1 access
	accesses := ms["core.on_access_per_kinst"].Value * f(r.insts) / 1000
	explained := recs*(ms["workload.read_ns_per_rec"].Value+c.cpuAdvance+c.l1Access) +
		f(s.L1I.Fills+s.L1D.Fills+s.L2.Fills)*c.l2Fill +
		f(s.L2.Accesses)*c.l2Access +
		f(s.L2.Misses)*c.pbHit +
		f(s.L2MissIFetch+s.L2MissLoad)*c.cpuMiss +
		f(s.Mem.Demand.Reads)*c.memRead +
		f(s.Mem.Demand.Writes)*c.memWrite +
		accesses*ms["core.on_access_ns"].Value
	return explained / float64(r.wall), nil
}

// contender builds one entry of the cost table.
type contender struct {
	name  string
	build func() (prefetch.Prefetcher, error)
}

// contenders returns every registered prefetcher plus the filtered GHB,
// each with the parameters its first single-core cell in the canonical
// experiments uses.
func contenders() ([]contender, error) {
	var out []contender
	seen := map[string]bool{}
	for _, id := range canonicalIDs() {
		sp, err := exp.CanonicalSpec(id)
		if err != nil {
			return nil, err
		}
		if sp.Kind != "sim" {
			continue
		}
		for _, cellName := range sortedKeys(sp.Cells) {
			ref := sp.Cells[cellName].Prefetcher
			name := ref.Name
			if ref.Filter != nil {
				name = "filter-" + ref.Name
			}
			if seen[name] || (ref.Filter != nil && name != filteredContender) {
				continue
			}
			seen[name] = true
			entry, err := registry.Prefetcher(ref.Name)
			if err != nil {
				return nil, err
			}
			out = append(out, contender{name: name, build: func() (prefetch.Prefetcher, error) {
				pf, err := entry.New(ref.Params, 0)
				if err != nil {
					return nil, err
				}
				return registry.WrapFilter(pf, ref.Filter)
			}})
		}
	}
	for _, n := range append(registry.PrefetcherNames(), filteredContender) {
		if !seen[n] {
			return nil, fmt.Errorf("contender %q has no single-core cell in the canonical experiments", n)
		}
	}
	return out, nil
}

// contenderTable replays the baseline access stream into every
// contender on a standalone memory system, prefetch buffer and L2, and
// reports host ns per OnAccess.
func contenderTable(accs []prefetch.Access, bench workload.Params, ms map[string]metric) error {
	cs, err := contenders()
	if err != nil {
		return err
	}
	k, err := newKit(bench)
	if err != nil {
		return err
	}
	for _, c := range cs {
		var buildErr error
		ns := perEvent(len(accs), func() func() {
			pf, err := c.build()
			if err != nil {
				buildErr = err
				return func() {}
			}
			ctx := prefetch.NewContext(k.mem(), k.pb(), k.cache(k.cfg.L2))
			if f, ok := pf.(prefetch.IssueFilter); ok {
				ctx.SetFilter(f)
			}
			return func() {
				for _, a := range accs {
					pf.OnAccess(a, ctx)
				}
			}
		})
		if buildErr != nil {
			return fmt.Errorf("contender %s: %w", c.name, buildErr)
		}
		ms[contenderPrefix+c.name] = metric{ns, "ns"}
	}
	return nil
}
