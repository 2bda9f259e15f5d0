package main

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"ebcp"
	"ebcp/internal/metrics"
	"ebcp/internal/prefetch"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// simWorkload is one repeated simulation: lanes generators of bench,
// lane j seeded at bench.Seed + j*7919 as internal/exp/cmp.go seeds
// them, simulated with the tuned EBCP.
type simWorkload struct {
	bench         workload.Params
	lanes         int
	warm, measure uint64 // per lane
	// cmp selects the CMP engine (ebcp.RunCMP) even for one lane.
	cmp bool
}

// simDB is one full-size Database run: the working set exceeds the
// modelled L2 and the 1M-entry correlation table, so the per-record
// layers do nearly all the work.
func simDB(seed int64) simWorkload {
	b := ebcp.Database()
	b.Seed += seed
	return simWorkload{bench: b, lanes: 1, warm: 10_000_000, measure: 40_000_000}
}

// cmpJBB16 is one 16-lane SPECjbb2005 run on the inline CMP engine,
// whose coordinator (sim/scale.go) works here and nowhere else; 3M
// instructions per lane.
func cmpJBB16(seed int64) simWorkload {
	b := ebcp.SPECjbb2005()
	b.Seed += seed
	return simWorkload{bench: b, lanes: 16, warm: 1_000_000, measure: 2_000_000, cmp: true}
}

// simRep is one measured simulation.
type simRep struct {
	gen, setup, wall time.Duration
	insts            uint64 // warm + measured instructions, all lanes
	snaps            []metrics.Snapshot
	// Spans recorded by the wrappers of a traced rep.
	readNs, reads, recs, accessNs, accesses int64
}

// timedSource wraps a trace source and times every read. It forwards
// the batched path, so the simulator reads exactly as it would from the
// bare generator.
type timedSource struct {
	src             trace.Source
	ns, reads, recs int64
}

func (s *timedSource) Next() (trace.Record, bool) {
	t := time.Now()
	r, ok := s.src.Next()
	s.ns += int64(time.Since(t))
	s.reads++
	if ok {
		s.recs++
	}
	return r, ok
}

func (s *timedSource) ReadBatch(dst []trace.Record) int {
	t := time.Now()
	n := trace.FillBatch(s.src, dst)
	s.ns += int64(time.Since(t))
	s.reads++
	s.recs += int64(n)
	return n
}

// timedPrefetcher wraps a prefetcher and times every OnAccess. It
// forwards ResetStats; it cannot forward the optional simulator hooks,
// so wrapTimed refuses prefetchers that implement them.
type timedPrefetcher struct {
	pf           prefetch.Prefetcher
	ns, accesses int64
}

func (p *timedPrefetcher) Name() string { return p.pf.Name() }

func (p *timedPrefetcher) OnAccess(a prefetch.Access, ctx *prefetch.Context) {
	t := time.Now()
	p.pf.OnAccess(a, ctx)
	p.ns += int64(time.Since(t))
	p.accesses++
}

func (p *timedPrefetcher) ResetStats() {
	if rs, ok := p.pf.(interface{ ResetStats() }); ok {
		rs.ResetStats()
	}
}

// spanBias is the clock's own cost inside one timed span: the median,
// over a few rounds, of the mean empty span.
func spanBias() float64 {
	const spans = 1 << 16
	var xs []float64
	for i := 0; i < 5; i++ {
		var sum time.Duration
		for j := 0; j < spans; j++ {
			t := time.Now()
			sum += time.Since(t)
		}
		xs = append(xs, float64(sum)/spans)
	}
	return median(xs)
}

func wrapTimed(pf prefetch.Prefetcher) (*timedPrefetcher, error) {
	if _, ok := pf.(prefetch.OffChipPredictor); ok {
		return nil, fmt.Errorf("%s is an off-chip predictor; the timing wrapper would hide it", pf.Name())
	}
	if _, ok := pf.(prefetch.IssueFilter); ok {
		return nil, fmt.Errorf("%s is an issue filter; the timing wrapper would hide it", pf.Name())
	}
	return &timedPrefetcher{pf: pf}, nil
}

// rep builds the inputs and runs one simulation, wrapping the trace
// sources and the prefetcher when traced. A non-nil gd takes the Go
// runtime's counters around the simulation itself.
func (w simWorkload) rep(traced bool, gd *goDelta) (simRep, error) {
	var r simRep
	freshHeap()
	t0 := time.Now()
	srcs := make([]ebcp.TraceSource, w.lanes)
	for j := range srcs {
		b := w.bench
		b.Seed += int64(j) * 7919
		s, err := ebcp.NewTrace(b)
		if err != nil {
			return r, err
		}
		srcs[j] = s
	}
	r.gen = time.Since(t0)
	pcfg := ebcp.TunedEBCP()
	if w.cmp {
		pcfg.Cores = w.lanes
	}
	pf, err := ebcp.NewEBCP(pcfg)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(t0)

	var runPF ebcp.Prefetcher = pf
	var tpf *timedPrefetcher
	var tsrcs []*timedSource
	if traced {
		if tpf, err = wrapTimed(pf); err != nil {
			return r, err
		}
		runPF = tpf
		for j, s := range srcs {
			ts := &timedSource{src: s}
			tsrcs = append(tsrcs, ts)
			srcs[j] = ts
		}
	}
	cfg := ebcp.DefaultSystem(w.bench)
	cfg.WarmInsts, cfg.MeasureInsts = w.warm, w.measure

	if gd != nil {
		gd.start()
		defer gd.stop()
	}
	t1 := time.Now()
	if w.cmp {
		res, err := ebcp.RunCMP(srcs, runPF, cfg)
		r.wall = time.Since(t1)
		if err != nil {
			return r, err
		}
		for _, c := range res.PerCore {
			r.snaps = append(r.snaps, c.Snapshot())
		}
		r.insts = uint64(w.lanes)*w.warm + res.Instructions()
	} else {
		res, err := ebcp.Run(srcs[0], runPF, cfg)
		r.wall = time.Since(t1)
		if err != nil {
			return r, err
		}
		r.snaps = []metrics.Snapshot{res.Snapshot()}
		r.insts = w.warm + res.Core.Instructions
	}
	for _, v := range chipViews(r.snaps) {
		if err := v.CheckInvariants(); err != nil {
			return r, err
		}
	}
	for _, ts := range tsrcs {
		r.readNs += ts.ns
		r.reads += ts.reads
		r.recs += ts.recs
	}
	if tpf != nil {
		r.accessNs, r.accesses = tpf.ns, tpf.accesses
	}
	return r, nil
}

// chipViews returns one whole-chip snapshot per lane, each of which
// must reconcile under CheckInvariants (a CMP lane's own snapshot
// carries copies of the shared counters and does not). A view takes the
// shared components (L2, prefetch buffer, prefetcher, memory) once, sums
// the L1s, the kind-split misses and prefetch-buffer hits and the
// prefetch-to-use histogram over lanes, and takes the core counters and
// epoch histograms of its own lane, whose epoch identities hold per core
// only. Checking every view checks every lane and the chip.
func chipViews(lanes []metrics.Snapshot) []metrics.Snapshot {
	chip := lanes[0]
	for _, l := range lanes[1:] {
		addCounters(reflect.ValueOf(&chip).Elem(), reflect.ValueOf(l))
	}
	chip.L2, chip.PB, chip.PF, chip.Mem = lanes[0].L2, lanes[0].PB, lanes[0].PF, lanes[0].Mem
	views := make([]metrics.Snapshot, len(lanes))
	for j, l := range lanes {
		v := chip
		v.Core, v.Hist.EpochLen, v.Hist.EpochMisses = l.Core, l.Hist.EpochLen, l.Hist.EpochMisses
		views[j] = v
	}
	return views
}

// addCounters adds every counter of src into dst (same type), through
// nested structs and arrays; flags are or-ed and names left alone.
func addCounters(dst, src reflect.Value) {
	switch dst.Kind() {
	case reflect.Uint64:
		dst.SetUint(dst.Uint() + src.Uint())
	case reflect.Bool:
		dst.SetBool(dst.Bool() || src.Bool())
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			addCounters(dst.Field(i), src.Field(i))
		}
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			addCounters(dst.Index(i), src.Index(i))
		}
	}
}

// sameSnapshots checks a rep against the first good rep of the run:
// the model is deterministic, so every rep — traced or not — must
// produce identical counters.
type sameSnapshots struct{ ref []metrics.Snapshot }

func (c *sameSnapshots) check(r simRep) error {
	if c.ref == nil {
		c.ref = r.snaps
		return nil
	}
	if !reflect.DeepEqual(c.ref, r.snaps) {
		return errors.New("snapshot differs from the run's first snapshot")
	}
	return nil
}

// simOp is one untraced sim-db run. Its digest covers the snapshot, so
// every run of a benchmark run must produce identical counters.
func simOp(o opts) (opResult, error) {
	r, err := simDB(o.seed).rep(false, nil)
	if err != nil {
		return opResult{}, err
	}
	d, err := digest(r.snaps)
	return opResult{SetupS: r.setup.Seconds(), WallS: r.wall.Seconds(), Work: float64(r.insts), Digest: d}, err
}

// layerSample accumulates the wrapper spans of traced reps.
type layerSample struct {
	gen, readPerRec, recsPerK, accessNs, accessPerK, selfPerInst, wall []float64
}

// add records one traced rep. Each span is corrected by the clock's
// own cost per span (bias), which the wrappers measure along with the
// call they time.
func (l *layerSample) add(r simRep, bias float64) {
	k := float64(r.insts) / 1000
	readNs := float64(r.readNs) - bias*float64(r.reads)
	accessNs := float64(r.accessNs) - bias*float64(r.accesses)
	l.gen = append(l.gen, float64(r.gen)/1e6)
	l.readPerRec = append(l.readPerRec, readNs/float64(r.recs))
	l.recsPerK = append(l.recsPerK, float64(r.recs)/k)
	if r.accesses > 0 {
		l.accessNs = append(l.accessNs, accessNs/float64(r.accesses))
	}
	l.accessPerK = append(l.accessPerK, float64(r.accesses)/k)
	l.selfPerInst = append(l.selfPerInst, (float64(r.wall)-readNs-accessNs)/float64(r.insts))
	l.wall = append(l.wall, r.wall.Seconds())
}

// alternate runs untraced and traced reps in turn for the share of the
// measurement window, checking that all of them agree. Go runtime
// deltas are taken around the untraced reps only.
func alternate(w simWorkload, window time.Duration, t *tally, gd *goDelta) (untraced []float64, traced layerSample) {
	var same sameSnapshots
	bias := spanBias()
	start := time.Now()
	for first := true; first || time.Since(start) < window; first = false {
		for _, tr := range []bool{false, true} {
			var d *goDelta
			if !tr {
				d = gd
			}
			r, err := w.rep(tr, d)
			if err == nil {
				err = same.check(r)
			}
			t.note(err)
			if err != nil {
				continue
			}
			if tr {
				traced.add(r, bias)
			} else {
				untraced = append(untraced, r.wall.Seconds())
			}
		}
	}
	return untraced, traced
}

// metrics reports the wrapper-derived per-layer metrics.
func (l layerSample) metrics(ms map[string]metric, untracedWalls []float64) error {
	if len(l.wall) == 0 || len(untracedWalls) == 0 {
		return errors.New("no traced and untraced run pair succeeded")
	}
	ms["workload.new_ms"] = metric{median(l.gen), "ms"}
	ms["workload.read_ns_per_rec"] = metric{median(l.readPerRec), "ns"}
	ms["workload.recs_per_kinst"] = metric{median(l.recsPerK), "count"}
	ms["core.on_access_ns"] = metric{median(l.accessNs), "ns"}
	ms["core.on_access_per_kinst"] = metric{median(l.accessPerK), "count"}
	ms["sim.self_ns_per_inst"] = metric{median(l.selfPerInst), "ns"}
	ms["bench.trace_overhead_frac"] = metric{median(l.wall)/median(untracedWalls) - 1, "ratio"}
	return nil
}

func tracedSimDB(o opts, t *tally) (map[string]metric, error) {
	w := simDB(o.seed)
	ms := map[string]metric{}
	st, err := recordStreams(w.bench)
	if err != nil {
		return nil, err
	}
	costs, err := replayLeaves(st, w.bench, ms)
	if err != nil {
		return nil, err
	}
	st = streams{}
	gd := newGoDelta()
	untraced, traced := alternate(w, o.budget()/2, t, gd)
	if err := traced.metrics(ms, untraced); err != nil {
		return nil, err
	}
	gd.metrics(ms)
	frac, err := ledger(w, costs, ms)
	t.note(err)
	if err != nil {
		return nil, err
	}
	ms["ledger.explained_frac"] = metric{frac, "ratio"}
	coord, err := cmpCoord(o, t)
	if err != nil {
		return nil, err
	}
	ms["sim.cmp_coord_ns_per_inst"] = metric{coord, "ns"}
	return ms, nil
}

// cmpCoord is the CMP coordinator's own cost per instruction: the
// self time of traced 16-lane SPECjbb2005 runs on the inline CMP engine
// minus that of traced one-lane runs of the same workload on the same
// engine with the same instruction total, alternated.
func cmpCoord(o opts, t *tally) (float64, error) {
	lanes := cmpJBB16(o.seed)
	one := lanes
	one.lanes = 1
	one.warm, one.measure = lanes.warm*uint64(lanes.lanes), lanes.measure*uint64(lanes.lanes)
	var samples [2]layerSample
	var same [2]sameSnapshots
	bias := spanBias()
	for i := 0; i < 4; i++ {
		for k, w := range []simWorkload{lanes, one} {
			r, err := w.rep(true, nil)
			if err == nil {
				err = same[k].check(r)
			}
			t.note(err)
			if err == nil {
				samples[k].add(r, bias)
			}
		}
	}
	if len(samples[0].wall) == 0 || len(samples[1].wall) == 0 {
		return 0, errors.New("no 16-lane and one-lane run succeeded")
	}
	return median(samples[0].selfPerInst) - median(samples[1].selfPerInst), nil
}
