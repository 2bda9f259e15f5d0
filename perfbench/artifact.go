package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ebcp/internal/exp"
	"ebcp/internal/metrics"
	"ebcp/internal/workload"
)

// The artifact workload regenerates every canonical experiment with the
// options of internal/exp/golden_test.go's goldenSession: 5%-size
// workloads and 300k/200k instruction windows.
const (
	artifactScale   = 0.05
	artifactWarm    = 300_000
	artifactMeasure = 200_000
	artifactCells   = 252 // simulations one canonical regeneration runs
	goldenReport    = "internal/exp/testdata/canonical_report.json"
)

// artifactBenches returns the scaled benchmark set, shifted by the seed.
func artifactBenches(seed int64) ([]workload.Params, error) {
	var out []workload.Params
	for _, b := range workload.All() {
		sc, err := workload.Scaled(b, artifactScale)
		if err != nil {
			return nil, err
		}
		sc.Seed += seed
		out = append(out, sc)
	}
	return out, nil
}

// plan is the set-up of one regeneration: the session and every
// canonical spec resolved through the registry.
func plan(seed int64, ids []string, progress func(exp.RunUpdate)) (*exp.Session, []exp.Experiment, error) {
	benches, err := artifactBenches(seed)
	if err != nil {
		return nil, nil, err
	}
	s := exp.NewSession(exp.Options{
		Warm: artifactWarm, Measure: artifactMeasure,
		// One worker, as the benchmark runs on one processor (see
		// main); with one worker, progress events also delimit cells.
		Benchmarks: benches, Workers: 1, Progress: progress,
	})
	var exps []exp.Experiment
	for _, id := range ids {
		sp, err := exp.CanonicalSpec(id)
		if err != nil {
			return nil, nil, err
		}
		e, err := exp.FromSpec(sp)
		if err != nil {
			return nil, nil, err
		}
		exps = append(exps, e)
	}
	return s, exps, nil
}

func canonicalIDs() []string {
	var ids []string
	for _, e := range exp.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// regen is one timed regeneration.
type regen struct {
	setup, wall time.Duration
	runMs       map[string]float64 // per experiment, traced only
	renderMs    float64            // traced only
	runs, hits  int
	doc         []byte // the rendered report
}

// artifactCheck validates a regeneration's output: byte-identical to
// the committed golden at the canonical seed, otherwise complete.
type artifactCheck struct {
	golden []byte // nil off the canonical seed
}

func newArtifactCheck(o opts) (artifactCheck, error) {
	var c artifactCheck
	if o.seed == 0 {
		g, err := os.ReadFile(filepath.Join(o.root, goldenReport))
		if err != nil {
			return c, fmt.Errorf("reading the golden report: %w", err)
		}
		c.golden = g
	}
	return c, nil
}

func (c artifactCheck) check(s *exp.Session, doc []byte, na int) error {
	if f := s.Failures(); f > 0 || na > 0 {
		return fmt.Errorf("%d failed simulations, %d n/a cells (first error: %v)", f, na, s.FirstError())
	}
	if c.golden == nil {
		return nil
	}
	if !bytes.Equal(doc, c.golden) {
		return errors.New("report differs from the committed golden")
	}
	if s.Runs() != artifactCells {
		return fmt.Errorf("%d simulations, want %d", s.Runs(), artifactCells)
	}
	return nil
}

// cellClock turns progress events into cell durations: with one worker
// the cells of an experiment run back to back, so each completion ends
// the cell that began at the previous one (or at the experiment start).
type cellClock struct {
	prev time.Time
	ms   []float64
}

func (c *cellClock) mark() { c.prev = time.Now() }

func (c *cellClock) done(exp.RunUpdate) {
	now := time.Now()
	c.ms = append(c.ms, float64(now.Sub(c.prev))/1e6)
	c.prev = now
}

// regenerate plans, runs and renders every canonical experiment. A
// non-nil clock traces it: each experiment and the render are timed
// separately and progress events feed the clock.
func regenerate(o opts, ids []string, clock *cellClock, c artifactCheck, gd *goDelta) (regen, error) {
	var g regen
	traced := clock != nil
	var progress func(exp.RunUpdate)
	if traced {
		progress = clock.done
	}
	freshHeap()
	t0 := time.Now()
	s, exps, err := plan(o.seed, ids, progress)
	if err != nil {
		return g, err
	}
	g.setup = time.Since(t0)
	if gd != nil {
		gd.start()
	}
	t1 := time.Now()
	doc := metrics.ReportV1{Schema: metrics.SchemaV1, Tool: "ebcpexp"}
	var reps []*exp.Report
	if traced {
		g.runMs = map[string]float64{}
	}
	for _, e := range exps {
		te := time.Now()
		if traced {
			clock.mark()
		}
		reps = append(reps, e.Run(s))
		if traced {
			g.runMs[e.ID] = float64(time.Since(te)) / 1e6
		}
	}
	tr := time.Now()
	na := 0
	for _, rep := range reps {
		na += rep.NACells()
		doc.Grids = append(doc.Grids, rep.GridV1())
	}
	var buf bytes.Buffer
	err = metrics.WriteJSON(&buf, doc)
	g.renderMs = float64(time.Since(tr)) / 1e6
	g.wall = time.Since(t1)
	if gd != nil {
		gd.stop()
	}
	if err != nil {
		return g, err
	}
	g.runs, g.hits, g.doc = s.Runs(), s.CacheHits(), buf.Bytes()
	return g, c.check(s, g.doc, na)
}

// artifactOp is one untraced, checked regeneration. Its digest covers
// the rendered report, so off the canonical seed too every
// regeneration of a benchmark run must render the same bytes.
func artifactOp(o opts) (opResult, error) {
	c, err := newArtifactCheck(o)
	if err != nil {
		return opResult{}, err
	}
	g, err := regenerate(o, canonicalIDs(), nil, c, nil)
	if err != nil {
		return opResult{}, err
	}
	d, err := digest(g.doc)
	return opResult{SetupS: g.setup.Seconds(), WallS: g.wall.Seconds(), Work: float64(g.runs), Digest: d}, err
}

// tracedArtifact alternates traced and untraced regenerations, replays
// the baseline access stream into every contender, then measures the
// serving layer, which serves the same kind of report over HTTP.
func tracedArtifact(o opts, t *tally) (map[string]metric, error) {
	c, err := newArtifactCheck(o)
	if err != nil {
		return nil, err
	}
	ids := canonicalIDs()
	ms := map[string]metric{}
	gd := newGoDelta()
	var untraced, traced, plans, renders []float64
	runMs := map[string][]float64{}
	var last regen
	var clock cellClock
	start := time.Now()
	for first := true; first || time.Since(start) < o.budget()/2; first = false {
		g, err := regenerate(o, ids, nil, c, gd)
		t.note(err)
		if err == nil {
			untraced = append(untraced, g.wall.Seconds())
		}
		g, err = regenerate(o, ids, &clock, c, nil)
		t.note(err)
		if err != nil {
			continue
		}
		last = g
		traced = append(traced, g.wall.Seconds())
		plans = append(plans, float64(g.setup)/1e6)
		renders = append(renders, g.renderMs)
		for id, v := range g.runMs {
			runMs[id] = append(runMs[id], v)
		}
	}
	if len(untraced) == 0 || len(traced) == 0 {
		return nil, errors.New("no traced and untraced regeneration pair succeeded")
	}
	ms["exp.plan_ms"] = metric{median(plans), "ms"}
	for id, v := range runMs {
		ms["exp.run_ms."+id] = metric{median(v), "ms"}
	}
	ms["exp.cell_ms_p50"] = metric{median(clock.ms), "ms"}
	ms["exp.cell_ms_max"] = metric{quantile(clock.ms, 1), "ms"}
	ms["exp.cells"] = metric{float64(last.runs), "count"}
	ms["exp.shared_hits"] = metric{float64(last.hits), "count"}
	ms["exp.render_ms"] = metric{median(renders), "ms"}
	ms["bench.trace_overhead_frac"] = metric{median(traced)/median(untraced) - 1, "ratio"}
	gd.metrics(ms)

	benches, err := artifactBenches(o.seed)
	if err != nil {
		return nil, err
	}
	var gen []float64
	for i := 0; i < 5; i++ {
		freshHeap()
		t0 := time.Now()
		for _, b := range benches {
			if _, err := workload.New(b); err != nil {
				return nil, err
			}
		}
		gen = append(gen, float64(time.Since(t0))/1e6)
	}
	ms["workload.new_ms"] = metric{median(gen), "ms"}

	db := simDB(o.seed).bench
	st, err := recordStreams(db)
	if err != nil {
		return nil, err
	}
	if err := contenderTable(st.accs, db, ms); err != nil {
		return nil, err
	}
	if err := serveLayer(o, o.budget()/4, t, ms); err != nil {
		return nil, err
	}
	return ms, nil
}
