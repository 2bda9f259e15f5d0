// Package exp defines the paper's experiments — Table 1 and Figures 4
// through 9 — as runnable definitions: each builds the workloads, system
// configurations and prefetchers it needs, executes the simulations, and
// renders the same rows/series the paper reports, side by side with the
// paper's published values where the paper states them.
//
// Execution is two-phase. An experiment first *plans* its full run grid
// and hands it to the session's worker pool (the simulate phase, sched.go),
// then builds its report from the stored results in a fixed order (the
// collect phase). Reports are therefore bit-identical for any worker
// count: parallelism changes wall-clock time only.
//
// Results live in one store type, Cache (cache.go), used as two
// instances: each Session's own unbounded store keyed by cell id, which
// simulates every cell at most once per session, and an optional
// byte-budgeted store keyed by content hash that a serving daemon shares
// across sessions (Options.Cache).
package exp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"ebcp/internal/core"
	"ebcp/internal/corrtab"
	"ebcp/internal/ebcperr"
	"ebcp/internal/prefetch"
	"ebcp/internal/sim"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// Options control experiment execution.
type Options struct {
	// Warm and Measure override the paper's 150M/100M instruction windows
	// (0 keeps the defaults). Scaled-down windows run much faster and
	// preserve shapes, at some loss of training for the correlation
	// prefetchers.
	Warm, Measure uint64
	// MaxInsts truncates every cell's trace after this many instructions
	// (0 = unlimited). A limit below the warmup window makes every cell
	// fail with ErrShortTrace — useful for exercising the partial-report
	// path end-to-end.
	MaxInsts uint64
	// Workers bounds how many simulations the simulate phase runs
	// concurrently (0 = runtime.NumCPU()). Results are bit-identical for
	// any worker count; only wall-clock time changes.
	Workers int
	// Progress, when non-nil, is invoked once per completed simulation.
	// The session serializes invocations (they may originate on any
	// worker goroutine), so the callback needs no locking of its own.
	// Completion order — and therefore progress order — depends on
	// scheduling; reports do not.
	Progress func(RunUpdate)
	// Benchmarks overrides the workload set (nil = the paper's four
	// commercial benchmarks). Tests use workload.Scaled variants here.
	Benchmarks []workload.Params
	// LoadCorrtab, when non-empty, warm-starts every EBCP-family cell
	// from the serialized correlation table (ebcp.corrtab/v1) at this
	// path. The file is read once per session and decoded afresh for
	// each cell, so cells never share mutable table state; the table's
	// geometry must match the cell's prefetcher configuration. Cells
	// whose prefetcher is not an EBCP are unaffected.
	LoadCorrtab string
	// Cache, when non-nil, is a shared result store behind the
	// session's own one: a cell the session has not computed yet is
	// looked up by its content-hash key (sched.go), so cells computed
	// by any earlier session are served without simulating, and
	// concurrent identical cells across sessions coalesce into one
	// simulation. Cancelled cells never reach it. Cache never changes
	// what a session computes, only whether it has to; it is ignored
	// by the cache key itself.
	Cache *Cache
	// SpecJSON, when non-empty, is the canonical encoding
	// (spec.Canonical) of the user-authored spec this session runs. It
	// is digested into every cell key: the canonical experiments' cell
	// identity strings uniquely describe their cells by contract, but a
	// user-authored spec may bind an arbitrary cell key string to
	// different contents, so the spec text itself must separate the
	// entries. Runners of committed canonical experiments leave it
	// empty — their cells stay shared across invocation paths.
	SpecJSON string
}

// RunUpdate describes one completed simulation.
type RunUpdate struct {
	// Key is the cell id: unique per (benchmark, prefetcher, config).
	Key string
	// Metric names Value: "CPI" for single-core runs, "IPC" for CMP runs.
	Metric string
	Value  float64
	// Runs is how many simulations the session has executed so far.
	Runs int
	// Err is non-nil when the simulation failed (bad cell configuration
	// or a short trace); Value is then meaningless.
	Err error
}

// ProgressWriter adapts an io.Writer into a Progress callback printing
// one line per completed simulation.
func ProgressWriter(w io.Writer) func(RunUpdate) {
	return func(u RunUpdate) {
		if u.Err != nil {
			fmt.Fprintf(w, "  ran %-40s failed: %v\n", u.Key, u.Err)
			return
		}
		fmt.Fprintf(w, "  ran %-40s %s %.3f\n", u.Key, u.Metric, u.Value)
	}
}

func (o Options) windows() (uint64, uint64) {
	w, m := o.Warm, o.Measure
	if w == 0 {
		w = 150_000_000
	}
	if m == 0 {
		m = 100_000_000
	}
	return w, m
}

// Experiment is one regenerable artifact of the paper.
type Experiment struct {
	// ID is the short name used on the command line ("table1", "fig4"...).
	ID string
	// Title describes the artifact.
	Title string
	// Run executes the experiment: it schedules the experiment's run grid
	// on the session's worker pool, then collects the report. Run is safe
	// to call from multiple goroutines sharing one session; cells common
	// to concurrent experiments are simulated once.
	Run func(s *Session) *Report
}

// All returns every experiment in paper order. The canonical
// experiments are committed ebcp.spec/v1 documents under specs/,
// compiled through the contender registry (spec.go).
func All() []Experiment {
	exps, _ := canonical()
	return append([]Experiment(nil), exps...)
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, ebcperr.Invalidf("exp: unknown experiment %q", id)
}

// Session runs simulations through its own store (an unbounded Cache
// keyed by cell id), so experiments sharing runs (e.g. the baselines, or
// Figures 4 and 5) execute them once. Sessions are safe for concurrent
// use: the store is single-flight (two experiments requesting the same
// cell share one simulation), and the simulate phase shards independent
// cells across a worker pool. The session store stays even when a shared
// store backs the session: the shared one may evict (or refuse) a cell
// between the simulate and collect phases, and the session must still
// simulate each cell at most once.
type Session struct {
	opts  Options
	ctx   context.Context
	cells *Cache

	statMu     sync.Mutex
	runs       int
	cacheHits  int
	sharedHits int
	failures   int
	firstErr   error

	progressMu sync.Mutex

	// The warm-start table and the cell-key seed derived from it, read
	// once per session (load, sched.go).
	loadOnce sync.Once
	corrtab  []byte
	seed     string
	loadErr  error
}

// warmStart restores the Options.LoadCorrtab table into an EBCP-family
// prefetcher (other prefetchers pass through untouched). The file is
// read once per session; each call decodes a fresh table so concurrent
// cells never share mutable state.
func (s *Session) warmStart(pf prefetch.Prefetcher) error {
	e, ok := pf.(*core.EBCP)
	if s.opts.LoadCorrtab == "" || !ok {
		return nil
	}
	if err := s.load(); err != nil {
		return err
	}
	tab, err := corrtab.Decode(bytes.NewReader(s.corrtab))
	if err != nil {
		return err
	}
	return e.RestoreTable(tab)
}

// NewSession creates a session that runs to completion.
func NewSession(opts Options) *Session {
	return NewSessionContext(context.Background(), opts)
}

// NewSessionContext creates a session whose simulations stop when ctx is
// cancelled: in-flight simulations finish, pending cells are skipped,
// and reports render cells that never ran as n/a. Err reports the
// cancellation.
func NewSessionContext(ctx context.Context, opts Options) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Session{opts: opts, ctx: ctx, cells: NewCache(0)}
}

// Runs returns how many simulations actually executed.
func (s *Session) Runs() int {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.runs
}

// CacheHits returns how many cell requests were served from the session
// store (or by joining another caller's in-flight simulation).
func (s *Session) CacheHits() int {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.cacheHits
}

// Err returns the session context's cancellation error, if any. A
// non-nil Err means reports collected from this session are partial
// (their unsimulated cells render as n/a).
func (s *Session) Err() error { return s.ctx.Err() }

// Failures returns how many executed simulations ended in an error
// (each failed cell is counted once, like Runs). Cells skipped by
// cancellation count too, once each: the session store keeps the
// cancelled outcome, so the simulate and collect phases requesting the
// same unrunnable cell see one failure.
func (s *Session) Failures() int {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.failures
}

// workers returns the effective simulate-phase pool size.
func (s *Session) workers() int {
	if s.opts.Workers > 0 {
		return s.opts.Workers
	}
	return runtime.NumCPU()
}

// noteRun records one executed simulation (failed or not) and emits
// progress.
func (s *Session) noteRun(key, metric string, value float64, err error) {
	s.statMu.Lock()
	s.runs++
	if err != nil {
		s.failures++
	}
	n := s.runs
	s.statMu.Unlock()
	if s.opts.Progress != nil {
		s.progressMu.Lock()
		s.opts.Progress(RunUpdate{Key: key, Metric: metric, Value: value, Runs: n, Err: err})
		s.progressMu.Unlock()
	}
}

// noteErr remembers the first cell error a consumer observed (nil calls
// are no-ops). The serving layer uses it to classify an all-n/a report
// with a concrete failure instead of a generic one.
func (s *Session) noteErr(err error) {
	if err == nil {
		return
	}
	s.statMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.statMu.Unlock()
}

// FirstError returns the first cell error any consumer of this session
// observed — failed simulations, shared-store failures replayed to this
// session, or cancellation skips — or nil for a fully clean session.
func (s *Session) FirstError() error {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.firstErr
}

// SharedHits returns how many cells the shared store served without
// this session simulating them (0 when Options.Cache is nil). Session
// accounting is then: cells requested = Runs + CacheHits + SharedHits +
// cancelled skips.
func (s *Session) SharedHits() int {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.sharedHits
}

// runReq names one single-core simulation cell: its id plus everything
// needed to execute it. The key must uniquely describe (benchmark,
// prefetcher, system config).
type runReq struct {
	key   string
	bench workload.Params
	pf    func() (prefetch.Prefetcher, error)
	mut   func(*sim.Config)
}

func (r runReq) id() (string, string, workload.Params) { return "sim", r.key, r.bench }

// simulate executes one single-core cell.
func (r runReq) simulate(s *Session) cell {
	cfg := sim.DefaultConfig()
	cfg.Core.OnChipCPI = r.bench.OnChipCPI
	cfg.WarmInsts, cfg.MeasureInsts = s.opts.windows()
	if r.mut != nil {
		r.mut(&cfg)
	}
	gen, err := workload.New(r.bench)
	if err != nil {
		return cell{err: err}
	}
	var src trace.Source = gen
	if s.opts.MaxInsts > 0 {
		src = trace.NewLimit(gen, s.opts.MaxInsts)
	}
	pf, err := r.pf()
	if err != nil {
		return cell{err: err}
	}
	if err := s.warmStart(pf); err != nil {
		return cell{err: err}
	}
	res, err := sim.Run(src, pf, cfg)
	return cell{res: res, err: err}
}

// cellValue folds a computed metric and the errors of the runs behind it
// into one render-layer value: any error yields NaN, which the render
// layer prints as "n/a" and counts in the report's footnote.
func cellValue(v float64, errs ...error) float64 {
	for _, err := range errs {
		if err != nil {
			return math.NaN()
		}
	}
	return v
}

// benchmarks returns the session's workload set.
func (s *Session) benchmarks() []workload.Params {
	if s.opts.Benchmarks != nil {
		return s.opts.Benchmarks
	}
	return workload.All()
}
