package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"

	"ebcp/internal/ebcperr"
	"ebcp/internal/sim"
	"ebcp/internal/workload"
)

// The parallel scheduler. Experiments run in two phases: a *simulate*
// phase that executes every cell of the run grid across a worker pool,
// and a *collect* phase that reads the stored results back in a fixed
// order to build the report. Because simulations are deterministic and
// the session's own store computes each cell exactly once
// (single-flight), the collect phase — and hence every Report — is
// bit-identical regardless of worker count or the order in which the
// pool happened to finish the work.

// cellReq is one grid cell: a runReq (single-core) or a cmpReq (CMP).
// Experiments build the same request in their simulate and collect
// phases, so each cell is defined exactly once.
type cellReq interface {
	// id returns the cell kind ("sim" or "cmp"), its identity key —
	// unique per (benchmark, prefetcher, system config) within the
	// kind — and its workload.
	id() (kind, key string, bench workload.Params)
	// simulate executes the cell.
	simulate(s *Session) cell
}

// cell is the stored outcome of one grid cell: the result (res for
// single-core cells, cmp for CMP cells) together with the error that
// produced or prevented it, so a failed cell is computed once and its
// error replayed to every consumer.
type cell struct {
	res sim.Result
	cmp sim.CMPResult
	err error
}

// forEach runs f(0..n-1) across the session's worker pool and waits for
// completion. With one worker (or one item) it degenerates to a plain
// ordered loop. Cancellation stops the dispatch of further items; items
// already dispatched run to completion, so no goroutine outlives the
// call.
func (s *Session) forEach(n int, f func(int)) {
	w := s.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if s.ctx.Err() != nil {
				return
			}
			f(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		if s.ctx.Err() != nil {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
}

// ensure is the simulate phase: it executes every not-yet-stored cell
// in reqs across the worker pool. After it returns, collect-phase exec
// calls are store hits.
func (s *Session) ensure(reqs []cellReq) {
	s.forEach(len(reqs), func(i int) { s.exec(reqs[i]) })
}

// exec returns a cell's outcome, computing it at most once per session
// (the session's own store, keyed by kind and cell id) and, when a
// shared store backs the session, at most once per process. A failed or
// cancelled cell's error is stored with it and replayed to every
// consumer; replaying a cancelled cell is not a hit, because nothing
// was ever computed for it.
func (s *Session) exec(r cellReq) cell {
	kind, key, _ := r.id()
	v, hit := s.cells.Do(kind+"/"+key, func() (any, int) { return s.compute(r), 0 })
	c := v.(cell)
	if hit && !errors.Is(c.err, ebcperr.ErrCancelled) {
		s.statMu.Lock()
		s.cacheHits++
		s.statMu.Unlock()
	}
	s.noteErr(c.err)
	return c
}

// compute produces one cell for the session's store. Under a cancelled
// context nothing starts: the cell becomes an ErrCancelled failure
// (counted once, since the session store keeps it) and the shared store
// is never touched, so another session cannot inherit it. Otherwise the
// cell comes from the shared store when the session has one
// (coalescing with identical cells of other sessions), else by
// simulating. Only an actual simulation counts as a run and emits
// progress; a shared hit is recorded separately. Failed cells are
// shared too — they are as deterministic as successes, and recomputing
// a failure per request would defeat the cache exactly when requests
// are misconfigured.
func (s *Session) compute(r cellReq) cell {
	kind, key, bench := r.id()
	if err := s.ctx.Err(); err != nil {
		s.statMu.Lock()
		s.failures++
		s.statMu.Unlock()
		return cell{err: ebcperr.Cancelledf("exp: cell %s not simulated: %v", key, err)}
	}
	run := func() cell {
		c := r.simulate(s)
		metric, value := "CPI", c.res.CPI()
		if kind == "cmp" {
			metric, value = "IPC", c.cmp.AggregateIPC()
		}
		s.noteRun(key, metric, value, c.err)
		return c
	}
	if s.opts.Cache == nil {
		return run()
	}
	hash, err := s.cellKey(kind, key, bench)
	if err != nil {
		return cell{err: err}
	}
	v, hit := s.opts.Cache.Do(hash, func() (any, int) {
		c := run()
		return c, cellCost(kind, c)
	})
	if hit {
		s.statMu.Lock()
		s.sharedHits++
		s.statMu.Unlock()
	}
	return v.(cell)
}

// Shared-store keys are content hashes. A cell's key digests everything
// that determines its result — the cell kind and identity (which by
// contract uniquely describes benchmark × prefetcher × system config),
// the full workload parameter struct, the resolved warmup/measure
// windows, the trace truncation limit, the *content* of any warm-start
// correlation table and of a user-authored spec — and nothing that
// doesn't (worker counts, progress callbacks, file paths). Two sessions
// built from different Options structs that resolve to the same
// semantics therefore share cells, and any semantic difference keeps
// them apart. cachekey_test.go enforces both directions field by field,
// reflectively, so a new Options field cannot silently miss the key.

// cellKey returns the content-hash key of one cell: the session seed
// (load) sealed with the cell kind, identity and workload
// parameters. The workload parameters are serialized with %+v: struct
// fields print in declaration order, so the encoding is deterministic
// and automatically picks up any field added to workload.Params.
// Reading the warm-start table can fail; the error is
// ErrInvalidConfig-classified like every other bad-input failure.
func (s *Session) cellKey(kind, cell string, bench workload.Params) (string, error) {
	if err := s.load(); err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%s\n%+v\n", s.seed, kind, cell, bench)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// load reads the warm-start table once per session and derives the
// session-level part of every cell key from the same bytes warmStart
// decodes. The seed holds the resolved windows (so a zero field and an
// explicit default digest identically), the trace limit, the warm-start
// table by content hash (so the same table at two paths shares cells
// and an edited table does not), and the content hash of the
// user-authored spec, if any (so two specs reusing one cell key string
// for different contents stay apart).
func (s *Session) load() error {
	s.loadOnce.Do(func() {
		corr := ""
		if s.opts.LoadCorrtab != "" {
			data, err := os.ReadFile(s.opts.LoadCorrtab)
			if err != nil {
				s.loadErr = ebcperr.Invalidf("exp: reading warm-start table %q: %v", s.opts.LoadCorrtab, err)
				return
			}
			s.corrtab = data
			sum := sha256.Sum256(data)
			corr = hex.EncodeToString(sum[:])
		}
		specSum := ""
		if s.opts.SpecJSON != "" {
			sum := sha256.Sum256([]byte(s.opts.SpecJSON))
			specSum = hex.EncodeToString(sum[:])
		}
		warm, measure := s.opts.windows()
		s.seed = fmt.Sprintf("warm=%d|measure=%d|max=%d|corrtab=%s|spec=%s",
			warm, measure, s.opts.MaxInsts, corr, specSum)
	})
	return s.loadErr
}

// Approximate in-memory cost of a shared cell, for the shared store's
// byte budget. Results are flat value structs (fixed-size histogram
// arrays, no heap indirection except a CMP result's per-lane slice), so
// the reflect sizes are accurate to within the key and bookkeeping
// overhead folded in as cellCostOverhead.
const cellCostOverhead = 256

var (
	simResultSize = int(reflect.TypeOf(sim.Result{}).Size())
	cmpResultSize = int(reflect.TypeOf(sim.CMPResult{}).Size())
)

func cellCost(kind string, c cell) int {
	if kind == "cmp" {
		return cmpResultSize + len(c.cmp.PerCore)*simResultSize + cellCostOverhead
	}
	return simResultSize + cellCostOverhead
}
