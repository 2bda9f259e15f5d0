// The shared-cache hooks: a Session can be backed by a process-wide
// result store (internal/serve.Cache) so identical cells are simulated
// once across *all* sessions — the serving daemon's cross-request
// throughput multiplier. The per-session single-flight memo (sched.go)
// still runs in front of it: within a session it deduplicates the
// simulate and collect phases, and across sessions the shared store
// coalesces concurrent identical cells and keeps completed ones until
// evicted.
//
// Keys are content hashes. A cell's key digests everything that
// determines its result — the cell identity (runReq/cmpReq key, which
// by contract uniquely describes benchmark × prefetcher × system
// config), the full workload parameter struct, the resolved
// warmup/measure windows, the trace truncation limit and the *content*
// of any warm-start correlation table — and nothing that doesn't (worker counts, progress callbacks, file paths). Two
// sessions built from different Options structs that resolve to the
// same semantics therefore share cells, and any semantic difference
// keeps them apart. cachekey_test.go enforces both directions field by
// field, reflectively, so a new Options field cannot silently miss the
// key.
package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"

	"ebcp/internal/ebcperr"
	"ebcp/internal/sim"
	"ebcp/internal/workload"
)

// Cache is the contract a process-wide shared result store implements
// (internal/serve.Cache is the production one). Do returns the value
// stored under key, or runs compute — coalescing concurrent callers of
// the same key so the computation happens once — and stores its result
// with the given approximate in-memory cost in bytes. hit reports
// whether compute was avoided (the value was stored earlier or joined
// in flight). Implementations must be safe for concurrent use; values
// are treated as immutable once stored.
type Cache interface {
	Do(key string, compute func() (value any, cost int)) (value any, hit bool)
}

// CellKey returns the canonical content-hash cache key of one cell: the
// digest of the options' semantic fields (resolved windows, trace
// limit, warm-start table content), the cell kind ("sim"
// or "cmp"), the cell identity string, and the cell's full workload
// parameter struct. Reading the warm-start table can fail; the error is
// ErrInvalidConfig-classified like every other bad-input failure.
func (o Options) CellKey(kind, cell string, bench workload.Params) (string, error) {
	seed, err := o.cacheSeed()
	if err != nil {
		return "", err
	}
	return sealCellKey(seed, kind, cell, bench), nil
}

// sealCellKey hashes the session-level seed together with one cell's
// identity. The workload parameters are serialized with %+v: struct
// fields print in declaration order, so the encoding is deterministic
// and automatically picks up any field added to workload.Params.
func sealCellKey(seed, kind, cell string, bench workload.Params) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%s\n%+v\n", seed, kind, cell, bench)
	return hex.EncodeToString(h.Sum(nil))
}

// cacheSeed builds the session-level part of every cell key: the
// resolved windows (so a zero field and an explicit
// default digest identically), the trace limit, the warm-start table
// identified by content hash (so the same table at two paths shares
// cells and an edited table does not), and the content hash of the
// user-authored spec, if any (so two specs reusing one cell key string
// for different contents stay apart).
func (o Options) cacheSeed() (string, error) {
	warm, measure := o.windows()
	corr := ""
	if o.LoadCorrtab != "" {
		data, err := os.ReadFile(o.LoadCorrtab)
		if err != nil {
			return "", ebcperr.Invalidf("exp: reading warm-start table %q: %v", o.LoadCorrtab, err)
		}
		sum := sha256.Sum256(data)
		corr = hex.EncodeToString(sum[:])
	}
	specSum := ""
	if o.SpecJSON != "" {
		sum := sha256.Sum256([]byte(o.SpecJSON))
		specSum = hex.EncodeToString(sum[:])
	}
	return fmt.Sprintf("warm=%d|measure=%d|max=%d|corrtab=%s|spec=%s",
		warm, measure, o.MaxInsts, corr, specSum), nil
}

// cellKey is CellKey with the expensive seed (it reads the warm-start
// file) memoized for the session's lifetime.
func (s *Session) cellKey(kind, cell string, bench workload.Params) (string, error) {
	s.seedOnce.Do(func() { s.seed, s.seedErr = s.opts.cacheSeed() })
	if s.seedErr != nil {
		return "", s.seedErr
	}
	return sealCellKey(s.seed, kind, cell, bench), nil
}

// Approximate in-memory cost of a stored cell, for the shared store's
// byte budget. Results are flat value structs (fixed-size histogram
// arrays, no heap indirection except a CMP result's per-lane slice), so
// the reflect sizes are accurate to within the key and bookkeeping
// overhead folded in as cellCostOverhead.
const cellCostOverhead = 256

var (
	simResultSize = int(reflect.TypeOf(sim.Result{}).Size())
	cmpResultSize = int(reflect.TypeOf(sim.CMPResult{}).Size())
)

func simCellCost(c simCell) int {
	return simResultSize + cellCostOverhead
}

func cmpCellCost(c cmpCell) int {
	return cmpResultSize + len(c.res.PerCore)*simResultSize + cellCostOverhead
}

// computeSim produces one single-core cell for the session memo: from
// the shared store when the session has one (coalescing with identical
// cells of other sessions), else by simulating. Only an actual
// simulation counts as a run and emits progress; a shared hit is
// recorded separately. Failed cells are stored too — they are as
// deterministic as successes, and recomputing a failure per request
// would defeat the cache exactly when requests are misconfigured.
func (s *Session) computeSim(r runReq) simCell {
	run := func() simCell {
		c := s.simulate(r)
		s.noteRun(r.key, "CPI", c.res.CPI(), c.err)
		return c
	}
	if s.opts.Cache == nil {
		return run()
	}
	key, err := s.cellKey("sim", r.key, r.bench)
	if err != nil {
		return simCell{err: err}
	}
	v, hit := s.opts.Cache.Do(key, func() (any, int) {
		c := run()
		return c, simCellCost(c)
	})
	if hit {
		s.noteSharedHit()
	}
	return v.(simCell)
}

// computeCMP is computeSim for CMP cells.
func (s *Session) computeCMP(r cmpReq) cmpCell {
	run := func() cmpCell {
		c := s.simulateCMP(r)
		s.noteRun(r.key, "IPC", c.res.AggregateIPC(), c.err)
		return c
	}
	if s.opts.Cache == nil {
		return run()
	}
	key, err := s.cellKey("cmp", r.key, r.bench)
	if err != nil {
		return cmpCell{err: err}
	}
	v, hit := s.opts.Cache.Do(key, func() (any, int) {
		c := run()
		return c, cmpCellCost(c)
	})
	if hit {
		s.noteSharedHit()
	}
	return v.(cmpCell)
}

// noteSharedHit records one cell served by the process-wide store.
func (s *Session) noteSharedHit() {
	s.statMu.Lock()
	s.sharedHits++
	s.statMu.Unlock()
}

// SharedHits returns how many cells the process-wide store served
// without this session simulating them (0 when Options.Cache is nil).
// Session accounting is then: cells requested = Runs + CacheHits +
// SharedHits + cancelled skips.
func (s *Session) SharedHits() int {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	return s.sharedHits
}
