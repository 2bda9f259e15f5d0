package exp

import (
	"ebcp/internal/prefetch"
	"ebcp/internal/sim"
	"ebcp/internal/trace"
	"ebcp/internal/workload"
)

// The cmp experiment kind is this reproduction's extension: the paper's
// Section 6 future work (EBCP on a chip multiprocessor) plus a
// quantitative test of its Section 3.3.1 placement argument. N threads
// of each workload share the L2 and the interconnect. EBCP keeps
// per-thread EMABs at the core-to-L2 crossbar and shares one
// main-memory table; Solihin's memory-side engine trains on the
// interleaved miss stream. The canonical grid lives in specs/cmp.json.

// cmpReq names one CMP simulation cell (the prefetcher builder needs
// the core count).
type cmpReq struct {
	key   string
	bench workload.Params
	cores int
	pf    func(cores int) (prefetch.Prefetcher, error)
}

func (r cmpReq) id() (string, string, workload.Params) { return "cmp", r.key, r.bench }

// simulate executes one CMP cell.
func (r cmpReq) simulate(s *Session) cell {
	cfg := sim.DefaultConfig()
	cfg.Core.OnChipCPI = r.bench.OnChipCPI
	cfg.WarmInsts, cfg.MeasureInsts = s.opts.windows()
	// Per-thread windows at the single-core length would multiply runtime
	// by the core count; scale them down so each CMP point costs about one
	// single-core run.
	cfg.WarmInsts /= uint64(r.cores)
	cfg.MeasureInsts /= uint64(r.cores)
	sources := make([]trace.Source, r.cores)
	for i := range sources {
		b := r.bench
		b.Seed += int64(i) * 7919
		src, err := workload.New(b)
		if err != nil {
			return cell{err: err}
		}
		if s.opts.MaxInsts > 0 {
			sources[i] = trace.NewLimit(src, s.opts.MaxInsts)
		} else {
			sources[i] = src
		}
	}
	pf, err := r.pf(r.cores)
	if err != nil {
		return cell{err: err}
	}
	if err := s.warmStart(pf); err != nil {
		return cell{err: err}
	}
	res, err := sim.RunCMP(sources, pf, cfg)
	return cell{cmp: res, err: err}
}
