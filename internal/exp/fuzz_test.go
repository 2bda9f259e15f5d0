package exp

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"ebcp/internal/ebcperr"
	"ebcp/internal/metrics"
	"ebcp/internal/spec"
	"ebcp/internal/workload"
)

// sentinels is every error class the program promises; an error that
// matches none of them is unclassified.
var sentinels = []error{
	ebcperr.ErrInvalidConfig, ebcperr.ErrShortTrace, ebcperr.ErrCancelled,
	ebcperr.ErrCorruptTrace, ebcperr.ErrBadReport, ebcperr.ErrInvariant,
	ebcperr.ErrOverloaded,
}

func requireClassified(t *testing.T, stage string, err error) {
	t.Helper()
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return
		}
	}
	t.Fatalf("%s: error %q matches no ebcperr sentinel", stage, err)
}

// FuzzSpecRun fuzzes the spec pipeline semantically: arbitrary bytes go
// through the strict decoder, the registry compiler and a session at
// tiny windows on one 5%-size workload, and the report renders in every
// format. Whatever a spec asks for, nothing may panic, every error
// (decode, compile or a failed cell's Session.FirstError) must match an
// ebcperr sentinel, and every single-core cell that simulated must pass
// CheckInvariants. The committed corpus under testdata/fuzz/FuzzSpecRun
// holds the ten canonical specs and mutants of them: an unknown
// contender, rejected parameter and filter blocks, extreme bandwidth
// and buffer tweaks, a zero-core CMP cell and truncated JSON.
func FuzzSpecRun(f *testing.F) {
	bench, err := workload.Scaled(workload.Database(), 0.05)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := spec.Decode(bytes.NewReader(data))
		if err != nil {
			requireClassified(t, "decode", err)
			return
		}
		e, err := FromSpec(sp)
		if err != nil {
			requireClassified(t, "compile", err)
			return
		}
		s := NewSession(Options{Warm: 10_000, Measure: 20_000, Workers: 1, Benchmarks: []workload.Params{bench}})
		rep := e.Run(s)
		if err := s.FirstError(); err != nil {
			requireClassified(t, "run", err)
		}
		checkCellInvariants(t, s)

		rep.Render(io.Discard)
		for _, format := range []string{"csv", "markdown"} {
			if err := rep.RenderFormat(io.Discard, format); err != nil {
				requireClassified(t, "render "+format, err)
			}
		}
		doc := metrics.ReportV1{Schema: metrics.SchemaV1, Tool: "ebcpexp", Grids: []metrics.GridV1{rep.GridV1()}}
		if err := metrics.WriteJSON(io.Discard, doc); err != nil {
			t.Fatalf("encoding report: %v", err)
		}
	})
}

// checkCellInvariants runs CheckInvariants on every single-core cell
// the session simulated without error. CMP lanes duplicate shared
// counters, so their per-lane snapshots are exempt (see
// metrics.Snapshot.CheckInvariants).
func checkCellInvariants(t *testing.T, s *Session) {
	t.Helper()
	s.cells.mu.Lock()
	defer s.cells.mu.Unlock()
	for key, el := range s.cells.entries {
		c := el.Value.(*centry).val.(cell)
		if !strings.HasPrefix(key, "sim/") || c.err != nil {
			continue
		}
		snap := c.res.Snapshot()
		if err := snap.CheckInvariants(); err != nil {
			t.Errorf("cell %s: %v", key, err)
		}
	}
}
