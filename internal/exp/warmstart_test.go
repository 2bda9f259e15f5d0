package exp

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ebcp/internal/amo"
	"ebcp/internal/core"
	"ebcp/internal/corrtab"
	"ebcp/internal/ebcperr"
	"ebcp/internal/prefetch"
	"ebcp/internal/workload"
)

// writeTableFile serializes a table with the given geometry (and a few
// deterministic rows) to a temp file, returning its path.
func writeTableFile(t *testing.T, entries, maxAddrs int) string {
	t.Helper()
	tab, err := corrtab.New(corrtab.Config{Entries: entries, MaxAddrs: maxAddrs})
	if err != nil {
		t.Fatal(err)
	}
	tab.Update(amo.Line(3), []amo.Line{10, 11})
	tab.Update(amo.Line(7), []amo.Line{20, 21, 22})
	path := filepath.Join(t.TempDir(), "corrtab.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := corrtab.Encode(f, tab); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// warmReq is an EBCP cell at the default geometry.
func warmReq(b workload.Params) runReq {
	return runReq{
		key:   "warmstart/" + b.Name,
		bench: b,
		pf:    func() (prefetch.Prefetcher, error) { return core.New(core.DefaultConfig()) },
	}
}

func TestOptionsLoadCorrtabWarmStartsEBCP(t *testing.T) {
	dflt := core.DefaultConfig()
	path := writeTableFile(t, dflt.TableEntries, dflt.TableMaxAddrs)
	b := workload.Database()
	s := NewSession(Options{Warm: 200e3, Measure: 200e3, LoadCorrtab: path})

	c := s.exec(warmReq(b))
	if c.err != nil {
		t.Fatalf("warm-started cell failed: %v", c.err)
	}
	if c.res.Core.Instructions == 0 {
		t.Error("warm-started cell produced no instructions")
	}

	// Non-EBCP cells must pass through untouched.
	if err := s.exec(baselineReq(b)).err; err != nil {
		t.Fatalf("baseline cell failed under LoadCorrtab: %v", err)
	}
}

func TestOptionsLoadCorrtabRejectsGeometryMismatch(t *testing.T) {
	dflt := core.DefaultConfig()
	path := writeTableFile(t, dflt.TableEntries/2, dflt.TableMaxAddrs)
	s := NewSession(Options{Warm: 200e3, Measure: 200e3, LoadCorrtab: path})
	if err := s.exec(warmReq(workload.Database())).err; !errors.Is(err, ebcperr.ErrInvalidConfig) {
		t.Fatalf("err = %v, want ErrInvalidConfig for mismatched table geometry", err)
	}
}

func TestOptionsLoadCorrtabMissingFile(t *testing.T) {
	s := NewSession(Options{Warm: 200e3, Measure: 200e3,
		LoadCorrtab: filepath.Join(t.TempDir(), "absent.json")})
	if err := s.exec(warmReq(workload.Database())).err; err == nil {
		t.Fatal("missing table file did not fail the cell")
	}
}
