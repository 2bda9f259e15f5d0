package analysis

// The go/types loading layer. PR 5's driver was purely syntactic
// (go/parser over one directory at a time); the type-aware analyzers
// (codecstrict, and the typed upgrades of nopanic, errwrap and
// hotpathalloc) need resolved identifiers, receiver types and
// cross-package call targets. This file type-checks the already-parsed
// ASTs in dependency order with a module-local importer: imports inside
// the module resolve to the loaded packages themselves (checked
// recursively, memoized, cycle-guarded), and everything else falls back
// to the standard library's source importer (go/importer "source" mode,
// which type-checks GOROOT source — still stdlib-only, go.mod stays
// zero-dependency).
//
// Failure is loud by contract: a package that does not type-check
// yields positioned [typecheck] driver diagnostics — never a panic and
// never a silent skip — and its Info stays nil, which the typed
// analyzers treat as "already reported, nothing to analyze".

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ebcp/internal/ebcperr"
)

// maxTypeErrs bounds how many type errors one package reports; a broken
// package tends to cascade, and the first few positions are the signal.
const maxTypeErrs = 5

// ModulePath reads the module path from root/go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", ebcperr.Wrap(ebcperr.ErrInvalidConfig, "analysis: reading go.mod: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if p := strings.TrimSpace(rest); p != "" {
				return strings.Trim(p, `"`), nil
			}
		}
	}
	return "", ebcperr.Wrap(ebcperr.ErrInvalidConfig, "analysis: no module line in %s", filepath.Join(root, "go.mod"))
}

// tcEntry tracks one import path through the checker's state machine.
type tcEntry struct {
	pkg   *Pkg // nil until loaded (lazily for on-disk module packages)
	tpkg  *types.Package
	state int // 0 unseen, 1 in progress (cycle guard), 2 done
	fail  bool
}

// TypeChecker type-checks loaded packages against one module root. It
// memoizes both module packages and the standard library, so a single
// checker shared across many Check calls (the test harness, the
// self-check, every fixture) pays the stdlib type-checking cost once.
type TypeChecker struct {
	fset    *token.FileSet
	root    string
	modPath string
	std     types.ImporterFrom
	entries map[string]*tcEntry
	diags   []Diagnostic
}

// NewTypeChecker builds a checker for the module rooted at root. The
// checker owns the token.FileSet every package it touches must share;
// load packages with LoadDir/LoadModule using Fset().
func NewTypeChecker(root string) (*TypeChecker, error) {
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, _ := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if std == nil {
		return nil, ebcperr.Wrap(ebcperr.ErrInvalidConfig, "analysis: source importer unavailable")
	}
	return &TypeChecker{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     std,
		entries: map[string]*tcEntry{},
	}, nil
}

// Fset returns the checker's file set; every package the checker sees
// must have been parsed into it.
func (tc *TypeChecker) Fset() *token.FileSet { return tc.fset }

// importPath maps a module-relative directory to its import path.
func (tc *TypeChecker) importPath(rel string) string {
	if rel == "" {
		return tc.modPath
	}
	return tc.modPath + "/" + rel
}

// register binds a loaded package to the import path the checker will
// resolve it under. Fixture packages register under a synthetic
// "fixture/..." path so a virtual Rel (say "internal/sim") can never
// shadow the real module package.
//
// If the path was already checked through a different *Pkg (a fixture
// import lazily loaded the directory before the caller did), the new
// Pkg adopts the checked ASTs and facts instead of re-checking: two
// type-checks of one package would mint two incompatible generations
// of its types, and every cross-package comparison after that would
// miscompare.
func (tc *TypeChecker) register(path string, p *Pkg) *tcEntry {
	e, ok := tc.entries[path]
	if !ok {
		e = &tcEntry{}
		tc.entries[path] = e
	}
	if e.pkg != nil && e.pkg != p && e.state == 2 {
		if !e.fail {
			p.Name, p.Files = e.pkg.Name, e.pkg.Files
			p.Types, p.Info = e.pkg.Types, e.pkg.Info
		}
		e.pkg = p
		return e
	}
	e.pkg = p
	return e
}

// Import implements types.Importer for the module side: module-local
// paths resolve to loaded (or lazily loaded) packages, "unsafe" to
// types.Unsafe, and anything else to the stdlib source importer.
func (tc *TypeChecker) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == "C" {
		return nil, ebcperr.Wrap(ebcperr.ErrInvalidConfig, "cgo is not supported in module packages")
	}
	if path == tc.modPath || strings.HasPrefix(path, tc.modPath+"/") {
		e, err := tc.require(path)
		if err != nil {
			return nil, err
		}
		if e.fail {
			return nil, ebcperr.Wrap(ebcperr.ErrInvalidConfig, "package %s did not type-check", path)
		}
		return e.tpkg, nil
	}
	return tc.std.Import(path)
}

// require resolves a module-local import path to a checked entry,
// loading the package from disk if no loaded package was registered.
func (tc *TypeChecker) require(path string) (*tcEntry, error) {
	e, ok := tc.entries[path]
	if !ok || e.pkg == nil {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, tc.modPath), "/")
		p, err := LoadDir(tc.fset, filepath.Join(tc.root, filepath.FromSlash(rel)), rel)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, ebcperr.Wrap(ebcperr.ErrInvalidConfig, "no Go files in %s", path)
		}
		e = tc.register(path, p)
	}
	switch e.state {
	case 1:
		return nil, ebcperr.Wrap(ebcperr.ErrInvalidConfig, "import cycle through %s", path)
	case 2:
		return e, nil
	}
	tc.checkEntry(path, e)
	return e, nil
}

// checkEntry runs go/types over one entry, always collecting Info: a
// package is checked exactly once per checker (re-checking would mint a
// second generation of its types, incompatible with the first), so the
// facts must be complete the first time. Type errors become positioned
// [typecheck] diagnostics on tc.diags and mark the entry failed; Info
// and Types stay nil on failure so typed analyzers skip the package
// instead of reading partial facts.
func (tc *TypeChecker) checkEntry(path string, e *tcEntry) {
	e.state = 1
	defer func() { e.state = 2 }()

	var terrs []Diagnostic
	sawErr := false
	conf := types.Config{
		Importer: tc,
		Error: func(err error) {
			sawErr = true
			te, ok := err.(types.Error)
			if !ok {
				terrs = append(terrs, Diagnostic{token.Position{Filename: e.pkg.Rel}, "typecheck", err.Error()})
				return
			}
			if te.Soft {
				return // e.g. an unused import in a fixture: not a load failure
			}
			terrs = append(terrs, Diagnostic{te.Fset.Position(te.Pos), "typecheck", te.Msg})
		},
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := conf.Check(path, tc.fset, e.pkg.Files, info)
	if !sawErr && err != nil {
		// Importer errors and other non-positioned failures: anchor on the
		// package clause so the diagnostic still points into the package.
		terrs = append(terrs, Diagnostic{tc.fset.Position(e.pkg.Files[0].Package), "typecheck", err.Error()})
	}
	if len(terrs) > 0 {
		e.fail = true
		if len(terrs) > maxTypeErrs {
			last := terrs[maxTypeErrs-1]
			last.Message = fmt.Sprintf("... and %d more type errors in this package", len(terrs)-maxTypeErrs+1)
			terrs = append(terrs[:maxTypeErrs-1], last)
		}
		tc.diags = append(tc.diags, terrs...)
		return
	}
	e.tpkg = tpkg
	e.pkg.Types = tpkg
	e.pkg.Info = info
}

// CheckModule type-checks every loaded module package in dependency
// order (the importer recursion is the order), filling Types and Info
// on success, and returns the positioned [typecheck] diagnostics of the
// packages that failed. The pkgs must share the checker's Fset.
func (tc *TypeChecker) CheckModule(pkgs []*Pkg) []Diagnostic {
	for _, p := range pkgs {
		tc.register(tc.importPath(p.Rel), p)
	}
	start := len(tc.diags)
	for _, p := range pkgs {
		e := tc.entries[tc.importPath(p.Rel)]
		if e.state == 0 {
			tc.checkEntry(tc.importPath(p.Rel), e)
		}
	}
	out := append([]Diagnostic(nil), tc.diags[start:]...)
	sortDiags(out)
	return out
}

// Check type-checks one package (typically a testdata fixture loaded
// under a virtual Rel) against the module: its ebcp/... imports resolve
// to the real module packages, loaded from disk on demand. The package
// registers under a synthetic "fixture/<on-disk dir>" path — keyed by
// directory, not Rel, because two fixtures may share a virtual Rel and
// must not clobber each other — so it can never shadow a real module
// package either.
// Returns the positioned [typecheck] diagnostics; empty means Info and
// Types are filled. Re-checking the same fixture directory adopts the
// first check's facts instead of minting a second generation of types.
func (tc *TypeChecker) Check(p *Pkg) []Diagnostic {
	path := "fixture/" + p.Rel
	if len(p.Files) > 0 {
		path = "fixture/" + filepath.ToSlash(filepath.Dir(tc.fset.Position(p.Files[0].Package).Filename))
	}
	e := tc.register(path, p)
	if e.state == 2 && !e.fail {
		return nil // already checked; register adopted the facts
	}
	e.state = 0
	e.fail = false
	start := len(tc.diags)
	tc.checkEntry(path, e)
	out := append([]Diagnostic(nil), tc.diags[start:]...)
	sortDiags(out)
	return out
}

// sortDiags orders diagnostics by file, line, column, check — the
// driver's output order.
func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}
