// Package registry names the building blocks an experiment spec
// (ebcp.spec/v1, internal/spec) can reference: prefetcher constructors
// and workload-generator parameter sets, each registered under a short
// stable name. The spec compiler (internal/exp) resolves names through
// this package, so adding a contender or a workload touches exactly one
// place — its registration — instead of every experiment definition.
//
// The built-in entries live in builtin.go as map literals (duplicate
// names are then a compile error); RegisterPrefetcher/RegisterWorkload
// let extension packages self-register additional entries at init time.
// Tests keep the built-in names and the committed spec files under
// internal/exp/specs in sync: exp's canonical() rejects a spec name
// this package does not resolve, and TestCanonicalSpecsCoverEveryContender
// (internal/exp) fails on a registered prefetcher no spec uses.
package registry

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"sync"

	"ebcp/internal/ebcperr"
	"ebcp/internal/prefetch"
	"ebcp/internal/workload"
)

// PrefetcherEntry is one named contender. New builds a fresh prefetcher
// from a spec's JSON parameter block (strict-decoded: unknown parameter
// fields are rejected) for a machine with the given core count; cores
// is 0 for single-core cells and the lane count for CMP cells.
type PrefetcherEntry struct {
	Name string
	Doc  string
	New  func(params json.RawMessage, cores int) (prefetch.Prefetcher, error)
}

// WorkloadEntry is one named workload: Params returns the generator
// parameter set workload.New consumes.
type WorkloadEntry struct {
	Name   string
	Doc    string
	Params func() workload.Params
}

var (
	mu          sync.RWMutex
	prefetchers = builtinPrefetchers()
	workloads   = builtinWorkloads()
)

// RegisterPrefetcher adds a contender under its Name. Registering an
// empty name, a nil constructor or a name already taken is an
// ErrInvalidConfig error; built-ins cannot be replaced.
func RegisterPrefetcher(e PrefetcherEntry) error {
	if e.Name == "" || e.New == nil {
		return ebcperr.Invalidf("registry: prefetcher entry needs a name and a constructor")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := prefetchers[e.Name]; dup {
		return ebcperr.Invalidf("registry: prefetcher %q already registered", e.Name)
	}
	prefetchers[e.Name] = e
	return nil
}

// RegisterWorkload adds a workload under its Name, with the same rules
// as RegisterPrefetcher.
func RegisterWorkload(e WorkloadEntry) error {
	if e.Name == "" || e.Params == nil {
		return ebcperr.Invalidf("registry: workload entry needs a name and a params factory")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := workloads[e.Name]; dup {
		return ebcperr.Invalidf("registry: workload %q already registered", e.Name)
	}
	workloads[e.Name] = e
	return nil
}

// Prefetcher resolves a contender name. Unknown names are
// ErrInvalidConfig errors listing what is registered.
func Prefetcher(name string) (PrefetcherEntry, error) {
	mu.RLock()
	e, ok := prefetchers[name]
	mu.RUnlock()
	if !ok {
		return PrefetcherEntry{}, ebcperr.Invalidf("registry: unknown prefetcher %q (registered: %s)",
			name, strings.Join(PrefetcherNames(), ", "))
	}
	return e, nil
}

// Workload resolves a workload name, with the same error contract as
// Prefetcher.
func Workload(name string) (WorkloadEntry, error) {
	mu.RLock()
	e, ok := workloads[name]
	mu.RUnlock()
	if !ok {
		return WorkloadEntry{}, ebcperr.Invalidf("registry: unknown workload %q (registered: %s)",
			name, strings.Join(WorkloadNames(), ", "))
	}
	return e, nil
}

// PrefetcherNames returns every registered contender name, sorted.
func PrefetcherNames() []string {
	mu.RLock()
	defer mu.RUnlock()
	return sortedKeys(prefetchers)
}

// WorkloadNames returns every registered workload name, sorted.
func WorkloadNames() []string {
	mu.RLock()
	defer mu.RUnlock()
	return sortedKeys(workloads)
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// decodeParams strict-decodes a constructor's parameter block into P.
// An absent or empty block yields the zero value, so parameterless
// entries accept both `"params": {}` and no params field at all.
func decodeParams[P any](name string, params json.RawMessage) (P, error) {
	var p P
	if len(params) == 0 {
		return p, nil
	}
	dec := json.NewDecoder(bytes.NewReader(params))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return p, ebcperr.Invalidf("registry: prefetcher %q params: %v", name, err)
	}
	return p, nil
}
