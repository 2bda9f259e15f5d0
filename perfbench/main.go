// Command perfbench is the repository benchmark: it runs one named
// workload for a fixed number of seconds, checks every output the
// program produces, and prints the workload's metrics by name and unit.
//
//	bash perfbench/run.sh --workload sim-db --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics of BENCHMARK.json
// (no wrapper, probe or poller runs); with --trace 1 it measures the
// per-layer metrics instead, by wrapping the public layer boundaries
// from the outside and replaying recorded streams into the leaf
// packages. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}
//
// README.md in this directory explains the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ebcp/internal/registry"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations and remembers the first
// failure so it can be reported on standard error.
type tally struct {
	attempted, failed int
	firstErr          error
}

// note records one operation's outcome.
func (t *tally) note(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// opts are the command-line settings shared by every workload.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	ebcpd    string
}

// budget returns the measurement window as a duration.
func (o opts) budget() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// workloads maps each workload name to its untraced and traced passes
// and to the per-layer metrics (by name prefix) its traced pass
// measures. Every other per-layer metric reads 0 on that workload: the
// workload does not exercise the layer, or the benchmark cannot observe
// it from outside the process that does. A workload with an op has the
// untraced pass runOps, which repeats op in processes of its own.
var workloads = map[string]struct {
	op          func(o opts) (opResult, error)
	run, traced func(o opts, t *tally) (map[string]metric, error)
	layers      []string
}{
	"sim-db": {simOp, runOps, tracedSimDB, []string{"workload.", "core.", "sim.", "go.",
		"cache.", "cpu.", "mem.", "corrtab.", "ledger.", "bench."}},
	"artifact": {artifactOp, runOps, tracedArtifact, []string{"workload.new_ms", "exp.", "go.", "prefetch.",
		"serve.", "bench."}},
}

func main() {
	var o opts
	var traceFlag int
	var op bool
	flag.StringVar(&o.workload, "workload", "", "workload name (sim-db, artifact)")
	flag.Int64Var(&o.seed, "seed", 0, "workload seed; 0 reproduces the canonical inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long one run measures")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository checkout the benchmark reads BENCHMARK.json and goldens from")
	flag.StringVar(&o.ebcpd, "ebcpd", "", "path of the ebcpd binary built from this checkout (the artifact traced pass)")
	flag.BoolVar(&op, "op", false, "run one untraced operation and print its result (the benchmark starts itself so)")
	flag.Parse()
	o.trace = traceFlag == 1
	// One processor: every workload's work runs on one thread, the
	// garbage collector's included. On a shared host a second thread
	// times whatever else runs on the second vCPU, not the program.
	runtime.GOMAXPROCS(1)
	var err error
	if op {
		err = runOp(o)
	} else {
		err = run(o, traceFlag)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(o opts, traceFlag int) error {
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", o.workload)
	}
	decl, err := readDeclared(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := checkContenders(decl); err != nil {
		return err
	}
	var t tally
	pass := w.run
	if o.trace {
		pass = w.traced
	}
	ms, err := pass(o, &t)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	want := decl.EndToEnd
	if o.trace {
		want = decl.PerLayer
		idle(ms, want, w.layers)
	}
	if err := checkDeclared(ms, want); err != nil {
		return err
	}
	if t.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	printTable(ms)
	line, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// declared is the part of BENCHMARK.json the benchmark checks its own
// output against.
type declared struct {
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(path string) (declared, error) {
	var d declared
	data, err := os.ReadFile(path)
	if err != nil {
		return d, fmt.Errorf("reading the metric declarations: %w", err)
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("parsing %s: %w", path, err)
	}
	return d, nil
}

// checkDeclared requires the emitted metrics to be exactly the declared
// set, each with its declared unit.
func checkDeclared(got map[string]metric, want []declMetric) error {
	var problems []string
	seen := make(map[string]bool, len(want))
	for _, d := range want {
		seen[d.Name] = true
		m, ok := got[d.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+d.Name)
		case m.Unit != d.Unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, declared %q", d.Name, m.Unit, d.Unit))
		}
	}
	for name := range got {
		if !seen[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics disagree with BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// idle sets to 0 every declared metric outside the measured layers. A
// metric inside them that the pass did not report stays missing, so
// checkDeclared refuses it.
func idle(ms map[string]metric, decl []declMetric, layers []string) {
	for _, d := range decl {
		if !hasAnyPrefix(d.Name, layers) {
			if _, reported := ms[d.Name]; !reported {
				ms[d.Name] = metric{0, d.Unit}
			}
		}
	}
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// contenderPrefix names the per-contender replay cost metrics. The
// declared list is the contender set the benchmark was written for; a
// registry that differs from it means a new contender needs a
// benchmark change first.
const contenderPrefix = "prefetch.on_access_ns."

// filteredContender is the one wrapped contender the cost table adds to
// the registry's names (the frontier experiment's filtered GHB).
const filteredContender = "filter-ghb-large"

func checkContenders(d declared) error {
	var declaredNames []string
	for _, m := range d.PerLayer {
		if name, ok := strings.CutPrefix(m.Name, contenderPrefix); ok {
			declaredNames = append(declaredNames, name)
		}
	}
	regNames := append(registry.PrefetcherNames(), filteredContender)
	sort.Strings(declaredNames)
	sort.Strings(regNames)
	if strings.Join(declaredNames, " ") != strings.Join(regNames, " ") {
		return fmt.Errorf("registered contenders %v differ from the benchmark's list %v: extend BENCHMARK.json and the cost table together",
			regNames, declaredNames)
	}
	return nil
}

// printTable writes every metric by name with its unit, for people.
func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// freshHeap collects garbage left by earlier work, so every timed
// operation starts from the heap a single user run would start from.
func freshHeap() { runtime.GC() }
