package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// goDelta accumulates the Go runtime's GC CPU and allocation counters
// over a set of runs, read around each run.
type goDelta struct {
	samples                []metrics.Sample
	gc, total, alloc, runs float64
	g0, t0, a0             float64
}

func newGoDelta() *goDelta {
	return &goDelta{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// read returns GC CPU seconds, total available CPU seconds and
// cumulative allocated bytes.
func (d *goDelta) read() (gcCPU, totalCPU, allocBytes float64) {
	metrics.Read(d.samples)
	return d.samples[0].Value.Float64(), d.samples[1].Value.Float64(), float64(d.samples[2].Value.Uint64())
}

func (d *goDelta) start() { d.g0, d.t0, d.a0 = d.read() }

func (d *goDelta) stop() {
	g, t, a := d.read()
	d.gc += g - d.g0
	d.total += t - d.t0
	d.alloc += a - d.a0
	d.runs++
}

// metrics reports the GC share of available CPU and MiB allocated per
// run.
func (d *goDelta) metrics(ms map[string]metric) {
	frac, perRun := 0.0, 0.0
	if d.total > 0 {
		frac = d.gc / d.total
	}
	if d.runs > 0 {
		perRun = d.alloc / d.runs / (1 << 20)
	}
	ms["go.gc_cpu_frac"] = metric{frac, "ratio"}
	ms["go.alloc_mb_per_run"] = metric{perRun, "MB"}
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// report states a sample's count and quartiles on standard error.
func report(what string, xs []float64, unit string) {
	fmt.Fprintf(os.Stderr, "perfbench: %d %s samples: p25 %.4g, p50 %.4g, p75 %.4g %s\n",
		len(xs), what, quantile(xs, 0.25), median(xs), quantile(xs, 0.75), unit)
}
