package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root lists the same names and units; metrics_test.go keeps
// the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd are the metrics a user or operator of the system sees,
// printed by every workload with tracing off. Each is defined for all
// four workloads (README.md spells out what "op" and "wait" mean on
// each), because every metric is compared on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"wait_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"mu", "ratio", "higher", 0.2},
	{"scov", "ratio", "higher", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayer are the traced run's per-layer diagnostics. Every workload
// prints all of them; a layer that does no work on a workload reports 0,
// which is itself the prediction "no change" for that pairing.
var perLayer = []metricDef{
	{"treemine.busy_ms", "ms", "lower", 0},
	{"cluster.coarse.busy_ms", "ms", "lower", 0},
	{"cluster.fine.busy_ms", "ms", "lower", 0},
	{"cluster.splits", "count", "lower", 0},
	{"mcs.calls", "count", "lower", 0},
	{"simcache.hit_ratio", "ratio", "higher", 0},
	{"csg.busy_ms", "ms", "lower", 0},
	{"csg.merges", "count", "lower", 0},
	{"core.select.busy_ms", "ms", "lower", 0},
	{"core.walks", "count", "lower", 0},
	{"core.candidates", "count", "lower", 0},
	{"core.accept_ratio", "ratio", "higher", 0},
	{"ged.calls", "count", "lower", 0},
	{"subiso.vf2_calls", "count", "lower", 0},
	{"cover.hit_ratio", "ratio", "higher", 0},
	{"cover.pruned_ratio", "ratio", "higher", 0},
	{"maintainer.refresh_ms", "ms", "lower", 0},
	{"maintainer.reselect_ms", "ms", "lower", 0},
	{"store.persist_ms", "ms", "lower", 0},
	{"store.bytes_per_persist", "bytes", "lower", 0},
	{"store.recover_ms", "ms", "lower", 0},
	{"serve.snapshot_ms", "ms", "lower", 0},
	{"serve.handler.search_ms", "ms", "lower", 0},
	{"serve.handler.suggest_ms", "ms", "lower", 0},
	{"serve.handler.refresh_ms", "ms", "lower", 0},
	{"serve.read_p99_ms", "ms", "lower", 0},
	{"suggest.busy_p50_ms", "ms", "lower", 0},
	{"suggest.busy_p99_ms", "ms", "lower", 0},
	{"suggest.degraded_ratio", "ratio", "lower", 0},
	{"suggest.approx_ratio", "ratio", "lower", 0},
	{"suggest.candidates", "count", "lower", 0},
	{"bignet.load_ms", "ms", "lower", 0},
	{"bignet.load_edges_per_s", "1/s", "higher", 0},
	{"bignet.decompose_ms", "ms", "lower", 0},
	{"bignet.regions", "count", "lower", 0},
	{"bignet.reps", "count", "lower", 0},
	{"loadgen.keystroke_p50_ms", "ms", "lower", 0},
	{"loadgen.keystrokes_per_s", "1/s", "higher", 0},
	{"loadgen.read_late_p99_ms", "ms", "lower", 0},
	{"runtime.alloc_mb_per_op", "MB", "lower", 0},
	{"runtime.gc_per_op", "count", "lower", 0},
	{"runtime.cpu_util", "ratio", "higher", 0},
	{"env.steal_s", "s", "lower", 0},
	{"trace.op_p50_ms", "ms", "lower", 0},
	{"trace.layer_share", "ratio", "higher", 0},
}

// declared returns the definition of name in either list.
func declared(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints one human-readable line per metric of defs and then
// the result object as the final line. A metric of defs that was not
// measured reads 0; JSON has no NaN or infinity, so those read 0 too.
func writeResult(w io.Writer, defs []metricDef, vals map[string]float64, res result) error {
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "metric %-26s %16.6f %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := nearestRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
// The slack absorbs decimal percentiles such as 99.9 that have no exact
// binary form, so that p99.9 of 10000 samples is rank 9990, not 9991.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailLadder are the tail percentiles a timing is reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten samples beyond its nearest rank, or 0 when n is too small for
// any of them: a tail estimated from fewer samples is one or two outliers.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 50th nearest-rank percentile of xs (any order).
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how the steadiness of a metric across runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
