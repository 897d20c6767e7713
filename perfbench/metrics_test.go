package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9, 1, 5) = %v, want 5", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0 {
			if beyond := c.n - nearestRank(got, c.n); beyond < 10 {
				t.Errorf("tailPercentile(%d) = p%v leaves %d samples beyond it", c.n, got, beyond)
			}
		}
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 9, 2, 7}, 1.5, 8},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := pyMedian([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("pyMedian(1..4) = %v, want 2.5", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric declarations
// must agree with.
type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

var (
	legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every metric the benchmark can print is declared in BENCHMARK.json with
// the same unit and direction, under a legal and unique name.
func TestMetricsDeclaredInBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics, the code %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		j := bf.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the code %+v", i, j, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for i, d := range perLayer {
		j := bf.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the code %+v", i, j, d)
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !legalName.MatchString(d.name) || !legalUnit.MatchString(d.unit) {
			t.Errorf("illegal metric name %q or unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
}

// The result line carries exactly the declared metrics of its mode, and
// recording an undeclared metric is refused.
func TestResultLineCarriesDeclaredMetrics(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		vals := map[string]float64{defs[0].name: 1.5, "undeclared": 2, defs[1].name: math.NaN()}
		var out bytes.Buffer
		if err := writeResult(&out, defs, vals, result{Correct: true, Attempted: 1}); err != nil {
			t.Fatal(err)
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("metric %s missing or with unit %q", d.name, m.Unit)
			}
		}
		if res.Metrics[defs[0].name].Value != 1.5 || res.Metrics[defs[1].name].Value != 0 {
			t.Errorf("values not carried as measured: %+v", res.Metrics)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("recording an undeclared metric did not panic")
		}
	}()
	(&bench{vals: map[string]float64{}}).set("undeclared", 1)
}
