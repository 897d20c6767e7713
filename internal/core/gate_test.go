// Benchmarks and the regression gate for the coverage engine
// (internal/cover) on the scoring hot path — repeated CCov / UpdateWeights
// containment over CSGs across multiplicative-weight iterations — against
// the sequential oracles of cover_diff_test.go. `make bench-gate` runs the
// gate, which writes BENCH_cover.json at the repository root and fails
// when the engine path is slower than the oracle loop on the seed dataset.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/csg"
	"repro/internal/dataset"
	"repro/internal/graph"
)

// coverageFixture is the seed-dataset scoring workload, built once per
// process: a 120-graph AIDS analog chunked into 12 clusters with CSGs, and
// a pool of candidate-sized patterns drawn from the data graphs.
type coverageFixture struct {
	db       *graph.DB
	csgs     []*csg.CSG
	patterns []*graph.Graph
}

var (
	coverageFix     *coverageFixture
	coverageFixOnce sync.Once
)

func coverageSetup() *coverageFixture {
	coverageFixOnce.Do(func() {
		db := dataset.AIDSLike(120, 3)
		var clusters [][]int
		for i := 0; i < db.Len(); i += 10 {
			members := make([]int, 10)
			for j := range members {
				members[j] = i + j
			}
			clusters = append(clusters, members)
		}
		rng := rand.New(rand.NewSource(3))
		var patterns []*graph.Graph
		for len(patterns) < 12 {
			g := db.Graph(rng.Intn(db.Len()))
			if p := graph.RandomConnectedSubgraph(g, 3+rng.Intn(4), rng); p != nil {
				patterns = append(patterns, p)
			}
		}
		csgs, _ := csg.BuildAllCtx(context.Background(), db, clusters) // never cancelled
		coverageFix = &coverageFixture{db: db, csgs: csgs, patterns: patterns}
	})
	return coverageFix
}

// coverSink keeps the compiler from discarding the measured calls.
var coverSink float64

// scoringWorkload mimics the selection loop's use of coverage: every
// iteration re-scores the whole candidate pool against the CSGs, then
// applies a multiplicative-weight update for one winner. On the engine
// path, iterations ≥ 2 are pure cache hits.
func scoringWorkload(sc *Context, patterns []*graph.Graph, iters int, naive bool) {
	for it := 0; it < iters; it++ {
		for _, p := range patterns {
			if naive {
				coverSink = naiveCCov(sc, p)
			} else {
				coverSink = sc.CCov(p)
			}
		}
		if naive {
			naiveUpdateWeights(sc, patterns[it%len(patterns)])
		} else {
			sc.UpdateWeights(patterns[it%len(patterns)])
		}
	}
}

const coverageIters = 6

func benchCoverage(b *testing.B, naive bool) {
	fix := coverageSetup()
	b.ResetTimer()
	var last *Context
	for i := 0; i < b.N; i++ {
		// A fresh context per op: the measured cost includes engine
		// construction (feature index + host keys), so the speedup is not
		// an artifact of cross-iteration cache reuse.
		sc := NewContext(fix.db, fix.csgs)
		scoringWorkload(sc, fix.patterns, coverageIters, naive)
		last = sc
	}
	b.StopTimer()
	if !naive && last != nil {
		s := last.CoverEngine().Stats()
		b.ReportMetric(float64(s.Hits), "hits/op")
		b.ReportMetric(float64(s.Misses), "misses/op")
		b.ReportMetric(float64(s.Pruned), "pruned/op")
		b.ReportMetric(float64(s.VF2Calls), "vf2/op")
	}
}

// BenchmarkCoverage compares the scoring hot path with the coverage engine
// against the sequential VF2 oracle loop on the seed dataset.
func BenchmarkCoverage(b *testing.B) {
	b.Run("engine", func(b *testing.B) { benchCoverage(b, false) })
	b.Run("naive", func(b *testing.B) { benchCoverage(b, true) })
}

// TestCoverageBenchGate measures both paths with testing.Benchmark, writes
// BENCH_cover.json, and fails when the engine path is slower than the
// oracle loop. Opt-in via BENCH_GATE=1 so regular `go test ./...` stays
// fast.
func TestCoverageBenchGate(t *testing.T) {
	if os.Getenv("BENCH_GATE") == "" {
		t.Skip("set BENCH_GATE=1 to run the coverage benchmark gate")
	}
	engine := testing.Benchmark(func(b *testing.B) { benchCoverage(b, false) })
	naive := testing.Benchmark(func(b *testing.B) { benchCoverage(b, true) })

	engineNs := float64(engine.NsPerOp())
	naiveNs := float64(naive.NsPerOp())
	report := struct {
		EngineNsPerOp float64 `json:"engine_ns_op"`
		NaiveNsPerOp  float64 `json:"naive_ns_op"`
		Speedup       float64 `json:"speedup"`
	}{engineNs, naiveNs, naiveNs / engineNs}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	// BENCH_cover.json at the repository root, seen from this package's
	// directory, where go test runs it.
	if err := os.WriteFile("../../BENCH_cover.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("coverage gate: engine %.0f ns/op, naive %.0f ns/op, speedup %.2fx\n",
		engineNs, naiveNs, report.Speedup)

	if engineNs > naiveNs {
		t.Fatalf("coverage engine is slower than the naive path: %.0f ns/op vs %.0f ns/op",
			engineNs, naiveNs)
	}
}
