// Benchmarks and the regression gate for the similarity engine on the
// access pattern of clustering: rows of a pairwise similarity matrix, as
// fine clustering requests one per split seed, over a database with heavy
// isomorphic redundancy. `make bench-gate-cluster` runs the gate, which writes
// BENCH_cluster.json at the repository root and fails when the memoized,
// parallel engine is less than 1.5x faster than the sequential oracle
// (naiveBatch).
package simcache

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/pipeline"
)

// clusterGateOptions is the gate's similarity configuration: the
// connected measure fine clustering uses by default, at a 4000-node
// budget.
var clusterGateOptions = Options{Kind: mcs.KindMCCS, Budget: 4000}

// matrixRows returns row i of the upper triangle of an n×n similarity
// matrix: members i+1..n-1 against target i.
func matrixRows(n int) [][]int {
	rows := make([][]int, n-1)
	for i := range rows {
		for j := i + 1; j < n; j++ {
			rows[i] = append(rows[i], j)
		}
	}
	return rows
}

// clusterSink keeps the compiler from discarding the measured calls.
var clusterSink []float64

func benchClustering(b *testing.B, gs []*graph.Graph, naive bool) {
	rows := matrixRows(len(gs))
	rec := pipeline.NewRecorder()
	ctx := pipeline.WithTrace(context.Background(), rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh engine per op, so the measured cost includes canonical
		// labeling and engine setup — the speedup is not an artifact of
		// cross-iteration cache reuse.
		e := New(gs, clusterGateOptions)
		for target, row := range rows {
			if naive {
				clusterSink = naiveBatch(e, row, target)
			} else {
				var err error
				if clusterSink, err = e.BatchCtx(ctx, row, target); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	if !naive && b.N > 0 {
		n := float64(b.N)
		b.ReportMetric(float64(rec.Total(pipeline.CounterSimHits))/n, "hits/op")
		b.ReportMetric(float64(rec.Total(pipeline.CounterSimMisses))/n, "misses/op")
		b.ReportMetric(float64(rec.Total(pipeline.CounterClusterPairsPruned))/n, "pruned/op")
	}
}

// BenchmarkClustering compares the similarity engine against the
// sequential oracle on the gate's workload.
func BenchmarkClustering(b *testing.B) {
	gs := redundantGraphs(8, 2, 5)
	b.Run("engine", func(b *testing.B) { benchClustering(b, gs, false) })
	b.Run("naive", func(b *testing.B) { benchClustering(b, gs, true) })
}

// TestClusteringBenchGate measures both paths with testing.Benchmark,
// writes BENCH_cluster.json, and fails when the engine is less than 1.5x
// faster than the oracle. Opt-in via BENCH_GATE_CLUSTER=1 so regular
// `go test ./...` stays fast.
func TestClusteringBenchGate(t *testing.T) {
	if os.Getenv("BENCH_GATE_CLUSTER") == "" {
		t.Skip("set BENCH_GATE_CLUSTER=1 to run the clustering benchmark gate")
	}
	gs := redundantGraphs(8, 2, 5)
	engine := testing.Benchmark(func(b *testing.B) { benchClustering(b, gs, false) })
	naive := testing.Benchmark(func(b *testing.B) { benchClustering(b, gs, true) })

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
	// BENCH_cluster.json at the repository root, seen from this package's
	// directory, where go test runs it.
	if err := os.WriteFile("../../BENCH_cluster.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("clustering gate: engine %.0f ns/op, naive %.0f ns/op, speedup %.2fx\n",
		engineNs, naiveNs, report.Speedup)

	const minSpeedup = 1.5
	if report.Speedup < minSpeedup {
		t.Fatalf("simcache speedup %.2fx below the %.1fx gate (engine %.0f ns/op, naive %.0f ns/op)",
			report.Speedup, minSpeedup, engineNs, naiveNs)
	}
}
