// The MCCS half of the frozen-graph matcher regression gate. `make
// bench-gate-graph` runs it together with the VF2 half in internal/subiso;
// it merges the similarity keys into BENCH_graph.json at the repository
// root, with the host's core count, and fails when the Searcher is less
// than 3x faster than the MCCS oracle on the mutable representation
// (legacy_test.go). The Searcher's win there — the incremental candidate
// frontier against per-node rebuilds, and no allocation — grows with graph
// size and search depth, so the bound is set on this fixed workload, well
// below the 7.1-11.6x that seven runs read on a 2-core host.
package mcs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// benchGraphPath is BENCH_graph.json at the repository root, seen from
// this package's directory, where go test runs it.
const benchGraphPath = "../../BENCH_graph.json"

// simPairs is the similarity workload: consecutive molecule pairs of a
// seeded database, frozen up front as the pipeline freezes its database.
func simPairs() [][2]*graph.Graph {
	db := dataset.AIDSLike(24, 7)
	var pairs [][2]*graph.Graph
	for i := 0; i+1 < db.Len(); i += 2 {
		pairs = append(pairs, [2]*graph.Graph{db.Graph(i), db.Graph(i + 1)})
	}
	for _, g := range db.Graphs {
		g.Freeze()
	}
	return pairs
}

// simSink keeps the compiler from discarding the measured calls.
var simSink float64

func benchSimilarity(b *testing.B, pairs [][2]*graph.Graph, legacy bool) {
	ctx := context.Background()
	const budget = 4000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pr := range pairs {
			if legacy {
				simSink = legacySimilarity(KindMCCS, pr[0], pr[1], budget)
			} else {
				var err error
				if simSink, err = SimilarityMCCSCtx(ctx, pr[0], pr[1], budget); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkSimilarityMCCS compares the Searcher against the MCCS oracle on
// database graph pairs.
func BenchmarkSimilarityMCCS(b *testing.B) {
	pairs := simPairs()
	b.Run("frozen", func(b *testing.B) { benchSimilarity(b, pairs, false) })
	b.Run("legacy", func(b *testing.B) { benchSimilarity(b, pairs, true) })
}

// TestGraphBenchGate measures the Searcher against the oracle with
// testing.Benchmark, records the result in BENCH_graph.json, and fails
// below a 3x speedup. Opt-in via BENCH_GATE_GRAPH=1 so regular
// `go test ./...` stays fast.
func TestGraphBenchGate(t *testing.T) {
	if os.Getenv("BENCH_GATE_GRAPH") == "" {
		t.Skip("set BENCH_GATE_GRAPH=1 to run the graph benchmark gate")
	}
	pairs := simPairs()
	frozen := float64(testing.Benchmark(func(b *testing.B) { benchSimilarity(b, pairs, false) }).NsPerOp())
	legacy := float64(testing.Benchmark(func(b *testing.B) { benchSimilarity(b, pairs, true) }).NsPerOp())
	speedup := legacy / frozen
	if err := mergeBenchKeys(benchGraphPath, map[string]float64{
		"sim_frozen_ns_op": frozen,
		"sim_legacy_ns_op": legacy,
		"sim_speedup":      speedup,
	}); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("graph gate: MCCS frozen %.0f ns/op, legacy %.0f ns/op, speedup %.2fx\n",
		frozen, legacy, speedup)

	const minSpeedup = 3.0
	if speedup < minSpeedup {
		t.Fatalf("frozen MCCS speedup %.2fx below the %.1fx gate (frozen %.0f ns/op, legacy %.0f ns/op)",
			speedup, minSpeedup, frozen, legacy)
	}
}

// mergeBenchKeys sets keys in the JSON object stored at path, keeping the
// keys the other half of the gate wrote there, and records the host's core
// count and GOMAXPROCS beside them.
func mergeBenchKeys(path string, keys map[string]float64) error {
	report := make(map[string]float64)
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &report); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range keys {
		report[k] = v
	}
	report["num_cpu"] = float64(runtime.NumCPU())
	report["gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
