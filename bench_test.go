// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment; see DESIGN.md's per-experiment index).
// Each benchmark runs the corresponding experiment and logs its report, so
//
//	go test -bench=Exp -benchtime=1x -v
//
// both times the experiments and prints the paper-style rows. BENCH_SCALE
// (default 100) divides the paper's dataset sizes; lower it to approach
// the paper's regime at the cost of runtime.
package catapult_test

import (
	"context"
	"os"
	"strconv"
	"testing"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
)

func benchConfig() experiments.Config {
	scale := 100
	if s := os.Getenv("BENCH_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			scale = v
		}
	}
	return experiments.Config{Scale: scale, Seed: 42}
}

func runExperiment(b *testing.B, n int) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(context.Background(), n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
}

// BenchmarkExp1SmallGraphClustering regenerates Fig 7: clustering time and
// CSG compactness across the five clustering strategies.
func BenchmarkExp1SmallGraphClustering(b *testing.B) { runExperiment(b, 1) }

// BenchmarkExp2Sampling regenerates Fig 8 and Fig 9: sampling vs no
// sampling on PGT, MP, μ, compactness and clustering time.
func BenchmarkExp2Sampling(b *testing.B) { runExperiment(b, 2) }

// BenchmarkExp3CommercialGUI regenerates the Exp 3 comparison with the
// PubChem and eMolecules pattern inventories (cog, div, MP, μG).
func BenchmarkExp3CommercialGUI(b *testing.B) { runExperiment(b, 3) }

// BenchmarkExp4UserStudy regenerates Table 1 + Fig 10: per-query QFT and
// steps for simulated participants.
func BenchmarkExp4UserStudy(b *testing.B) { runExperiment(b, 4) }

// BenchmarkExp5Coverage regenerates Fig 11: scov/lcov of CATAPULT patterns
// vs top-|P| frequent edges over |P|.
func BenchmarkExp5Coverage(b *testing.B) { runExperiment(b, 5) }

// BenchmarkExp6Scalability regenerates Fig 12: clustering time, PGT, μDS
// and MP over growing PubChem analogs.
func BenchmarkExp6Scalability(b *testing.B) { runExperiment(b, 6) }

// BenchmarkExp7PatternSetSize regenerates Fig 13: the effect of |P|.
func BenchmarkExp7PatternSetSize(b *testing.B) { runExperiment(b, 7) }

// BenchmarkExp8PatternSize regenerates Figs 14-16: the effect of ηmin and
// ηmax, including div and cog statistics.
func BenchmarkExp8PatternSize(b *testing.B) { runExperiment(b, 8) }

// BenchmarkExp9FrequentBaseline regenerates Fig 17: CATAPULT vs frequent
// subgraph pattern sets over mixed workloads Qx.
func BenchmarkExp9FrequentBaseline(b *testing.B) { runExperiment(b, 9) }

// BenchmarkExp10CognitiveLoad regenerates Fig 18: Kendall tau of the
// F1/F2/F3 cognitive-load measures against simulated response times.
func BenchmarkExp10CognitiveLoad(b *testing.B) { runExperiment(b, 10) }

// BenchmarkSelectPipeline times one end-to-end pipeline run (clustering +
// CSGs + pattern selection) on a 200-graph AIDS analog with the default
// budget scaled down.
func BenchmarkSelectPipeline(b *testing.B) {
	db := dataset.AIDSLike(200, 7)
	cfg := catapult.Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 8, Gamma: 10},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 20, MinSupport: 0.1, MCSBudget: 5000},
		Seed:       7,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := catapult.SelectCtx(context.Background(), db, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalMaintain times absorbing a 10-graph insertion batch
// into an existing selection.
func BenchmarkIncrementalMaintain(b *testing.B) {
	db := dataset.AIDSLike(100, 9)
	cfg := catapult.Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 6, Gamma: 6},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 15, MinSupport: 0.1, MCSBudget: 5000},
		Seed:       9,
	}
	m, err := catapult.NewMaintainerCtx(context.Background(), db, cfg)
	if err != nil {
		b.Fatal(err)
	}
	batch := dataset.AIDSLike(10, 101).Graphs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.AddGraphsCtx(context.Background(), batch); err != nil {
			b.Fatal(err)
		}
	}
}
