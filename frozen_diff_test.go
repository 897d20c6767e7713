package catapult_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ged"
	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/subiso"
)

// Differential tests for the frozen-graph matchers and the coverage engine
// that drives them. Every VF2 and MCCS search of the pipeline runs on the
// immutable CSR form (graph.Frozen), built on a graph's first use and
// memoized on it together with its matching order and canonical label, and
// selection tests containment through the coverage engine (canonical memo,
// index pruning, parallel verification). Neither may change what is
// selected: selections on cold and on already-frozen graphs agree across
// worker counts, and every selected pattern's Eq-2 breakdown equals a naive
// sequential replay of the scoring (assertNaiveScores).

// redundantConfig is the configuration the redundant databases are
// selected under: a tight MCS budget keeps the similarity searches
// order-sensitive, so a change in exploration order would change split
// decisions.
func redundantConfig(seed int64, gamma int) catapult.Config {
	return catapult.Config{
		Budget: core.Budget{EtaMin: 3, EtaMax: 5, Gamma: gamma},
		Clustering: cluster.Config{
			Strategy:   cluster.HybridMCCS,
			N:          6,
			MinSupport: 0.2,
			MCSBudget:  1500,
		},
		Selection: core.Options{Walks: 6},
		Seed:      seed,
	}
}

// assertSameResult demands byte-identical selection output: clusters,
// effective sizes, CSGs, and patterns with their full score breakdowns.
func assertSameResult(t *testing.T, label string, got, want *catapult.Result) {
	t.Helper()
	if got.Exhausted != want.Exhausted {
		t.Errorf("%s: Exhausted differs: %v vs %v", label, got.Exhausted, want.Exhausted)
	}
	if !reflect.DeepEqual(got.Clusters, want.Clusters) {
		t.Fatalf("%s: clusters diverge\n got:  %v\n want: %v", label, got.Clusters, want.Clusters)
	}
	if !reflect.DeepEqual(got.EffectiveSizes, want.EffectiveSizes) {
		t.Errorf("%s: effective sizes diverge", label)
	}
	if len(got.CSGs) != len(want.CSGs) {
		t.Fatalf("%s: CSG counts differ: %d vs %d", label, len(got.CSGs), len(want.CSGs))
	}
	for i := range got.CSGs {
		if got.CSGs[i].G.String() != want.CSGs[i].G.String() ||
			!reflect.DeepEqual(got.CSGs[i].Members, want.CSGs[i].Members) {
			t.Errorf("%s: CSG %d diverges", label, i)
		}
	}
	if len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("%s: pattern counts differ: %d vs %d", label, len(got.Patterns), len(want.Patterns))
	}
	for i := range got.Patterns {
		pa, pb := got.Patterns[i], want.Patterns[i]
		if pa.Graph.String() != pb.Graph.String() {
			t.Errorf("%s: pattern %d differs:\n got:  %v\n want: %v", label, i, pa.Graph, pb.Graph)
		}
		if pa.Score != pb.Score || pa.Ccov != pb.Ccov || pa.Lcov != pb.Lcov ||
			pa.Div != pb.Div || pa.Cog != pb.Cog || pa.SourceCSG != pb.SourceCSG {
			t.Errorf("%s: pattern %d breakdown differs:\n got:  %+v\n want: %+v", label, i, *pa, *pb)
		}
	}
}

// assertNaiveScores replays the scoring of res's selected patterns in
// selection order without the coverage engine: cluster weights start at
// effective size / |D|; ccov sums, in ascending CSG order, the weights of
// the CSGs that one plain subiso.Contains call per (pattern, CSG) pair
// finds the pattern in; lcov counts the data graphs sharing an edge label
// with the pattern; div is the min-GED to the patterns selected before it;
// and after each pattern the weights of its containing CSGs halve (the MWU
// update of Alg 4). Every breakdown must equal the facade's bit for bit,
// and every pattern must be contained in the CSG that proposed it.
func assertNaiveScores(t *testing.T, label string, res *catapult.Result) {
	t.Helper()
	if len(res.Patterns) == 0 {
		t.Fatalf("%s: no patterns selected", label)
	}
	db := res.WorkingDB
	cw := make([]float64, len(res.CSGs))
	for i := range cw {
		cw[i] = res.EffectiveSizes[i] / float64(db.Len())
	}
	var selected []*graph.Graph
	for k, p := range res.Patterns {
		var contained []int
		ccov := 0.0
		for i, c := range res.CSGs {
			if subiso.Contains(c.G, p.Graph) {
				contained = append(contained, i)
				if cw[i] > 0 {
					ccov += cw[i]
				}
			}
		}
		if !subiso.Contains(res.CSGs[p.SourceCSG].G, p.Graph) {
			t.Errorf("%s: pattern %d is not contained in its source CSG %d", label, k, p.SourceCSG)
		}

		labels := make(map[string]bool)
		for _, e := range p.Graph.Edges() {
			labels[p.Graph.EdgeLabel(e.U, e.V)] = true
		}
		covered := 0
		for _, g := range db.Graphs {
			for _, e := range g.Edges() {
				if labels[g.EdgeLabel(e.U, e.V)] {
					covered++
					break
				}
			}
		}
		lcov := float64(covered) / float64(db.Len())

		div := 1.0
		if k > 0 {
			d, _, err := ged.MinDistanceCtx(context.Background(), p.Graph, selected)
			if err != nil {
				t.Fatal(err)
			}
			div = float64(d)
		}
		cog := p.Graph.CognitiveLoad()
		score := ccov * lcov * div / cog

		if p.Ccov != ccov || p.Lcov != lcov || p.Div != div || p.Cog != cog || p.Score != score {
			t.Errorf("%s: pattern %d breakdown differs from the naive replay:\n engine: score=%v ccov=%v lcov=%v div=%v cog=%v\n naive:  score=%v ccov=%v lcov=%v div=%v cog=%v",
				label, k, p.Score, p.Ccov, p.Lcov, p.Div, p.Cog, score, ccov, lcov, div, cog)
		}
		for _, i := range contained {
			cw[i] *= 0.5
		}
		selected = append(selected, p.Graph)
	}
}

// TestDifferentialFrozenSelect selects each redundant database on cold
// graphs under one worker as the reference, then under worker counts
// {1, 4, GOMAXPROCS} twice: on the same graphs, whose frozen forms,
// matching orders and canonical labels the earlier runs memoized, and on a
// fresh copy whose graphs the parallel run freezes itself. All runs must
// be bit-identical.
func TestDifferentialFrozenSelect(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for seed := int64(1); seed <= 3; seed++ {
		cfg := redundantConfig(seed, 4)
		warm := redundantDB(seed)
		runtime.GOMAXPROCS(1)
		want, err := catapult.SelectCtx(context.Background(), warm, cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4, prev} {
			for _, run := range []struct {
				name string
				db   *graph.DB
			}{{"warm", warm}, {"cold", redundantDB(seed)}} {
				runtime.GOMAXPROCS(w)
				got, err := catapult.SelectCtx(context.Background(), run.db, cfg)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, fmt.Sprintf("seed %d workers %d %s", seed, w, run.name), got, want)
			}
		}
	}
}

// TestDifferentialFrozenNaiveEngines replays the scoring of the redundant
// database's selection without the coverage engine, under one worker and
// under GOMAXPROCS. Its isomorphic twins let the engine answer containment
// tests from its canonical memo and its path index, so the replay checks
// those shortcuts, not just plain searches.
func TestDifferentialFrozenNaiveEngines(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	db := redundantDB(2)
	cfg := redundantConfig(2, 3)
	for _, w := range []int{1, prev} {
		runtime.GOMAXPROCS(w)
		res, err := catapult.SelectCtx(context.Background(), db, cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("workers %d", w)
		assertNaiveScores(t, label, res)
		if res.Counters[pipeline.CounterCoverHits]+res.Counters[pipeline.CounterCoverPruned] == 0 {
			t.Errorf("%s: the coverage engine answered no test from its memo or index: %v", label, res.Counters)
		}
	}
}

// TestSelectEngineOnOffIdentical is the facade-level check of the coverage
// engine on the AIDS-like database across several seeds: the facade scores
// with the engine on, assertNaiveScores replays the scoring with it off,
// and the breakdowns must agree. The engine accelerates scoring but must
// not perturb selection; its cache misses prove it did the verification.
func TestSelectEngineOnOffIdentical(t *testing.T) {
	db := dataset.AIDSLike(40, 1)
	for _, seed := range []int64{7, 19, 42} {
		res, err := catapult.SelectCtx(context.Background(), db, catapult.Config{
			Budget:     core.Budget{EtaMin: 3, EtaMax: 6, Gamma: 8},
			Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 10, MinSupport: 0.2},
			Seed:       seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed %d", seed)
		assertNaiveScores(t, label, res)
		if res.Counters[pipeline.CounterCoverMisses] == 0 {
			t.Errorf("%s: engine run reported no cover misses", label)
		}
	}
}
