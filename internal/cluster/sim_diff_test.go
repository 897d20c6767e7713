package cluster_test

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/csg"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/pipeline"
)

// Differential tests: clustering through the simcache engine must be
// bit-identical across worker counts — for whole clusterings and for the
// CSGs built on top of them — across seeds and strategies, and a full
// selection through the public facade must equal the same stages called
// directly. The engine's equivalence to a sequential, uncached oracle is
// tested in internal/simcache; full pipeline selections are pinned by the
// golden suite at the repository root.

// permutedCopy returns an isomorphic copy of g with vertices renumbered by
// a random permutation.
func permutedCopy(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	vs := make([]graph.VertexID, g.NumVertices())
	for i := range vs {
		vs[i] = graph.VertexID(i)
	}
	rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	sub, _ := g.InducedSubgraph(vs)
	return sub
}

// redundantDB builds a database with isomorphic redundancy — each base
// molecule plus a permuted twin — so the engine's canonical sharing is
// actually exercised and scheduling differences would surface.
func redundantDB(seed int64) *graph.DB {
	base := dataset.AIDSLike(10, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x7ca))
	var gs []*graph.Graph
	for _, g := range base.Graphs {
		gs = append(gs, g, permutedCopy(g, rng))
	}
	return graph.NewDB("diff", gs)
}

func members(cs []*cluster.Cluster) [][]int {
	out := make([][]int, len(cs))
	for i, c := range cs {
		out[i] = c.Members
	}
	return out
}

// TestDifferentialClusteringBitIdentical runs every fine-clustering
// strategy under GOMAXPROCS 1 as the reference, then under 2 and 4, and
// demands byte-identical clusters and CSGs.
func TestDifferentialClusteringBitIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	strategies := []cluster.Strategy{cluster.FineOnlyMCCS, cluster.HybridMCCS, cluster.HybridMCS}
	for seed := int64(1); seed <= 3; seed++ {
		db := redundantDB(seed)
		for _, st := range strategies {
			cfg := cluster.Config{
				Strategy:   st,
				N:          6,
				MinSupport: 0.2,
				MCSBudget:  1500,
				Seed:       seed,
			}
			runtime.GOMAXPROCS(1)
			want, err := cluster.RunCtx(context.Background(), db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantCSGs, err := csg.BuildAllCtx(context.Background(), db, members(want.Clusters))
			if err != nil {
				t.Fatal(err)
			}

			for _, w := range []int{2, 4} {
				runtime.GOMAXPROCS(w)
				got, err := cluster.RunCtx(context.Background(), db, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(members(got.Clusters), members(want.Clusters)) {
					t.Fatalf("seed %d %v workers %d: clusters diverge\n got:  %v\n want: %v",
						seed, st, w, members(got.Clusters), members(want.Clusters))
				}
				gotCSGs, err := csg.BuildAllCtx(context.Background(), db, members(got.Clusters))
				if err != nil {
					t.Fatal(err)
				}
				if len(gotCSGs) != len(wantCSGs) {
					t.Fatalf("seed %d %v workers %d: CSG counts differ", seed, st, w)
				}
				for i := range gotCSGs {
					if gotCSGs[i].G.String() != wantCSGs[i].G.String() ||
						!reflect.DeepEqual(gotCSGs[i].Members, wantCSGs[i].Members) {
						t.Errorf("seed %d %v workers %d: CSG %d diverges", seed, st, w, i)
					}
				}
			}
		}
	}
}

// TestDifferentialSelectFacade runs the full pipeline through the public
// facade and again stage by stage — cluster.RunCtx, csg.BuildAllCtx and
// core.SelectCtx called directly with the seed the facade hands down — and
// demands byte-identical clusters, effective sizes, CSGs, patterns and
// score breakdowns: the facade's plumbing (seed inheritance, stage spans,
// the recorder tee) must not perturb output. The facade's counters prove
// its clustering ran through the similarity engine and shared searches
// between the isomorphic twins.
func TestDifferentialSelectFacade(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		db := redundantDB(seed)
		budget := core.Budget{EtaMin: 3, EtaMax: 5, Gamma: 4}
		ccfg := cluster.Config{
			Strategy:   cluster.HybridMCCS,
			N:          6,
			MinSupport: 0.2,
			MCSBudget:  1500,
		}
		res, err := catapult.SelectCtx(context.Background(), db, catapult.Config{
			Budget:     budget,
			Clustering: ccfg,
			Selection:  core.Options{Walks: 6},
			Seed:       seed,
		})
		if err != nil {
			t.Fatal(err)
		}

		ccfg.Seed = seed
		cl, err := cluster.RunCtx(ctx, db, ccfg)
		if err != nil {
			t.Fatal(err)
		}
		lists := members(cl.Clusters)
		sizes := make([]float64, len(lists))
		for i, m := range lists {
			sizes[i] = float64(len(m))
		}
		csgs, err := csg.BuildAllCtx(ctx, db, lists)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := core.SelectCtx(ctx, core.NewContextSized(db, csgs, sizes), budget,
			core.Options{Walks: 6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}

		if res.Exhausted != sel.Exhausted {
			t.Errorf("seed %d: Exhausted differs: %v (facade) vs %v (stages)", seed, res.Exhausted, sel.Exhausted)
		}
		if !reflect.DeepEqual(res.Clusters, lists) {
			t.Fatalf("seed %d: clusters diverge\n facade: %v\n stages: %v", seed, res.Clusters, lists)
		}
		if !reflect.DeepEqual(res.EffectiveSizes, sizes) {
			t.Errorf("seed %d: effective sizes diverge: %v vs %v", seed, res.EffectiveSizes, sizes)
		}
		if len(res.CSGs) != len(csgs) {
			t.Fatalf("seed %d: CSG counts differ: %d vs %d", seed, len(res.CSGs), len(csgs))
		}
		for i := range csgs {
			if res.CSGs[i].G.String() != csgs[i].G.String() ||
				!reflect.DeepEqual(res.CSGs[i].Members, csgs[i].Members) {
				t.Errorf("seed %d: CSG %d diverges", seed, i)
			}
		}
		if len(res.Patterns) != len(sel.Patterns) {
			t.Fatalf("seed %d: pattern counts differ: %d vs %d", seed, len(res.Patterns), len(sel.Patterns))
		}
		for i := range sel.Patterns {
			pa, pb := res.Patterns[i], sel.Patterns[i]
			if pa.Graph.String() != pb.Graph.String() {
				t.Errorf("seed %d: pattern %d differs:\n facade: %v\n stages: %v", seed, i, pa.Graph, pb.Graph)
			}
			if pa.Score != pb.Score || pa.Ccov != pb.Ccov || pa.Lcov != pb.Lcov ||
				pa.Div != pb.Div || pa.Cog != pb.Cog || pa.SourceCSG != pb.SourceCSG {
				t.Errorf("seed %d: pattern %d breakdown differs:\n facade: %+v\n stages: %+v", seed, i, *pa, *pb)
			}
		}

		if res.Counters[pipeline.CounterSimMisses] == 0 {
			t.Errorf("seed %d: facade run recorded no simcache misses", seed)
		}
		if res.Counters[pipeline.CounterSimHits]+res.Counters[pipeline.CounterClusterPairsPruned] == 0 {
			t.Errorf("seed %d: facade run shared no searches despite isomorphic twins: %v", seed, res.Counters)
		}
	}
}
