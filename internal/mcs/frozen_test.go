package mcs

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/raceflag"
)

func randomGraph(rng *rand.Rand, n, m int, labels []string) *graph.Graph {
	g := graph.New(n, m)
	for i := 0; i < n; i++ {
		g.AddVertex(labels[rng.Intn(len(labels))])
	}
	for tries := 0; g.NumEdges() < m && tries < 8*m; tries++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// TestFrozenSearcherMatchesLegacy cross-checks the Searcher against the
// MCCS/MCS oracle on the mutable representation (legacy_test.go) on random
// pairs, including tight budgets where results depend on the exact
// exploration order: identical pairs, edge counts and exhaustion flags.
func TestFrozenSearcherMatchesLegacy(t *testing.T) {
	labels := []string{"C", "N", "O"}
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	for iter := 0; iter < 120; iter++ {
		g1 := randomGraph(rng, 4+rng.Intn(8), 3+rng.Intn(10), labels)
		g2 := randomGraph(rng, 4+rng.Intn(8), 3+rng.Intn(10), labels)
		for _, budget := range []int{30, 500, DefaultBudget} {
			want := legacyMCCS(g1, g2, budget)
			got, err := MCCSCtx(ctx, g1, g2, budget)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d budget %d: MCCS diverges\n frozen: %+v\n legacy: %+v\n g1=%v\n g2=%v",
					iter, budget, got, want, g1, g2)
			}

			wantM := legacyMCS(g1, g2, budget)
			gotM, err := MCSCtx(ctx, g1, g2, budget)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotM, wantM) {
				t.Fatalf("iter %d budget %d: MCS diverges\n frozen: %+v\n legacy: %+v",
					iter, budget, gotM, wantM)
			}

			for _, k := range []Kind{KindMCCS, KindMCS} {
				ws := legacySimilarity(k, g1, g2, budget)
				gs, err := SimilarityKindCtx(ctx, k, g1, g2, budget)
				if err != nil {
					t.Fatal(err)
				}
				if gs != ws {
					t.Fatalf("iter %d budget %d %v: similarity %v != %v", iter, budget, k, gs, ws)
				}
			}
		}
	}
}

// TestMCSZeroAllocSteadyState pins the frozen MCCS inner loop at zero
// steady-state allocations: once the searcher scratch is warm and the
// frozen pair repeats (so the cached sorted seeds are reused), a full
// budgeted similarity search allocates nothing. Skipped under -race,
// whose instrumentation allocates.
func TestMCSZeroAllocSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(5))
	labels := []string{"C", "N", "O"}
	g1 := randomGraph(rng, 10, 14, labels)
	g2 := randomGraph(rng, 10, 14, labels)
	f1, f2 := g1.Freeze(), g2.Freeze()

	s := NewSearcher()
	want := s.SimilarityMCCS(f1, f2, 3000) // warm scratch and seed cache
	allocs := testing.AllocsPerRun(100, func() {
		if got := s.SimilarityMCCS(f1, f2, 3000); got != want {
			t.Fatalf("similarity changed across runs: %v vs %v", got, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("frozen MCCS steady state allocates: %v allocs/run, want 0", allocs)
	}
}
