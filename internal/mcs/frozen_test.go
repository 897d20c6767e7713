package mcs

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/canon"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/pipeline"
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
// exploration order: identical pairs, edge counts and exhaustion flags,
// and an mcs_nodes count equal to the nodes the oracle expanded.
func TestFrozenSearcherMatchesLegacy(t *testing.T) {
	labels := []string{"C", "N", "O"}
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	for iter := 0; iter < 120; iter++ {
		g1 := randomGraph(rng, 4+rng.Intn(8), 3+rng.Intn(10), labels)
		g2 := randomGraph(rng, 4+rng.Intn(8), 3+rng.Intn(10), labels)
		for _, budget := range []int{30, 500, DefaultBudget} {
			want, wantNodes := legacyMCCSNodes(g1, g2, budget)
			rec := pipeline.NewRecorder()
			got, err := mccsCtx(pipeline.WithTrace(ctx, rec), g1, g2, budget)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d budget %d: MCCS diverges\n frozen: %+v\n legacy: %+v\n g1=%v\n g2=%v",
					iter, budget, got, want, g1, g2)
			}
			if nodes := rec.Total(pipeline.CounterMCSNodes); nodes != int64(wantNodes) {
				t.Fatalf("iter %d budget %d: mcs_nodes = %d, oracle expanded %d", iter, budget, nodes, wantNodes)
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

// TestFrozenSearcherMatchesLegacyOnMolecules runs the differential at
// fine-clustering scale: aids-like molecules of 15-35 vertices at budgets
// where every search is cut off, so the result depends on the exploration
// order. Each pair is searched as generated, as the canonical
// representatives simcache evaluates, and through the masked rounds of
// MCS; the first molecule is also searched against its own canonical
// representative, where the search closes rings and gains rise above 1.
// Every search must agree with the oracle on pairs, edges, exhaustion and
// the nodes it expanded, and leave the gain matrix all zero and the replay
// and candidate stacks empty.
func TestFrozenSearcherMatchesLegacyOnMolecules(t *testing.T) {
	db := dataset.AIDSLike(24, 3)
	s := new(Searcher)
	for i := 0; i+1 < db.Len(); i += 2 {
		g1, g2 := db.Graph(i), db.Graph(i+1)
		r1, r2 := canonicalRep(t, g1), canonicalRep(t, g2)
		for _, budget := range []int{4000, 20000} {
			checkOracle(t, s, "generated", g1, g2, g1, g2, nil, nil, budget)
			checkOracle(t, s, "canonical", r1, r2, r1, r2, nil, nil, budget)
			checkOracle(t, s, "self", g1, r1, g1, r1, nil, nil, budget)
			checkMCSRounds(t, s, g1, g2, budget)
		}
	}
}

// checkOracle runs s on (g1, g2) under the masks and the oracle on (o1,
// o2), where the masked vertices carry sentinel labels, and demands equal
// results and node counts and a clean Searcher afterwards.
func checkOracle(t *testing.T, s *Searcher, what string, g1, g2, o1, o2 *graph.Graph, alive1, alive2 []bool, budget int) Result {
	t.Helper()
	want, wantNodes := legacyMCCSNodes(o1, o2, budget)
	s.prepare(g1.Freeze(), g2.Freeze(), alive1, alive2, budget)
	s.run(context.Background())
	if got := s.result(); !reflect.DeepEqual(got, want) || s.nodes != wantNodes {
		t.Fatalf("%s, budget %d: MCCS diverges\n frozen: %+v (%d nodes)\n legacy: %+v (%d nodes)",
			what, budget, got, s.nodes, want, wantNodes)
	}
	checkClean(t, s, fmt.Sprintf("%s, budget %d", what, budget))
	return want
}

// checkMCSRounds runs the masked rounds of MCS on (g1, g2) through
// checkOracle, masking each round's mapping for the next as MCSCtx does.
func checkMCSRounds(t *testing.T, s *Searcher, g1, g2 *graph.Graph, budget int) {
	t.Helper()
	h1, h2 := g1.Clone(), g2.Clone()
	alive1, alive2 := allAlive(g1.NumVertices()), allAlive(g2.NumVertices())
	for round := 0; ; round++ {
		r := checkOracle(t, s, fmt.Sprintf("MCS round %d", round), g1, g2, h1, h2, alive1, alive2, budget)
		if r.Edges == 0 {
			return
		}
		for _, p := range r.Pairs {
			h1.SetLabel(p.V1, tomb)
			h2.SetLabel(p.V2, tomb+"2")
			alive1[p.V1], alive2[p.V2] = false, false
		}
	}
}

// checkClean demands what every finished search leaves: an all-zero gain
// matrix, no standing placement and empty replay and candidate stacks.
func checkClean(t *testing.T, s *Searcher, what string) {
	t.Helper()
	for i, g := range s.gains {
		if g != 0 {
			t.Fatalf("%s: gain cell (%d, %d) = %d after the search, want 0", what, i/s.n2, i%s.n2, g)
		}
	}
	if len(s.cur) != 0 || len(s.replay) != 0 || len(s.cands) != 0 {
		t.Fatalf("%s: %d placements, %d replay cells and %d candidates left after the search",
			what, len(s.cur), len(s.replay), len(s.cands))
	}
}

// TestCancelledSearchLeavesCleanSearcher cancels a search at its first
// poll and abandons another mid-flight, as a panic escaping a pooled
// Searcher would, and demands that the Searcher then search exactly as
// the oracle does. The cancelled search must unwind by itself; the
// abandoned one leaves raised cells and full stacks that prepare resets.
func TestCancelledSearchLeavesCleanSearcher(t *testing.T) {
	db := dataset.AIDSLike(24, 3)
	g1, g2 := db.Graph(0), db.Graph(1)
	h1, h2 := db.Graph(2), db.Graph(3)
	s := new(Searcher)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.prepare(g1.Freeze(), g2.Freeze(), nil, nil, 20000)
	s.run(ctx)
	if s.ctxErr == nil || s.nodes != ctxCheckMask {
		t.Fatalf("cancelled search: err %v after %d nodes, want the first poll to stop it at %d",
			s.ctxErr, s.nodes, ctxCheckMask)
	}
	checkClean(t, s, "cancelled search")
	checkOracle(t, s, "after cancel", g1, g2, g1, g2, nil, nil, 20000)
	checkMCSRounds(t, s, h1, h2, 4000)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the poll did not panic")
			}
		}()
		s.prepare(g1.Freeze(), g2.Freeze(), nil, nil, 20000)
		s.run(panicOnPoll{context.Background()})
	}()
	if len(s.replay) == 0 || len(s.cands) == 0 {
		t.Fatalf("abandoned search left %d replay cells and %d candidates; want both stacks in use",
			len(s.replay), len(s.cands))
	}
	checkOracle(t, s, "after abandon", g1, g2, g1, g2, nil, nil, 20000)
	checkMCSRounds(t, s, h1, h2, 4000)
}

// panicOnPoll is a context whose Err panics, abandoning the search that
// polls it.
type panicOnPoll struct{ context.Context }

func (panicOnPoll) Err() error { panic("poll") }

func canonicalRep(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	r, err := canon.Reconstruct(canon.String(g))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func allAlive(n int) []bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return alive
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

	s := new(Searcher)
	// sim is ωmccs(f1, f2) on s's scratch, as SimilarityMCCSCtx computes it.
	sim := func() float64 {
		s.prepare(f1, f2, nil, nil, 3000)
		s.run(nil)
		return float64(s.bestEdge) / float64(min(f1.NumEdges(), f2.NumEdges()))
	}
	want := sim() // warm scratch and seed cache
	allocs := testing.AllocsPerRun(100, func() {
		if got := sim(); got != want {
			t.Fatalf("similarity changed across runs: %v vs %v", got, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("frozen MCCS steady state allocates: %v allocs/run, want 0", allocs)
	}
}
