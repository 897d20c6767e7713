package subiso

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/raceflag"
)

// randomGraph builds a random labeled graph for differential testing.
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

// TestFrozenMatchesLegacy cross-checks the Matcher against the VF2 oracle
// on the mutable representation (legacy_test.go) on random (host,
// pattern) pairs: identical answers for Contains and ContainsCtx,
// identical (contained, definitive) pairs for ContainsBudget at tight
// budgets, and identical embeddings in identical order from FindAll and
// FindOne. The budget and order checks only hold because the two
// matchers expand the exact same search tree in the same order.
func TestFrozenMatchesLegacy(t *testing.T) {
	labels := []string{"C", "N", "O", "S"}
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		host := randomGraph(rng, 4+rng.Intn(10), 3+rng.Intn(14), labels)
		var pat *graph.Graph
		if rng.Intn(2) == 0 {
			pat = graph.RandomConnectedSubgraph(host, 1+rng.Intn(4), rng)
		}
		if pat == nil {
			pat = randomGraph(rng, 2+rng.Intn(5), 1+rng.Intn(6), labels)
		}

		legacy := LegacyContains(host, pat)
		if got := Contains(host, pat); got != legacy {
			t.Fatalf("iter %d: frozen Contains=%v legacy=%v\nhost=%v\npat=%v",
				iter, got, legacy, host, pat)
		}
		if got, err := ContainsCtx(context.Background(), host, pat); err != nil || got != legacy {
			t.Fatalf("iter %d: frozen ContainsCtx=(%v,%v) legacy=%v", iter, got, err, legacy)
		}

		for _, budget := range []int{1, 5, 50, 100000} {
			wantC, wantD := LegacyContainsBudget(host, pat, budget)
			gotC, gotD := ContainsBudget(host, pat, budget)
			if gotC != wantC || gotD != wantD {
				t.Fatalf("iter %d budget %d: frozen=(%v,%v) legacy=(%v,%v)",
					iter, budget, gotC, gotD, wantC, wantD)
			}
		}

		for _, limit := range []int{0, 1, 3} {
			want, _ := LegacyFindAll(host, pat, limit, 0)
			if got := FindAll(host, pat, Options{MaxSolutions: limit}); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d limit %d: FindAll diverges\n frozen: %v\n legacy: %v",
					iter, limit, got, want)
			}
		}
		var wantOne Mapping
		if ms, _ := LegacyFindAll(host, pat, 1, 0); len(ms) > 0 {
			wantOne = ms[0]
		}
		if got := FindOne(host, pat); !reflect.DeepEqual(got, wantOne) {
			t.Fatalf("iter %d: FindOne = %v, legacy %v", iter, got, wantOne)
		}
	}
}

// TestVF2ZeroAllocSteadyState pins the frozen VF2 inner loop at zero
// steady-state allocations: once the matcher scratch and the pattern's
// cached matching order are warm, a containment check allocates nothing.
// Skipped under -race, whose instrumentation allocates.
func TestVF2ZeroAllocSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(7))
	labels := []string{"C", "N", "O"}
	type pair struct{ t, p *graph.Frozen }
	var pairs []pair
	for i := 0; i < 6; i++ {
		g := randomGraph(rng, 12, 18, labels)
		p := graph.RandomConnectedSubgraph(g, 3, rng)
		if p == nil {
			continue
		}
		pairs = append(pairs, pair{g.Freeze(), p.Freeze()})
	}
	if len(pairs) == 0 {
		t.Fatal("no test pairs")
	}
	m := NewMatcher()
	for _, pr := range pairs { // warm scratch buffers and order caches
		m.Contains(pr.t, pr.p)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, pr := range pairs {
			m.Contains(pr.t, pr.p)
		}
	})
	if allocs != 0 {
		t.Fatalf("frozen VF2 steady state allocates: %v allocs/run, want 0", allocs)
	}
}
