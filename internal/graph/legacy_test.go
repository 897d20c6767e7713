package graph_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// legacyRandomConnectedSubgraph is the map-based edge-growth walk that
// RandomConnectedSubgraph replaced: the test-file oracle for the array
// sampler. It collects the frontier afresh at every step by ranging over
// the grown vertex set, sorts it and draws from it.
func legacyRandomConnectedSubgraph(g *graph.Graph, size int, rng *rand.Rand) *graph.Graph {
	if size <= 0 || g.NumEdges() < size {
		return nil
	}
	return legacyRandomConnectedSubgraphFrom(g, g.Edges()[rng.Intn(g.NumEdges())], size, rng)
}

func legacyRandomConnectedSubgraphFrom(g *graph.Graph, start graph.Edge, size int, rng *rand.Rand) *graph.Graph {
	if size <= 0 || g.NumEdges() < size {
		return nil
	}
	inV := map[graph.VertexID]struct{}{start.U: {}, start.V: {}}
	inE := map[graph.Edge]struct{}{start: {}}
	picked := []graph.Edge{start}
	for len(picked) < size {
		var frontier []graph.Edge
		for v := range inV {
			for _, w := range g.Neighbors(v) {
				e := graph.NewEdge(v, w)
				if _, ok := inE[e]; !ok {
					frontier = append(frontier, e)
				}
			}
		}
		if len(frontier) == 0 {
			return nil
		}
		sort.Slice(frontier, func(i, j int) bool {
			if frontier[i].U != frontier[j].U {
				return frontier[i].U < frontier[j].U
			}
			return frontier[i].V < frontier[j].V
		})
		e := frontier[rng.Intn(len(frontier))]
		inE[e] = struct{}{}
		inV[e.U] = struct{}{}
		inV[e.V] = struct{}{}
		picked = append(picked, e)
	}
	sub, _ := g.EdgeSubgraph(picked)
	return sub
}

// render prints a graph with its edge labels, which String leaves out.
func render(g *graph.Graph) string {
	if g == nil {
		return "<nil>"
	}
	s := g.String()
	for _, e := range g.Edges() {
		s += " " + g.EdgeLabel(e.U, e.V)
	}
	return s
}

// TestRandomConnectedSubgraphMatchesLegacy pins the array sampler to the
// map oracle: at every size from 0 to |E|+1 the two return the same graph,
// or both nil, and leave their RNGs in the same state. It covers AIDS-like
// molecules (rings give vertices whose edges are both grown, so the
// frontier multiset holds doubles), one with explicit edge labels, and a
// disconnected graph whose walks run out of frontier.
func TestRandomConnectedSubgraphMatchesLegacy(t *testing.T) {
	gs := dataset.AIDSLike(40, 3).Graphs

	labeled := gs[0].Clone()
	for i, e := range labeled.Edges() {
		if i%3 == 0 {
			if err := labeled.SetEdgeLabel(e.U, e.V, "bond"); err != nil {
				t.Fatal(err)
			}
		}
	}
	gs = append(gs, labeled)

	// Two components of four edges each, a triangle with a tail and a star:
	// every walk of five to eight edges runs out of frontier.
	split := graph.New(9, 8)
	for _, l := range []string{"C", "C", "O", "N", "S", "C", "C", "O", "N"} {
		split.AddVertex(l)
	}
	for _, e := range [][2]graph.VertexID{{5, 6}, {0, 1}, {5, 7}, {1, 2}, {2, 0}, {5, 4}, {2, 3}, {8, 5}} {
		split.MustAddEdge(e[0], e[1])
	}
	gs = append(gs, split)

	for gi, g := range gs {
		for size := 0; size <= g.NumEdges()+1; size++ {
			for seed := int64(0); seed < 3; seed++ {
				rGot := rand.New(rand.NewSource(seed))
				rWant := rand.New(rand.NewSource(seed))
				got := graph.RandomConnectedSubgraph(g, size, rGot)
				want := legacyRandomConnectedSubgraph(g, size, rWant)
				if render(got) != render(want) {
					t.Fatalf("graph %d size %d seed %d:\n got:  %s\n want: %s", gi, size, seed, render(got), render(want))
				}
				if a, b := rGot.Int63(), rWant.Int63(); a != b {
					t.Fatalf("graph %d size %d seed %d: RNG states diverge", gi, size, seed)
				}
			}
		}
	}
}
