package mcs

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/subiso"
)

// mccsCtx returns a maximum connected common subgraph of g1 and g2 within
// the given node budget (DefaultBudget if budget <= 0): the search
// SimilarityMCCSCtx runs, with its mapping kept and counted the same way
// (CounterMCSCalls, CounterMCSNodes and, for a search stopped by its
// budget, CounterMCSBudgetExhausted).
func mccsCtx(ctx context.Context, g1, g2 *graph.Graph, budget int) (Result, error) {
	pipeline.From(ctx).Add(pipeline.CounterMCSCalls, 1)
	if budget <= 0 {
		budget = DefaultBudget
	}
	s := new(Searcher)
	s.prepare(g1.Freeze(), g2.Freeze(), nil, nil, budget)
	s.run(ctx)
	if err := s.ctxErr; err != nil {
		return Result{}, err
	}
	s.count(ctx)
	return s.result(), nil
}

// result is the best mapping of the last search.
func (s *Searcher) result() Result {
	var pairs []Pair
	if len(s.best) > 0 {
		pairs = make([]Pair, len(s.best))
		for i, p := range s.best {
			pairs[i] = Pair{graph.VertexID(p.v1), graph.VertexID(p.v2)}
		}
	}
	return Result{Pairs: pairs, Edges: s.bestEdge, Exhausted: s.exhausted()}
}

// Background-context conveniences for the Ctx search entry points used
// throughout these tests; context.Background is never cancelled, so the
// error leg is structurally nil.
func mccs(g1, g2 *graph.Graph, budget int) Result {
	r, _ := mccsCtx(context.Background(), g1, g2, budget)
	return r
}

func mcsOf(g1, g2 *graph.Graph, budget int) Result {
	r, _ := MCSCtx(context.Background(), g1, g2, budget)
	return r
}

func simMCCS(g1, g2 *graph.Graph, budget int) float64 {
	s, _ := SimilarityMCCSCtx(context.Background(), g1, g2, budget)
	return s
}

func build(labels []string, edges [][2]int) *graph.Graph {
	g := graph.New(len(labels), len(edges))
	for _, l := range labels {
		g.AddVertex(l)
	}
	for _, e := range edges {
		g.MustAddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	return g
}

func path(labels ...string) *graph.Graph {
	g := graph.New(len(labels), len(labels)-1)
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(graph.VertexID(i-1), graph.VertexID(i))
	}
	return g
}

func TestMCCSIdenticalGraphs(t *testing.T) {
	g := build([]string{"C", "O", "N"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	r := mccs(g, g.Clone(), 0)
	if r.Edges != 3 {
		t.Errorf("mccs(G,G) edges = %d, want 3", r.Edges)
	}
	if got := simMCCS(g, g.Clone(), 0); got != 1.0 {
		t.Errorf("self similarity = %v, want 1", got)
	}
}

func TestMCCSDisjointLabels(t *testing.T) {
	g1 := path("C", "C", "C")
	g2 := path("N", "N", "N")
	r := mccs(g1, g2, 0)
	if r.Edges != 0 {
		t.Errorf("disjoint-label MCCS edges = %d, want 0", r.Edges)
	}
	if simMCCS(g1, g2, 0) != 0 {
		t.Error("disjoint-label similarity should be 0")
	}
}

func TestMCCSPartialOverlap(t *testing.T) {
	// G1 = C-O-N, G2 = C-O-S: common connected part is C-O (1 edge).
	g1 := path("C", "O", "N")
	g2 := path("C", "O", "S")
	r := mccs(g1, g2, 0)
	if r.Edges != 1 {
		t.Errorf("MCCS edges = %d, want 1", r.Edges)
	}
	if got, want := simMCCS(g1, g2, 0), 0.5; got != want {
		t.Errorf("similarity = %v, want %v", got, want)
	}
}

func TestMCCSConnectivityConstraint(t *testing.T) {
	// G1 = O-C-C-N (path), G2 has O-C and C-N but in two far-apart spots
	// joined through an S vertex: O-C-S-C-N.
	g1 := path("O", "C", "C", "N")
	g2 := path("O", "C", "S", "C", "N")
	r := mccs(g1, g2, 0)
	// Connected common subgraphs: O-C-C is impossible (no C-C edge in G2);
	// O-C (1 edge) or C-N (1 edge). MCCS = 1.
	if r.Edges != 1 {
		t.Errorf("MCCS edges = %d, want 1 (connectivity must bound it)", r.Edges)
	}
	// MCS (unconnected) may take both O-C and C-N: 2 edges.
	m := mcsOf(g1, g2, 0)
	if m.Edges != 2 {
		t.Errorf("MCS edges = %d, want 2", m.Edges)
	}
}

func TestMCCSResultIsValidCommonSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		g1 := randomConnectedGraph(rng, 8, 11)
		g2 := randomConnectedGraph(rng, 8, 11)
		r := mccs(g1, g2, 0)
		if r.Edges == 0 {
			continue
		}
		checkValidMapping(t, g1, g2, r)
		// The common subgraph must embed in both graphs.
		sub := r.Subgraph(g1)
		if !sub.IsConnected() {
			t.Fatalf("MCCS subgraph not connected: %v", sub)
		}
	}
}

func checkValidMapping(t *testing.T, g1, g2 *graph.Graph, r Result) {
	t.Helper()
	m12 := map[graph.VertexID]graph.VertexID{}
	m21 := map[graph.VertexID]graph.VertexID{}
	for _, p := range r.Pairs {
		if g1.Label(p.V1) != g2.Label(p.V2) {
			t.Fatalf("label mismatch in pair %v", p)
		}
		if _, dup := m12[p.V1]; dup {
			t.Fatalf("v1 %d mapped twice", p.V1)
		}
		if _, dup := m21[p.V2]; dup {
			t.Fatalf("v2 %d mapped twice", p.V2)
		}
		m12[p.V1] = p.V2
		m21[p.V2] = p.V1
	}
	// Count common edges independently and compare.
	common := 0
	for _, e := range g1.Edges() {
		a, aok := m12[e.U]
		b, bok := m12[e.V]
		if aok && bok && g2.HasEdge(a, b) {
			common++
		}
	}
	if common != r.Edges {
		t.Fatalf("reported edges %d != recount %d", r.Edges, common)
	}
}

func TestMCSGreedyUnionValid(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20; i++ {
		g1 := randomConnectedGraph(rng, 8, 10)
		g2 := randomConnectedGraph(rng, 8, 10)
		r := mcsOf(g1, g2, 0)
		checkValidMapping(t, g1, g2, r)
		// MCS >= MCCS always.
		if c := mccs(g1, g2, 0); r.Edges < c.Edges {
			t.Fatalf("MCS (%d) < MCCS (%d)", r.Edges, c.Edges)
		}
	}
}

func TestSimilaritySymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g1 := randomConnectedGraph(r, 7, 9)
		g2 := randomConnectedGraph(r, 7, 9)
		a := simMCCS(g1, g2, 0)
		b := simMCCS(g2, g1, 0)
		return a >= 0 && a <= 1 && abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSubgraphContainmentImpliesFullSimilarity(t *testing.T) {
	// If p ⊆ G (connected), ωmccs(p, G) should be 1.
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 15; i++ {
		g := randomConnectedGraph(rng, 9, 12)
		p := graph.RandomConnectedSubgraph(g, 3, rng)
		if p == nil {
			t.Fatal("no subgraph")
		}
		if !subiso.Contains(g, p) {
			t.Fatal("extraction broken")
		}
		if got := simMCCS(p, g, 0); got != 1.0 {
			t.Errorf("ωmccs(p⊆G, G) = %v, want 1", got)
		}
	}
}

func TestBudgetExhaustionFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g1 := randomConnectedGraph(rng, 20, 35)
	g2 := randomConnectedGraph(rng, 20, 35)
	r := mccs(g1, g2, 10)
	if !r.Exhausted {
		t.Error("tiny budget should mark result exhausted")
	}
	// Even when exhausted, the reported mapping must be valid.
	checkValidMapping(t, g1, g2, r)
}

func TestEmptyEdgeGraphs(t *testing.T) {
	g1 := build([]string{"C"}, nil)
	g2 := build([]string{"C"}, nil)
	if s := simMCCS(g1, g2, 0); s != 0 {
		t.Errorf("edgeless similarity = %v, want 0", s)
	}
}

func randomConnectedGraph(r *rand.Rand, n, m int) *graph.Graph {
	labels := []string{"C", "N", "O"}
	g := graph.New(n, m)
	for i := 0; i < n; i++ {
		g.AddVertex(labels[r.Intn(len(labels))])
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.VertexID(r.Intn(i)), graph.VertexID(i))
	}
	for tries := 0; g.NumEdges() < m && tries < 10*m; tries++ {
		u, v := graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkMCCS(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	g1 := randomConnectedGraph(rng, 15, 20)
	g2 := randomConnectedGraph(rng, 15, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mccs(g1, g2, 20000)
	}
}
