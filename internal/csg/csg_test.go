package csg

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/subiso"
)

// buildT runs BuildCtx under a background context, failing the test on
// error.
func buildT(tb testing.TB, db *graph.DB, members []int) *CSG {
	tb.Helper()
	c, err := BuildCtx(context.Background(), db, members)
	if err != nil {
		tb.Fatalf("BuildCtx: %v", err)
	}
	return c
}

func pathGraph(labels ...string) *graph.Graph {
	g := graph.New(len(labels), len(labels)-1)
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(graph.VertexID(i-1), graph.VertexID(i))
	}
	return g
}

// paperCluster mirrors Fig 4: G1 = O-C, C-P triangle-ish shapes. We use
// simplified variants sharing a C-O-S core.
func paperCluster() *graph.DB {
	g1 := pathGraph("O", "C", "S") // O-C-S
	g2 := graph.New(4, 3)          // O-C-S plus N on C
	o := g2.AddVertex("O")
	c := g2.AddVertex("C")
	s := g2.AddVertex("S")
	n := g2.AddVertex("N")
	g2.MustAddEdge(o, c)
	g2.MustAddEdge(c, s)
	g2.MustAddEdge(c, n)
	g3 := pathGraph("O", "C", "S")
	return graph.NewDB("fig4", []*graph.Graph{g1, g2, g3})
}

func TestBuildSingleGraph(t *testing.T) {
	db := paperCluster()
	c := buildT(t, db, []int{0})
	if c.G.NumVertices() != 3 || c.G.NumEdges() != 2 {
		t.Fatalf("CSG of one graph should equal it: %v", c.G)
	}
	for v := 0; v < 3; v++ {
		if !c.VertexGraphs[v].Has(0) || c.VertexGraphs[v].Len() != 1 {
			t.Errorf("vertex %d ID set wrong: %v", v, c.VertexGraphs[v].Sorted())
		}
	}
}

func TestBuildMergesIdenticalGraphs(t *testing.T) {
	db := paperCluster()
	c := buildT(t, db, []int{0, 2}) // two identical O-C-S paths
	if c.G.NumVertices() != 3 {
		t.Fatalf("identical graphs should fully merge: |V|=%d", c.G.NumVertices())
	}
	if c.G.NumEdges() != 2 {
		t.Fatalf("identical graphs should fully merge: |E|=%d", c.G.NumEdges())
	}
	for _, ids := range c.EdgeGraphs {
		if ids.Len() != 2 {
			t.Errorf("edge ID set = %v, want both graphs", ids.Sorted())
		}
	}
}

func TestBuildExtendsWithNewVertex(t *testing.T) {
	db := paperCluster()
	c := buildT(t, db, []int{0, 1})
	// G2 adds an N vertex: closure should have 4 vertices, 3 edges.
	if c.G.NumVertices() != 4 {
		t.Fatalf("|V| = %d, want 4", c.G.NumVertices())
	}
	if c.G.NumEdges() != 3 {
		t.Fatalf("|E| = %d, want 3", c.G.NumEdges())
	}
	// The C-N edge must be attributed to graph 1 only.
	var cnIDs IDSet
	for e, ids := range c.EdgeGraphs {
		lu, lv := c.G.Label(e.U), c.G.Label(e.V)
		if (lu == "C" && lv == "N") || (lu == "N" && lv == "C") {
			cnIDs = ids
		}
	}
	if cnIDs == nil || cnIDs.Len() != 1 || !cnIDs.Has(1) {
		t.Errorf("C-N edge attribution wrong: %v", cnIDs)
	}
}

func TestEveryMemberEmbedsInCSG(t *testing.T) {
	// Closure property: each member graph must be subgraph-isomorphic to
	// its cluster's CSG.
	rng := rand.New(rand.NewSource(3))
	var gs []*graph.Graph
	for i := 0; i < 10; i++ {
		gs = append(gs, randomConnectedGraph(rng, 6+rng.Intn(5), 7+rng.Intn(5)))
	}
	db := graph.NewDB("rand", gs)
	members := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	c := buildT(t, db, members)
	for _, m := range members {
		if !subiso.Contains(c.G, db.Graph(m)) {
			t.Errorf("member %d does not embed in its CSG", m)
		}
	}
}

func TestEdgeAttributionSound(t *testing.T) {
	// For every closure edge and attributed graph id, the member graph
	// must actually contain an edge with those endpoint labels.
	rng := rand.New(rand.NewSource(5))
	var gs []*graph.Graph
	for i := 0; i < 8; i++ {
		gs = append(gs, randomConnectedGraph(rng, 6, 8))
	}
	db := graph.NewDB("attr", gs)
	c := buildT(t, db, []int{0, 1, 2, 3, 4, 5, 6, 7})
	for e, ids := range c.EdgeGraphs {
		want := graph.CanonicalEdgeLabel(c.G.Label(e.U), c.G.Label(e.V))
		for id := range ids {
			g := db.Graph(id)
			found := false
			for _, ge := range g.Edges() {
				if g.EdgeLabel(ge.U, ge.V) == want {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("edge %v attributed to graph %d which has no %s edge", e, id, want)
			}
		}
	}
}

func TestVertexAttributionComplete(t *testing.T) {
	db := paperCluster()
	c := buildT(t, db, []int{0, 1, 2})
	// Every member must appear in at least one vertex ID set per its size.
	counts := map[int]int{}
	for _, ids := range c.VertexGraphs {
		for id := range ids {
			counts[id]++
		}
	}
	for _, m := range []int{0, 1, 2} {
		if counts[m] != db.Graph(m).NumVertices() {
			t.Errorf("graph %d attributed to %d vertices, want %d", m, counts[m], db.Graph(m).NumVertices())
		}
	}
}

func TestCompactness(t *testing.T) {
	db := paperCluster()
	c := buildT(t, db, []int{0, 1, 2})
	// Closure edges: C-O (3 graphs), C-S (3 graphs), C-N (1 graph).
	// ξ_0.5: threshold 1.5 graphs → C-O, C-S qualify → 2/3.
	if got, want := c.Compactness(0.5), 2.0/3.0; !close(got, want) {
		t.Errorf("ξ0.5 = %v, want %v", got, want)
	}
	// ξ_0: every edge qualifies → 1.
	if got := c.Compactness(0); got != 1 {
		t.Errorf("ξ0 = %v, want 1", got)
	}
	// ξ_1: only edges in all graphs → 2/3.
	if got, want := c.Compactness(1), 2.0/3.0; !close(got, want) {
		t.Errorf("ξ1 = %v, want %v", got, want)
	}
}

func TestCompactnessEmptyCSG(t *testing.T) {
	g := graph.New(1, 0)
	g.AddVertex("C")
	db := graph.NewDB("one", []*graph.Graph{g})
	c := buildT(t, db, []int{0})
	if c.Compactness(0.5) != 0 {
		t.Error("edgeless CSG compactness should be 0")
	}
}

func TestContainsAndEdgeSupport(t *testing.T) {
	db := paperCluster()
	c := buildT(t, db, []int{0, 2})
	e := c.G.Edges()[0]
	if !c.Contains(e, 0) || !c.Contains(e, 2) {
		t.Error("both identical graphs should contain every closure edge")
	}
	if c.Contains(e, 1) {
		t.Error("graph 1 is not a member")
	}
	if c.EdgeSupport(e) != 2 {
		t.Errorf("EdgeSupport = %d, want 2", c.EdgeSupport(e))
	}
	if c.EdgeSupport(graph.NewEdge(97, 99)) != 0 {
		t.Error("support of absent edge should be 0")
	}
}

func TestBuildAll(t *testing.T) {
	db := paperCluster()
	cs, err := BuildAllCtx(context.Background(), db, [][]int{{0, 2}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("BuildAllCtx produced %d CSGs", len(cs))
	}
	if len(cs[0].Members) != 2 || len(cs[1].Members) != 1 {
		t.Error("member lists wrong")
	}
}

func TestIDSetOps(t *testing.T) {
	s := IDSet{}
	s.Add(3)
	s.Add(1)
	s.Add(3)
	if s.Len() != 2 || !s.Has(1) || s.Has(2) {
		t.Errorf("IDSet ops wrong: %v", s.Sorted())
	}
	got := s.Sorted()
	if got[0] != 1 || got[1] != 3 {
		t.Errorf("Sorted = %v", got)
	}
}

// TestMergeOrderInsensitiveEmbedding checks the closure property holds
// regardless of cluster member order permutations.
func TestMergeOrderInsensitiveEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var gs []*graph.Graph
	for i := 0; i < 6; i++ {
		gs = append(gs, randomConnectedGraph(rng, 5, 6))
	}
	db := graph.NewDB("perm", gs)
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(6)
		c := buildT(t, db, perm)
		for _, m := range perm {
			if !subiso.Contains(c.G, db.Graph(m)) {
				t.Fatalf("member %d lost under order %v", m, perm)
			}
		}
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
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

func BenchmarkBuildCSG(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var gs []*graph.Graph
	for i := 0; i < 20; i++ {
		gs = append(gs, randomConnectedGraph(rng, 15, 20))
	}
	db := graph.NewDB("bench", gs)
	members := make([]int, 20)
	for i := range members {
		members[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildT(b, db, members)
	}
}
