package subiso

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// build constructs a graph from labels and edge pairs.
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

func TestContainsPathInTriangle(t *testing.T) {
	tri := build([]string{"C", "C", "C"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	path := build([]string{"C", "C"}, [][2]int{{0, 1}})
	if !Contains(tri, path) {
		t.Error("edge should embed in triangle")
	}
	if Contains(path, tri) {
		t.Error("triangle should not embed in edge")
	}
}

func TestLabelSensitivity(t *testing.T) {
	tgt := build([]string{"C", "O", "N"}, [][2]int{{0, 1}, {1, 2}})
	p1 := build([]string{"C", "O"}, [][2]int{{0, 1}})
	p2 := build([]string{"C", "N"}, [][2]int{{0, 1}})
	if !Contains(tgt, p1) {
		t.Error("C-O should embed")
	}
	if Contains(tgt, p2) {
		t.Error("C-N should not embed (C and N are not adjacent)")
	}
}

func TestNonInducedSemantics(t *testing.T) {
	// Pattern path C-C-C embeds in triangle CCC even though the triangle
	// has an extra edge between the path's endpoints (non-induced match).
	tri := build([]string{"C", "C", "C"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	p := build([]string{"C", "C", "C"}, [][2]int{{0, 1}, {1, 2}})
	if !Contains(tri, p) {
		t.Error("non-induced path should embed in triangle")
	}
}

func TestFindOneValidity(t *testing.T) {
	tgt := build([]string{"C", "O", "C", "N"}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	p := build([]string{"O", "C", "N"}, [][2]int{{0, 1}, {1, 2}})
	m := FindOne(tgt, p)
	if m == nil {
		t.Fatal("no embedding found")
	}
	// Verify the mapping: labels match and edges preserved.
	for pv := 0; pv < p.NumVertices(); pv++ {
		if p.Label(graph.VertexID(pv)) != tgt.Label(m[pv]) {
			t.Errorf("label mismatch at %d", pv)
		}
	}
	for _, e := range p.Edges() {
		if !tgt.HasEdge(m[e.U], m[e.V]) {
			t.Errorf("pattern edge %v not preserved", e)
		}
	}
}

func TestFindAllCountsAutomorphisms(t *testing.T) {
	tri := build([]string{"C", "C", "C"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	// A single unlabeled-equivalent edge C-C has 6 embeddings in CCC
	// triangle (3 edges × 2 directions).
	p := build([]string{"C", "C"}, [][2]int{{0, 1}})
	if got := len(FindAll(tri, p, Options{})); got != 6 {
		t.Errorf("embeddings = %d, want 6", got)
	}
	// Triangle in triangle: 3! = 6 automorphisms.
	if got := len(FindAll(tri, tri, Options{})); got != 6 {
		t.Errorf("automorphism count = %d, want 6", got)
	}
}

func TestMaxSolutionsLimit(t *testing.T) {
	tri := build([]string{"C", "C", "C"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	p := build([]string{"C", "C"}, [][2]int{{0, 1}})
	ms := FindAll(tri, p, Options{MaxSolutions: 2})
	if len(ms) != 2 {
		t.Errorf("MaxSolutions not honored: got %d", len(ms))
	}
	if m := FindOne(tri, p); m == nil || m[0] != ms[0][0] || m[1] != ms[0][1] {
		t.Errorf("FindOne = %v, want the first embedding %v", m, ms[0])
	}
}

func TestQuickRejects(t *testing.T) {
	small := build([]string{"C"}, nil)
	big := build([]string{"C", "C"}, [][2]int{{0, 1}})
	if Contains(small, big) {
		t.Error("larger pattern embedded in smaller target")
	}
	labelled := build([]string{"S", "S"}, [][2]int{{0, 1}})
	if Contains(big, labelled) {
		t.Error("pattern with absent labels embedded")
	}
}

func TestDisconnectedPattern(t *testing.T) {
	tgt := build([]string{"C", "O", "N", "S"}, [][2]int{{0, 1}, {2, 3}})
	p := build([]string{"C", "O", "N", "S"}, [][2]int{{0, 1}, {2, 3}})
	if !Contains(tgt, p) {
		t.Error("disconnected pattern should embed in identical target")
	}
	pBad := build([]string{"C", "N"}, nil) // two isolated vertices
	if !Contains(tgt, pBad) {
		t.Error("isolated labeled vertices should embed")
	}
}

func TestBenzeneRingInNaphthalene(t *testing.T) {
	// Naphthalene: two fused 6-rings (10 vertices, 11 edges).
	naph := build(
		[]string{"C", "C", "C", "C", "C", "C", "C", "C", "C", "C"},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {4, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 5}})
	ring := build([]string{"C", "C", "C", "C", "C", "C"},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	if !Contains(naph, ring) {
		t.Error("benzene ring should embed in naphthalene")
	}
	ring7 := build([]string{"C", "C", "C", "C", "C", "C", "C"},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0}})
	if Contains(naph, ring7) {
		t.Error("7-ring should not embed in naphthalene")
	}
}

func TestMappingInjective(t *testing.T) {
	tgt := build([]string{"C", "C", "C"}, [][2]int{{0, 1}, {1, 2}})
	p := build([]string{"C", "C", "C"}, [][2]int{{0, 1}, {1, 2}})
	for _, m := range FindAll(tgt, p, Options{}) {
		seen := map[graph.VertexID]bool{}
		for _, tv := range m {
			if seen[tv] {
				t.Fatalf("mapping not injective: %v", m)
			}
			seen[tv] = true
		}
	}
}

// TestRandomSubgraphAlwaysContained is the key property: a random connected
// subgraph extracted from G must embed in G.
func TestRandomSubgraphAlwaysContained(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(r, 10, 14)
		size := int(sizeRaw)%g.NumEdges() + 1
		sub := graph.RandomConnectedSubgraph(g, size, r)
		return sub != nil && Contains(g, sub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestShuffledIsomorphism: relabeling vertex IDs must not affect
// containment in either direction.
func TestShuffledIsomorphism(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(r, 8, 11)
		perm := r.Perm(g.NumVertices())
		h := graph.New(g.NumVertices(), g.NumEdges())
		inv := make([]graph.VertexID, g.NumVertices())
		for i, p := range perm {
			inv[p] = graph.VertexID(i)
		}
		labels := make([]string, g.NumVertices())
		for v := 0; v < g.NumVertices(); v++ {
			labels[perm[v]] = g.Label(graph.VertexID(v))
		}
		for _, l := range labels {
			h.AddVertex(l)
		}
		for _, e := range g.Edges() {
			h.MustAddEdge(graph.VertexID(perm[e.U]), graph.VertexID(perm[e.V]))
		}
		return Contains(g, h) && Contains(h, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
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

// TestMaxNodesBudget: a node-budgeted containment check may give up, but
// a definitive answer never contradicts the exhaustive search, and an
// ample budget always answers definitively.
func TestMaxNodesBudget(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomConnectedGraph(r, 30, 60)
	p := graph.RandomConnectedSubgraph(g, 5, r)
	want := Contains(g, p)
	for _, budget := range []int{1, 5, 50, 1 << 20} {
		got, definitive := ContainsBudget(g, p, budget)
		if got && !want || definitive && got != want {
			t.Errorf("budget %d: (%v, definitive %v), exhaustive %v", budget, got, definitive, want)
		}
	}
	if _, definitive := ContainsBudget(g, p, 1<<20); !definitive {
		t.Error("an ample budget did not answer definitively")
	}
}

func BenchmarkVF2Contains(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	g := randomConnectedGraph(r, 40, 55)
	p := graph.RandomConnectedSubgraph(g, 8, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Contains(g, p) {
			b.Fatal("lost embedding")
		}
	}
}
