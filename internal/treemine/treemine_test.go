package treemine

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/subiso"
)

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

func star(center string, leaves ...string) *graph.Graph {
	g := graph.New(len(leaves)+1, len(leaves))
	c := g.AddVertex(center)
	for _, l := range leaves {
		v := g.AddVertex(l)
		g.MustAddEdge(c, v)
	}
	return g
}

func TestCanonicalSingleVertex(t *testing.T) {
	g := graph.New(1, 0)
	g.AddVertex("A")
	c := CanonicalFreeTree(g)
	if c != "A#" {
		t.Errorf("canonical of singleton = %q, want A#", c)
	}
}

func TestCanonicalInvariantUnderVertexOrder(t *testing.T) {
	// The same labeled path built in two vertex orders.
	a := pathGraph("C", "O", "N")
	b := graph.New(3, 2)
	n := b.AddVertex("N")
	o := b.AddVertex("O")
	c := b.AddVertex("C")
	b.MustAddEdge(o, n)
	b.MustAddEdge(o, c)
	if CanonicalFreeTree(a) != CanonicalFreeTree(b) {
		t.Errorf("isomorphic trees have different canonical strings:\n%q\n%q",
			CanonicalFreeTree(a), CanonicalFreeTree(b))
	}
}

func TestCanonicalDistinguishesTrees(t *testing.T) {
	p := pathGraph("C", "C", "C", "C") // path of 4
	s := star("C", "C", "C", "C")      // star K1,3
	if CanonicalFreeTree(p) == CanonicalFreeTree(s) {
		t.Error("path and star share a canonical string")
	}
	l1 := pathGraph("C", "O", "N")
	l2 := pathGraph("C", "N", "O") // different middle vertex
	if CanonicalFreeTree(l1) == CanonicalFreeTree(l2) {
		t.Error("differently labeled paths share a canonical string")
	}
}

func TestCanonicalFormatMarkers(t *testing.T) {
	s := star("A", "B", "B")
	c := CanonicalFreeTree(s)
	if !strings.HasSuffix(c, "#") {
		t.Errorf("canonical string %q missing terminator", c)
	}
	if !strings.Contains(c, "$") {
		t.Errorf("canonical string %q missing family separator", c)
	}
	if !strings.Contains(c, "1B") {
		t.Errorf("canonical string %q missing edge-label prefixes", c)
	}
}

func TestCanonicalBicentralTree(t *testing.T) {
	// A path with even vertices has two centers; canonical string must
	// still be invariant under relabeling of vertex IDs.
	a := pathGraph("C", "O", "O", "N")
	b := pathGraph("N", "O", "O", "C") // reversed
	if CanonicalFreeTree(a) != CanonicalFreeTree(b) {
		t.Error("bicentral canonical differs under reversal")
	}
}

func TestCanonicalRandomPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 8)
		perm := r.Perm(tr.NumVertices())
		h := graph.New(tr.NumVertices(), tr.NumEdges())
		labels := make([]string, tr.NumVertices())
		for v := 0; v < tr.NumVertices(); v++ {
			labels[perm[v]] = tr.Label(graph.VertexID(v))
		}
		for _, l := range labels {
			h.AddVertex(l)
		}
		for _, e := range tr.Edges() {
			h.MustAddEdge(graph.VertexID(perm[e.U]), graph.VertexID(perm[e.V]))
		}
		return CanonicalFreeTree(tr) == CanonicalFreeTree(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalPanicsOnNonTree(t *testing.T) {
	tri := graph.New(3, 3)
	a := tri.AddVertex("C")
	b := tri.AddVertex("C")
	c := tri.AddVertex("C")
	tri.MustAddEdge(a, b)
	tri.MustAddEdge(b, c)
	tri.MustAddEdge(c, a)
	defer func() {
		if recover() == nil {
			t.Error("no panic on cyclic input")
		}
	}()
	CanonicalFreeTree(tri)
}

func TestTreeCenters(t *testing.T) {
	p5 := pathGraph("A", "B", "C", "D", "E")
	cs := treeCenters(p5)
	if len(cs) != 1 || cs[0] != 2 {
		t.Errorf("path-5 centers = %v, want [2]", cs)
	}
	p4 := pathGraph("A", "B", "C", "D")
	cs = treeCenters(p4)
	if len(cs) != 2 {
		t.Errorf("path-4 centers = %v, want two", cs)
	}
}

func TestTreeStructConversion(t *testing.T) {
	tr := &Tree{Labels: []string{"A", "B", "C"}, Parent: []int{-1, 0, 0}}
	g := tr.Graph()
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("conversion wrong: %v", g)
	}
	if tr.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", tr.NumEdges())
	}
	if tr.CanonicalString() != CanonicalFreeTree(g) {
		t.Error("Tree.CanonicalString disagrees with graph encoding")
	}
}

func miningDB() *graph.DB {
	// 6 graphs; C-O edge in all, C-N in half, star C(O,N,S) in two.
	gs := []*graph.Graph{
		pathGraph("C", "O"),
		pathGraph("C", "O", "N"),
		pathGraph("N", "C", "O"),
		star("C", "O", "N", "S"),
		star("C", "O", "N", "S"),
		pathGraph("C", "O", "S"),
	}
	return graph.NewDB("mine", gs)
}

func TestMineFindsFrequentEdge(t *testing.T) {
	db := miningDB()
	trees := mineT(t, db, MineOptions{MinSupport: 0.9, MaxEdges: 3})
	if len(trees) != 1 {
		t.Fatalf("support 0.9 should yield only C-O, got %d trees", len(trees))
	}
	ft := trees[0]
	if len(ft.Support) != 6 {
		t.Errorf("C-O support = %d, want 6", len(ft.Support))
	}
	if ft.Frequency(db.Len()) != 1.0 {
		t.Errorf("frequency = %v, want 1", ft.Frequency(db.Len()))
	}
}

func TestMineSupportsAreSound(t *testing.T) {
	db := miningDB()
	trees := mineT(t, db, MineOptions{MinSupport: 0.3, MaxEdges: 3})
	if len(trees) == 0 {
		t.Fatal("no trees mined")
	}
	for _, ft := range trees {
		// Trees must actually be trees.
		if ft.Pattern.NumEdges() != ft.Pattern.NumVertices()-1 || !ft.Pattern.IsConnected() {
			t.Fatalf("mined pattern is not a tree: %v", ft.Pattern)
		}
		// Reported support must match VF2 ground truth.
		for gi := 0; gi < db.Len(); gi++ {
			want := subiso.Contains(db.Graph(gi), ft.Pattern)
			got := containsIdx(ft.Support, gi)
			if want != got {
				t.Errorf("tree %s: support of graph %d = %v, want %v", ft.Canon, gi, got, want)
			}
		}
	}
}

func containsIdx(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func TestMineAntiMonotone(t *testing.T) {
	db := miningDB()
	trees := mineT(t, db, MineOptions{MinSupport: 0.3, MaxEdges: 4})
	bySize := map[int]int{}
	for _, ft := range trees {
		bySize[ft.Pattern.NumEdges()]++
		// Every mined tree must meet min support.
		if len(ft.Support) < 2 { // 0.3 * 6 = 1.8 → minCount 2
			t.Errorf("tree %s support %d below threshold", ft.Canon, len(ft.Support))
		}
	}
	if bySize[1] == 0 {
		t.Error("no single-edge trees mined")
	}
}

func TestMineNoDuplicateCanon(t *testing.T) {
	db := miningDB()
	trees := mineT(t, db, MineOptions{MinSupport: 0.2, MaxEdges: 3})
	seen := map[string]bool{}
	for _, ft := range trees {
		if seen[ft.Canon] {
			t.Errorf("duplicate canonical tree %s", ft.Canon)
		}
		seen[ft.Canon] = true
	}
}

func TestFeatureVectors(t *testing.T) {
	db := miningDB()
	trees := mineT(t, db, MineOptions{MinSupport: 0.5, MaxEdges: 2})
	vecs, err := FeatureVectorsCtx(context.Background(), db, trees)
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs) != db.Len() {
		t.Fatalf("vector count = %d", len(vecs))
	}
	for i, vec := range vecs {
		for j, bit := range vec {
			want := subiso.Contains(db.Graph(i), trees[j].Pattern)
			if bit != want {
				t.Errorf("vec[%d][%d] = %v, want %v", i, j, bit, want)
			}
		}
	}
}

func TestLCSLength(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 0},
		{"abc", "abc", 3},
		{"abc", "axbxc", 3},
		{"abcdef", "acf", 3},
		{"xyz", "abc", 0},
	}
	for _, tc := range cases {
		if got := lcsLength(tc.a, tc.b); got != tc.want {
			t.Errorf("lcs(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSubtreeSimilarityRange(t *testing.T) {
	if s := SubtreeSimilarity("A$1B#", "A$1B#"); s != 1 {
		t.Errorf("self similarity = %v", s)
	}
	if s := SubtreeSimilarity("", ""); s != 1 {
		t.Errorf("empty-empty similarity = %v", s)
	}
	s := SubtreeSimilarity("A$1B#", "C$1D#")
	if s < 0 || s > 1 {
		t.Errorf("similarity out of range: %v", s)
	}
}

func TestSelectFeaturesGreedy(t *testing.T) {
	db := miningDB()
	all := mineT(t, db, MineOptions{MinSupport: 0.2, MaxEdges: 3})
	if len(all) < 4 {
		t.Skipf("too few trees (%d) for a meaningful selection test", len(all))
	}
	sel := SelectFeatures(all, 3)
	if len(sel) != 3 {
		t.Fatalf("selected %d, want 3", len(sel))
	}
	// Selection must be a subset of all.
	canon := map[string]bool{}
	for _, ft := range all {
		canon[ft.Canon] = true
	}
	for _, ft := range sel {
		if !canon[ft.Canon] {
			t.Errorf("selected tree %s not in candidate set", ft.Canon)
		}
	}
	// Greedy facility location should beat an arbitrary same-size prefix in
	// coverage (or at least match it).
	if Coverage(all, sel) < Coverage(all, all[:3])-1e-9 {
		t.Error("greedy selection covered less than naive prefix")
	}
}

func TestSelectFeaturesEdgeCases(t *testing.T) {
	db := miningDB()
	all := mineT(t, db, MineOptions{MinSupport: 0.2, MaxEdges: 2})
	if got := SelectFeatures(all, 0); len(got) != len(all) {
		t.Error("k<=0 should return all")
	}
	if got := SelectFeatures(all, len(all)+5); len(got) != len(all) {
		t.Error("k>=n should return all")
	}
	if Coverage(nil, nil) != 0 {
		t.Error("Coverage on empty all should be 0")
	}
}

func randomTree(r *rand.Rand, n int) *graph.Graph {
	labels := []string{"C", "N", "O", "S"}
	g := graph.New(n, n-1)
	for i := 0; i < n; i++ {
		g.AddVertex(labels[r.Intn(len(labels))])
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.VertexID(r.Intn(i)), graph.VertexID(i))
	}
	return g
}

func BenchmarkCanonicalFreeTree(b *testing.B) {
	r := rand.New(rand.NewSource(21))
	tr := randomTree(r, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CanonicalFreeTree(tr)
	}
}

func BenchmarkMine(b *testing.B) {
	r := rand.New(rand.NewSource(23))
	var gs []*graph.Graph
	for i := 0; i < 50; i++ {
		gs = append(gs, randomTree(r, 10))
	}
	db := graph.NewDB("bench", gs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mineT(b, db, MineOptions{MinSupport: 0.2, MaxEdges: 3})
	}
}
