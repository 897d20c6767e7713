package gindex

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
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

func testDB() *graph.DB {
	return graph.NewDB("idx", []*graph.Graph{
		pathGraph("C", "O", "N"),
		pathGraph("C", "O", "S"),
		pathGraph("N", "N", "N"),
		pathGraph("C", "C", "C", "O"),
	})
}

func TestCanonicalPathDirectionIndependent(t *testing.T) {
	if canonicalPath([]string{"C", "O", "N"}) != canonicalPath([]string{"N", "O", "C"}) {
		t.Error("path canonicalization not direction independent")
	}
}

func TestPathFeaturesAntiMonotone(t *testing.T) {
	// Every feature of a subgraph must appear among its supergraph's
	// features (the property that makes the filter sound).
	rng := rand.New(rand.NewSource(1))
	g := dataset.AIDSLike(1, 5).Graph(0)
	sub := graph.RandomConnectedSubgraph(g, 5, rng)
	idx := Build(graph.NewDB("am", []*graph.Graph{g}))
	if idx.labelBits == 0 {
		t.Fatal("expected packed mode for a single molecule-like graph")
	}
	gf := make(map[uint64]struct{})
	sf := make(map[uint64]struct{})
	idx.packedFeatures(g.Freeze(), gf)
	if !idx.packedFeatures(sub.Freeze(), sf) {
		t.Fatal("subgraph uses a label absent from its supergraph")
	}
	for f := range sf {
		if _, ok := gf[f]; !ok {
			t.Errorf("subgraph feature %#x missing from supergraph", f)
		}
	}
}

func TestSearchExactness(t *testing.T) {
	db := testDB()
	idx := Build(db)
	q := pathGraph("C", "O")
	res := idx.Search(q)
	// Ground truth by brute force.
	var want []int
	for gi, g := range db.Graphs {
		if subiso.Contains(g, q) {
			want = append(want, gi)
		}
	}
	if len(res) != len(want) {
		t.Fatalf("results = %d, want %d", len(res), len(want))
	}
	for i, r := range res {
		if r.GraphIndex != want[i] {
			t.Errorf("result %d = graph %d, want %d", i, r.GraphIndex, want[i])
		}
		// The witness embedding must be valid.
		g := db.Graph(r.GraphIndex)
		for qv := 0; qv < q.NumVertices(); qv++ {
			if q.Label(graph.VertexID(qv)) != g.Label(r.Embedding[qv]) {
				t.Errorf("witness label mismatch")
			}
		}
		for _, e := range q.Edges() {
			if !g.HasEdge(r.Embedding[e.U], r.Embedding[e.V]) {
				t.Errorf("witness edge missing")
			}
		}
	}
}

func TestSearchNoMatch(t *testing.T) {
	db := testDB()
	idx := Build(db)
	q := pathGraph("P", "P")
	if res := idx.Search(q); len(res) != 0 {
		t.Errorf("impossible query returned %d results", len(res))
	}
	if idx.Count(q) != 0 {
		t.Error("Count should be 0")
	}
}

func TestCandidatesSuperset(t *testing.T) {
	// The filter must never prune a true answer (completeness).
	db := dataset.AIDSLike(25, 3)
	idx := Build(db)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		src := db.Graph(rng.Intn(db.Len()))
		q := graph.RandomConnectedSubgraph(src, 3+rng.Intn(5), rng)
		if q == nil {
			continue
		}
		cands := map[int]bool{}
		for _, c := range idx.Candidates(q) {
			cands[c] = true
		}
		for gi, g := range db.Graphs {
			if subiso.Contains(g, q) && !cands[gi] {
				t.Fatalf("filter pruned true answer graph %d for query %v", gi, q)
			}
		}
	}
}

func TestCountMatchesBruteForceProperty(t *testing.T) {
	db := dataset.EMolLike(15, 9)
	idx := Build(db)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := db.Graph(r.Intn(db.Len()))
		q := graph.RandomConnectedSubgraph(src, 2+r.Intn(4), r)
		if q == nil {
			return true
		}
		want := 0
		for _, g := range db.Graphs {
			if subiso.Contains(g, q) {
				want++
			}
		}
		return idx.Count(q) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFilterRatioPrunes(t *testing.T) {
	db := dataset.AIDSLike(40, 11)
	idx := Build(db)
	if idx.NumFeatures() == 0 {
		t.Fatal("no features indexed")
	}
	// A highly specific query should prune most of the database.
	q := pathGraph("Cl", "C", "P")
	ratio := idx.FilterRatio(q)
	if ratio > 0.8 {
		t.Errorf("specific query pruned poorly: ratio %v", ratio)
	}
	empty := Build(graph.NewDB("e", nil))
	if empty.FilterRatio(q) != 1 {
		t.Error("empty DB ratio should be 1")
	}
}

func TestEmptyQueryMatchesAll(t *testing.T) {
	db := testDB()
	idx := Build(db)
	q := graph.New(0, 0)
	if got := len(idx.Candidates(q)); got != db.Len() {
		t.Errorf("empty query candidates = %d, want %d", got, db.Len())
	}
}

func BenchmarkIndexSearch(b *testing.B) {
	db := dataset.AIDSLike(100, 13)
	idx := Build(db)
	rng := rand.New(rand.NewSource(17))
	q := graph.RandomConnectedSubgraph(db.Graph(0), 6, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(q)
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	db := dataset.AIDSLike(60, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(db)
	}
}
