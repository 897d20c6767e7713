package simcache

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/pipeline"
)

// permuted returns an isomorphic copy of g with vertices renumbered by a
// random permutation.
func permuted(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	vs := make([]graph.VertexID, g.NumVertices())
	for i := range vs {
		vs[i] = graph.VertexID(i)
	}
	rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	sub, _ := g.InducedSubgraph(vs)
	return sub
}

// redundantGraphs builds a universe with heavy isomorphic redundancy:
// every base graph plus `copies` permuted twins.
func redundantGraphs(nBase, copies int, seed int64) []*graph.Graph {
	base := dataset.AIDSLike(nBase, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x51caccce))
	var gs []*graph.Graph
	for _, g := range base.Graphs {
		gs = append(gs, g)
		for c := 0; c < copies; c++ {
			gs = append(gs, permuted(g, rng))
		}
	}
	return gs
}

// naiveBatch is the oracle for BatchCtx: every requested pair is searched
// sequentially on its canonical representatives, with no memo, no
// in-batch sharing and no parallel fan-out. Pass it an engine of its own,
// built with the options of the engine under test, so the two share no
// state.
func naiveBatch(e *Engine, members []int, target int) []float64 {
	out := make([]float64, len(members))
	for idx, m := range members {
		_, lo, hi := e.pairOf(m, target)
		// context.Background is never cancelled, so the search cannot fail.
		out[idx], _ = mcs.SimilarityKindCtx(context.Background(), e.kind, lo, hi, e.budget)
	}
	return out
}

func TestEngineMatchesNaive(t *testing.T) {
	gs := redundantGraphs(6, 2, 11)
	opts := Options{Kind: mcs.KindMCCS, Budget: 2000}
	eng := New(gs, opts)
	naive := New(gs, opts)

	ctx := context.Background()
	members := make([]int, 0, len(gs))
	for i := range gs {
		members = append(members, i)
	}
	targets := []int{0, 3, 7, len(gs) - 1}
	for _, target := range targets {
		got, err := eng.BatchCtx(ctx, members, target)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveBatch(naive, members, target)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("target %d: sim[%d] = %v engine, %v naive", target, i, got[i], want[i])
			}
			if got[i] < 0 || got[i] > 1 {
				t.Fatalf("sim[%d] = %v outside [0,1]", i, got[i])
			}
		}
	}

	es, requested := eng.Stats(), int64(len(targets)*len(members))
	if es.Searches >= requested {
		t.Errorf("engine ran %d searches for %d pairs — memo/dedup saved nothing", es.Searches, requested)
	}
	if es.Hits+es.Misses != requested {
		t.Errorf("engine hits+misses = %d, want %d (every requested pair accounted)",
			es.Hits+es.Misses, requested)
	}
}

func TestCanonicalSharingWithinBatch(t *testing.T) {
	base := dataset.AIDSLike(2, 7)
	rng := rand.New(rand.NewSource(7))
	a, b := base.Graph(0), base.Graph(1)
	gs := []*graph.Graph{a, permuted(a, rng), permuted(a, rng), b}
	eng := New(gs, Options{Budget: 2000})

	sims, err := eng.BatchCtx(context.Background(), []int{0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sims[0] != sims[1] || sims[1] != sims[2] {
		t.Errorf("isomorphic members got different similarities: %v", sims)
	}
	s := eng.Stats()
	if s.Pruned != 2 || s.Searches != 1 {
		t.Errorf("stats = %+v, want 2 pruned and 1 search for 3 isomorphic pairs", s)
	}
	if len(eng.memo) != 1 {
		t.Errorf("memo holds %d entries, want 1", len(eng.memo))
	}

	// A repeat batch is pure cache hits.
	if _, err := eng.BatchCtx(context.Background(), []int{0, 1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.Hits != 3 || s.Searches != 1 {
		t.Errorf("after repeat: stats = %+v, want 3 hits and still 1 search", s)
	}
}

func TestSelfSimilarityAndEmpty(t *testing.T) {
	g := graph.New(3, 2)
	g.AddVertex("C")
	g.AddVertex("C")
	g.AddVertex("O")
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	empty := graph.New(0, 0)
	eng := New([]*graph.Graph{g, empty}, Options{})

	s, err := eng.BatchCtx(context.Background(), []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 1 {
		t.Errorf("self similarity = %v, want 1", s[0])
	}
	if s[1] != 0 {
		t.Errorf("similarity against empty graph = %v, want 0", s[1])
	}
}

// largeGraph builds a connected labeled graph of n vertices: a random
// tree plus n/4 extra edges.
func largeGraph(rng *rand.Rand, n int) *graph.Graph {
	labels := []string{"C", "N", "O", "S"}
	g := graph.New(n, n+n/4)
	for i := 0; i < n; i++ {
		g.AddVertex(labels[rng.Intn(len(labels))])
		if i > 0 {
			g.MustAddEdge(graph.VertexID(rng.Intn(i)), graph.VertexID(i))
		}
	}
	for e := n / 4; e > 0; e-- {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// TestIdentityKeyFallbacks: graphs that cannot take canonical keys — above
// canon.MaxKeyVertices, or with labels the encoding cannot round-trip —
// must get identity keys and still produce values identical to the
// sequential oracle (they just forgo sharing, even with isomorphic twins).
func TestIdentityKeyFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var gs []*graph.Graph
	for i := 0; i < 4; i++ {
		g := largeGraph(rng, canon.MaxKeyVertices+1+rng.Intn(12))
		gs = append(gs, g, permuted(g, rng))
	}
	weird := graph.New(2, 1)
	weird.AddVertex("a;b")
	weird.AddVertex("a|b")
	weird.MustAddEdge(0, 1)
	gs = append(gs, weird)

	opts := Options{Budget: 2000}
	eng := New(gs, opts)
	for i, g := range gs {
		if k, _ := eng.keyOf(i); !strings.HasPrefix(k, "id:") {
			t.Fatalf("graph %d (%d vertices) keyed %.20q, want an identity key", i, g.NumVertices(), k)
		}
	}

	members := make([]int, len(gs))
	for i := range members {
		members[i] = i
	}
	for _, target := range []int{0, len(gs) - 1} {
		got, err := eng.BatchCtx(context.Background(), members, target)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveBatch(New(gs, opts), members, target)
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("target %d: sim[%d] = %v engine, %v naive", target, i, got[i], want[i])
			}
		}
	}
}

func TestBatchReportsPipelineCounters(t *testing.T) {
	gs := redundantGraphs(3, 2, 5)
	eng := New(gs, Options{Budget: 1000})
	rec := pipeline.NewRecorder()
	ctx := pipeline.WithTrace(context.Background(), rec)

	members := make([]int, len(gs)-1)
	for i := range members {
		members[i] = i
	}
	target := len(gs) - 1
	for i := 0; i < 2; i++ {
		if _, err := eng.BatchCtx(ctx, members, target); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Total(pipeline.CounterSimMisses) == 0 {
		t.Error("no simcache_misses recorded")
	}
	if rec.Total(pipeline.CounterSimHits) == 0 {
		t.Error("no simcache_hits recorded on the repeat batch")
	}
	if rec.Total(pipeline.CounterClusterPairsPruned) == 0 {
		t.Error("no cluster_pairs_pruned recorded despite isomorphic members")
	}
	s := eng.Stats()
	if rec.Total(pipeline.CounterSimHits) != s.Hits ||
		rec.Total(pipeline.CounterSimMisses) != s.Misses ||
		rec.Total(pipeline.CounterClusterPairsPruned) != s.Pruned {
		t.Errorf("tracer totals diverge from Stats %+v", s)
	}
}

// TestKindMCSSupported exercises the unconnected measure through the
// engine against the sequential oracle.
func TestKindMCSSupported(t *testing.T) {
	gs := redundantGraphs(4, 1, 9)
	opts := Options{Kind: mcs.KindMCS, Budget: 1000}
	eng := New(gs, opts)
	members := []int{0, 1, 2, 3, 4, 5}
	got, err := eng.BatchCtx(context.Background(), members, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveBatch(New(gs, opts), members, 6)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("mcs sim[%d] = %v engine, %v naive", i, got[i], want[i])
		}
	}
}
