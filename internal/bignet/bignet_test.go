package bignet

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/pipeline"
)

// validateFrozen checks the structural invariants of a loader-built
// snapshot: monotone offsets, strictly sorted neighbor rows, adjacency
// symmetry, canonical sorted edge pairs, no self-loops.
func validateFrozen(t testing.TB, f *graph.Frozen) {
	t.Helper()
	n := int32(f.NumVertices())
	var prev uint64
	ep := f.EdgePairs()
	for i := 0; i < len(ep); i += 2 {
		u, v := ep[i], ep[i+1]
		if u >= v {
			t.Fatalf("edge %d: pair (%d,%d) not canonical", i/2, u, v)
		}
		if u < 0 || v >= n {
			t.Fatalf("edge %d: endpoints (%d,%d) out of range [0,%d)", i/2, u, v, n)
		}
		key := uint64(uint32(u))<<32 | uint64(uint32(v))
		if i > 0 && key <= prev {
			t.Fatalf("edge %d: pairs not strictly ascending", i/2)
		}
		prev = key
	}
	var total int32
	for v := int32(0); v < n; v++ {
		nb := f.Neighbors(v)
		total += int32(len(nb))
		for i, w := range nb {
			if w < 0 || w >= n {
				t.Fatalf("vertex %d: neighbor %d out of range", v, w)
			}
			if w == v {
				t.Fatalf("vertex %d: self-loop survived", v)
			}
			if i > 0 && nb[i-1] >= w {
				t.Fatalf("vertex %d: neighbors not strictly sorted: %v", v, nb)
			}
			if !f.HasEdge(w, v) {
				t.Fatalf("asymmetric adjacency: %d->%d", v, w)
			}
		}
	}
	if int(total) != len(ep) {
		t.Fatalf("CSR holds %d half-edges, edge list %d", total, len(ep))
	}
}

func TestLoadEdgeList(t *testing.T) {
	in := strings.Join([]string{
		"# comment",
		"v 10 a",
		"v 20 b",
		"v 30 a",
		"",
		"10 20",
		"e 20 30",
		"10 20",     // duplicate
		"20 10",     // duplicate reversed
		"10 10",     // self-loop
		"10",        // malformed: one field
		"x y",       // malformed: not ints
		"10 999999", // implicit vertex, default label
		"% another comment",
	}, "\n")
	rec := pipeline.NewRecorder()
	ctx := pipeline.WithTrace(context.Background(), rec)
	f, st, err := LoadEdgeListCtx(ctx, strings.NewReader(in), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	validateFrozen(t, f)
	if f.NumVertices() != 4 {
		t.Fatalf("vertices = %d, want 4", f.NumVertices())
	}
	if f.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3: %v", f.NumEdges(), f.EdgePairs())
	}
	if st.Malformed != 2 || st.SelfLoops != 1 || st.Duplicates != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := f.LabelString(3); got != "v" {
		t.Fatalf("implicit vertex label = %q, want default", got)
	}
	if rec.Total(pipeline.CounterNetEdgesLoaded) != 5 {
		t.Fatalf("edges_loaded counter = %d, want 5", rec.Total(pipeline.CounterNetEdgesLoaded))
	}
	if rec.Total(pipeline.CounterNetEdgesDropped) != 5 {
		t.Fatalf("edges_dropped counter = %d, want 5", rec.Total(pipeline.CounterNetEdgesDropped))
	}
}

func TestLoadEdgeListCancel(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 10*progressEvery; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, i+1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := LoadEdgeListCtx(ctx, strings.NewReader(sb.String()), LoadOptions{}); err == nil {
		t.Fatal("cancelled load returned nil error")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := graph.NewFrozenBuilder(64, 256)
	for i := 0; i < 64; i++ {
		b.AddVertex(fmt.Sprintf("l%d", rng.Intn(5)))
	}
	for i := 0; i < 256; i++ {
		b.AddEdge(int32(rng.Intn(64)), int32(rng.Intn(64)))
	}
	f := b.Build(0)
	validateFrozen(t, f)

	var buf bytes.Buffer
	if err := WriteBinary(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, st, err := LoadBinaryCtx(context.Background(), &buf, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	validateFrozen(t, g)
	if g.NumVertices() != f.NumVertices() || g.NumEdges() != f.NumEdges() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			g.NumVertices(), g.NumEdges(), f.NumVertices(), f.NumEdges())
	}
	if !reflect.DeepEqual(f.EdgePairs(), g.EdgePairs()) {
		t.Fatal("round trip edge pairs differ")
	}
	for v := int32(0); v < int32(f.NumVertices()); v++ {
		if f.LabelString(v) != g.LabelString(v) {
			t.Fatalf("vertex %d label %q != %q", v, f.LabelString(v), g.LabelString(v))
		}
	}
	if st.Edges != int64(f.NumEdges()) {
		t.Fatalf("binary stats edges = %d, want %d", st.Edges, f.NumEdges())
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "BNET1", "BNET1\n", "nonsense here", "BNET1\n\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"} {
		if _, _, err := LoadBinaryCtx(context.Background(), strings.NewReader(in), LoadOptions{}); err == nil {
			t.Fatalf("garbage %q loaded without error", in)
		}
	}
}

// ringFrozen builds a labeled ring of n vertices with chords.
func ringFrozen(tb testing.TB, n int) *graph.Frozen {
	b := graph.NewFrozenBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddVertex(fmt.Sprintf("l%d", i%3))
	}
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
		if i%7 == 0 {
			b.AddEdge(int32(i), int32((i+n/2)%n))
		}
	}
	f := b.Build(0)
	validateFrozen(tb, f)
	return f
}

func checkPartition(t testing.TB, f *graph.Frozen, regions []Region, cap int) {
	t.Helper()
	seen := make(map[uint64]int)
	for _, reg := range regions {
		if reg.NumEdges() > cap {
			t.Fatalf("region %d has %d edges, cap %d", reg.ID, reg.NumEdges(), cap)
		}
		if reg.NumEdges() == 0 {
			t.Fatalf("region %d is empty", reg.ID)
		}
		for i := 0; i < len(reg.Edges); i += 2 {
			u, v := reg.Edges[i], reg.Edges[i+1]
			if u > v {
				t.Fatalf("region %d: pair (%d,%d) not canonical", reg.ID, u, v)
			}
			seen[packEdge(u, v)]++
		}
	}
	ep := f.EdgePairs()
	for i := 0; i < len(ep); i += 2 {
		k := packEdge(ep[i], ep[i+1])
		if seen[k] != 1 {
			t.Fatalf("edge (%d,%d) assigned %d times", ep[i], ep[i+1], seen[k])
		}
		delete(seen, k)
	}
	if len(seen) != 0 {
		t.Fatalf("%d phantom edges in regions", len(seen))
	}
}

func TestPartitionCoversAllEdges(t *testing.T) {
	f := ringFrozen(t, 200)
	for _, cap := range []int{1, 7, 64, 100000} {
		regions, err := partitionEdges(context.Background(), f, cap)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, f, regions, cap)
	}
}

// TestRegionPrefixConnected pins the claim-order invariant the
// summarizer relies on: every prefix of a region's edge list is a
// connected subgraph, so a sampled region is connected and every walk on
// it reaches its size.
func TestRegionPrefixConnected(t *testing.T) {
	f := ringFrozen(t, 120)
	regions, err := partitionEdges(context.Background(), f, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range regions {
		for m := 1; m <= reg.NumEdges(); m++ {
			g := regionGraph(f, reg.Edges[:2*m])
			if !connected(g) {
				t.Fatalf("region %d: %d-edge prefix disconnected", reg.ID, m)
			}
		}
	}
}

func connected(g *graph.Graph) bool {
	n := g.NumVertices()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	queue := []graph.VertexID{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				count++
				queue = append(queue, w)
			}
		}
	}
	return count == n
}

func TestDecompose(t *testing.T) {
	f := ringFrozen(t, 300)
	rec := pipeline.NewRecorder()
	ctx := pipeline.WithTrace(context.Background(), rec)
	d, err := Decompose(ctx, f, Options{MaxRegionEdges: 40, Reps: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regions) == 0 || d.DB == nil || len(d.DB.Graphs) == 0 {
		t.Fatalf("empty decomposition: %+v", d)
	}
	if d.Reps != len(d.DB.Graphs) {
		t.Fatalf("Reps = %d, DB has %d graphs", d.Reps, len(d.DB.Graphs))
	}
	checkPartition(t, f, d.Regions, 40)
	for i, g := range d.DB.Graphs {
		if g.NumEdges() == 0 {
			t.Fatalf("rep %d is empty", i)
		}
		if !connected(g) {
			t.Fatalf("rep %d is disconnected", i)
		}
	}
	if rec.Total(pipeline.CounterNetRegions) != int64(len(d.Regions)) {
		t.Fatalf("regions counter = %d, want %d", rec.Total(pipeline.CounterNetRegions), len(d.Regions))
	}
	if rec.Total(pipeline.CounterNetRepsSampled) != int64(d.Reps) {
		t.Fatalf("reps counter = %d, want %d", rec.Total(pipeline.CounterNetRepsSampled), d.Reps)
	}
}

func TestDecomposeEmptyNetwork(t *testing.T) {
	b := graph.NewFrozenBuilder(0, 0)
	d, err := Decompose(context.Background(), b.Build(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Regions) != 0 || len(d.DB.Graphs) != 0 {
		t.Fatalf("empty network decomposed into %d regions / %d reps", len(d.Regions), len(d.DB.Graphs))
	}
}
