package ged

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

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

func TestLowerBoundIdentical(t *testing.T) {
	g := path("C", "O", "N")
	if lb := LowerBound(g, g.Clone()); lb != 0 {
		t.Errorf("LowerBound(G,G) = %d, want 0", lb)
	}
}

func TestLowerBoundDefinition(t *testing.T) {
	// A: C,O,N (2 edges); B: C,O,S,S (3 edges)
	// |V| part: |3-4| + min(3,4) - |{C,O}| = 1 + 3 - 2 = 2
	// |E| part: |2-3| = 1  → GEDl = 3
	a := path("C", "O", "N")
	b := path("C", "O", "S", "S")
	if lb := LowerBound(a, b); lb != 3 {
		t.Errorf("LowerBound = %d, want 3", lb)
	}
	// Symmetric.
	if lb := LowerBound(b, a); lb != 3 {
		t.Errorf("LowerBound reversed = %d, want 3", lb)
	}
}

func TestLowerBoundMultisetLabels(t *testing.T) {
	// A has two C's, B has one C: intersection counts min(2,1)=1.
	a := path("C", "C")
	b := path("C", "N")
	// |V| = 0 + 2 - 1 = 1; |E| = 0 → 1.
	if lb := LowerBound(a, b); lb != 1 {
		t.Errorf("LowerBound = %d, want 1", lb)
	}
}

func TestExactIdentical(t *testing.T) {
	g := build([]string{"C", "O", "N"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	d, exact := Exact(g, g.Clone(), 0)
	if !exact || d != 0 {
		t.Errorf("Exact(G,G) = %d (exact=%v), want 0", d, exact)
	}
}

func TestExactSingleRelabel(t *testing.T) {
	a := path("C", "O", "N")
	b := path("C", "O", "S")
	d, exact := Exact(a, b, 0)
	if !exact || d != 1 {
		t.Errorf("single relabel GED = %d (exact=%v), want 1", d, exact)
	}
}

func TestExactEdgeDeletion(t *testing.T) {
	tri := build([]string{"C", "C", "C"}, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	p := build([]string{"C", "C", "C"}, [][2]int{{0, 1}, {1, 2}})
	d, exact := Exact(tri, p, 0)
	if !exact || d != 1 {
		t.Errorf("edge deletion GED = %d (exact=%v), want 1", d, exact)
	}
}

func TestExactVertexInsertion(t *testing.T) {
	a := path("C", "O")
	b := path("C", "O", "N")
	// Insert vertex N and edge O-N: cost 2.
	d, exact := Exact(a, b, 0)
	if !exact || d != 2 {
		t.Errorf("GED = %d (exact=%v), want 2", d, exact)
	}
}

func TestExactSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 15; i++ {
		a := randomConnectedGraph(rng, 5, 6)
		b := randomConnectedGraph(rng, 5, 6)
		d1, e1 := Exact(a, b, 0)
		d2, e2 := Exact(b, a, 0)
		if !e1 || !e2 {
			t.Fatal("budget exhausted on tiny graphs")
		}
		if d1 != d2 {
			t.Errorf("GED not symmetric: %d vs %d\nA=%v\nB=%v", d1, d2, a, b)
		}
	}
}

func TestApproxIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 25; i++ {
		a := randomConnectedGraph(rng, 6, 8)
		b := randomConnectedGraph(rng, 6, 8)
		exactD, ok := Exact(a, b, 0)
		if !ok {
			t.Fatal("budget exhausted on tiny graphs")
		}
		if ap := Approx(a, b); ap < exactD {
			t.Errorf("Approx (%d) < Exact (%d): not an upper bound", ap, exactD)
		}
	}
}

func TestLowerBoundIsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomConnectedGraph(r, 5, 6)
		b := randomConnectedGraph(r, 6, 7)
		exactD, ok := Exact(a, b, 0)
		if !ok {
			return true // skip (shouldn't happen at this size)
		}
		return LowerBound(a, b) <= exactD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalitySpot(t *testing.T) {
	// GED is a metric under the unit cost model; spot-check the triangle
	// inequality on random triples.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10; i++ {
		a := randomConnectedGraph(rng, 5, 5)
		b := randomConnectedGraph(rng, 5, 6)
		c := randomConnectedGraph(rng, 5, 5)
		ab, _ := Exact(a, b, 0)
		bc, _ := Exact(b, c, 0)
		ac, _ := Exact(a, c, 0)
		if ac > ab+bc {
			t.Errorf("triangle inequality violated: d(a,c)=%d > d(a,b)+d(b,c)=%d", ac, ab+bc)
		}
	}
}

func TestDistanceFallsBackOnBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomConnectedGraph(rng, 14, 20)
	b := randomConnectedGraph(rng, 14, 20)
	d, exact := Exact(a, b, 1)
	if exact {
		t.Skip("search finished within one node; unexpected but fine")
	}
	if d < LowerBound(a, b) {
		t.Errorf("fallback distance %d below lower bound %d", d, LowerBound(a, b))
	}
}

func TestMinDistanceEmptySet(t *testing.T) {
	p := path("C", "O")
	d, n, _ := MinDistanceCtx(context.Background(), p, nil)
	if d != 0 || n != 0 {
		t.Errorf("MinDistanceCtx on empty set = (%d,%d), want (0,0)", d, n)
	}
}

func TestMinDistanceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		p := randomConnectedGraph(rng, 5, 6)
		var set []*graph.Graph
		for i := 0; i < 5; i++ {
			set = append(set, randomConnectedGraph(rng, 5, 6))
		}
		got, full, _ := MinDistanceCtx(context.Background(), p, set)
		want := 1 << 30
		for _, q := range set {
			if d := Distance(p, q); d < want {
				want = d
			}
		}
		if got != want {
			t.Errorf("MinDistanceCtx = %d, brute force = %d", got, want)
		}
		if full > len(set) {
			t.Errorf("pruning did more work (%d) than brute force (%d)", full, len(set))
		}
	}
}

func TestMinDistancePruningActuallyPrunes(t *testing.T) {
	p := path("C", "O", "N")
	// One identical pattern (distance 0) plus wildly different patterns
	// whose lower bounds exceed 0 — the pruned loop should stop early.
	set := []*graph.Graph{
		p.Clone(),
		path("S", "S", "S", "S", "S", "S", "S"),
		path("P", "P", "P", "P", "P", "P", "P", "P"),
	}
	d, full, _ := MinDistanceCtx(context.Background(), p, set)
	if d != 0 {
		t.Fatalf("MinDistanceCtx = %d, want 0", d)
	}
	if full > 1 {
		t.Errorf("expected early stop after exact hit, did %d full computations", full)
	}
}

func TestHungarianSimple(t *testing.T) {
	// Classic 3x3 assignment.
	cost := [][]int{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	assign := hungarian(cost)
	total := 0
	seen := map[int]bool{}
	for i, j := range assign {
		if seen[j] {
			t.Fatalf("column %d assigned twice", j)
		}
		seen[j] = true
		total += cost[i][j]
	}
	if total != 5 { // optimal: (0,1)+(1,0)+(2,2) = 1+2+2 = 5
		t.Errorf("assignment cost = %d, want 5", total)
	}
}

func TestHungarianEmpty(t *testing.T) {
	if out := hungarian(nil); out != nil {
		t.Errorf("hungarian(nil) = %v, want nil", out)
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

func BenchmarkExactGED(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	g1 := randomConnectedGraph(rng, 7, 9)
	g2 := randomConnectedGraph(rng, 7, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exact(g1, g2, 0)
	}
}

func BenchmarkApproxGED(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	g1 := randomConnectedGraph(rng, 12, 16)
	g2 := randomConnectedGraph(rng, 12, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Approx(g1, g2)
	}
}

// TestSelectBoundInequalities checks the inequalities bound-ordered
// selection relies on, on random labeled pairs on both sides of
// exactSizeLimit: LowerBound ≤ Distance ≤ Approx, the same for Exact at
// budget 1 (which nearly always falls back), and MinDistanceCtx(p, S) ≤
// Approx(p, q) for every q of S.
func TestSelectBoundInequalities(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	small, large := 0, 0
	for i := 0; i < 400; i++ {
		a, b := randomLabeledPair(rng, 6+i%8)
		if a.NumVertices()+b.NumVertices() > exactSizeLimit {
			large++
		} else {
			small++
		}
		lb, ap := LowerBound(a, b), Approx(a, b)
		if d := Distance(a, b); d < lb || d > ap {
			t.Fatalf("pair %d: Distance %d outside [LowerBound %d, Approx %d]\n a: %v\n b: %v", i, d, lb, ap, a, b)
		}
		if d, _ := Exact(a, b, 1); d < lb || d > ap {
			t.Fatalf("pair %d: Exact at budget 1 = %d outside [LowerBound %d, Approx %d]", i, d, lb, ap)
		}
	}
	if small < 50 || large < 50 {
		t.Fatalf("pairs too one-sided around the size limit: %d small, %d large", small, large)
	}
	for i := 0; i < 150; i++ {
		p, _ := randomLabeledPair(rng, 9)
		set := make([]*graph.Graph, 1+rng.Intn(6))
		for j := range set {
			set[j], _ = randomLabeledPair(rng, 9)
		}
		d, _, err := MinDistanceCtx(context.Background(), p, set)
		if err != nil {
			t.Fatal(err)
		}
		for j, q := range set {
			if ap := Approx(p, q); d > ap {
				t.Fatalf("set %d: MinDistanceCtx %d > Approx %d against member %d", i, d, ap, j)
			}
		}
	}
}

// TestGEDOutcomeCountersSumToCalls checks that every GED computation of
// the min-GED loop is counted by exactly one outcome: exact A*, A* out of
// budget, above the size limit, or downgraded by the resilience controller.
func TestGEDOutcomeCountersSumToCalls(t *testing.T) {
	rec := pipeline.NewRecorder()
	ctx := pipeline.WithTrace(context.Background(), rec)
	now := time.Now()
	ctrl := resilience.NewController(now, now.Add(20*time.Millisecond))
	ctrl.Observe(rec)
	ctrl.BeginPhase(pipeline.StageSelect)
	degraded := resilience.WithController(ctx, ctrl)
	// The downgrade starts halfway through the select budget; waiting out
	// the whole budget puts every later call past it.
	dl, _ := ctrl.PhaseDeadline()
	time.Sleep(time.Until(dl))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 120; i++ {
		p, _ := randomLabeledPair(rng, 4+i%9)
		set := make([]*graph.Graph, 1+rng.Intn(4))
		for j := range set {
			set[j], _ = randomLabeledPair(rng, 4+i%9)
		}
		c := ctx
		if i%4 == 3 {
			c = degraded
		}
		if _, _, err := MinDistanceCtx(c, p, set); err != nil {
			t.Fatal(err)
		}
	}
	calls := rec.Total(pipeline.CounterGEDCalls)
	parts := map[pipeline.Counter]int64{}
	for _, c := range []pipeline.Counter{pipeline.CounterGEDExact, pipeline.CounterGEDBudgetExhausted,
		pipeline.CounterGEDSizeLimit, pipeline.DegradeCounterPrefix + "ged_approx"} {
		parts[c] = rec.Total(c)
	}
	sum := int64(0)
	for _, n := range parts {
		sum += n
	}
	if sum != calls {
		t.Fatalf("GED outcomes %v sum to %d, ged_calls = %d", parts, sum, calls)
	}
	for c, n := range parts {
		if n == 0 && c != pipeline.CounterGEDBudgetExhausted {
			t.Errorf("outcome %s never occurred: %v", c, parts)
		}
	}
}
