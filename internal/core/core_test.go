package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/canon"
	"repro/internal/cluster"
	"repro/internal/csg"
	"repro/internal/dataset"
	"repro/internal/ged"
	"repro/internal/graph"
)

// ClusterWeight returns the current (possibly discounted) weight of CSG i.
func (ctx *Context) ClusterWeight(i int) float64 { return ctx.cw[i] }

// EdgeLabelWeight returns the current weight of an edge label.
func (ctx *Context) EdgeLabelWeight(label string) float64 { return ctx.elw[label] }

// UpdateWeights is updateWeightsCtx without cancellation.
func (ctx *Context) UpdateWeights(p *graph.Graph) {
	_ = ctx.updateWeightsCtx(context.Background(), p)
}

// CCov estimates subgraph coverage via cluster coverage (Sec 5):
// ccov(p, cw, C) = Σ_i cw_i · I[CSG_i contains p], with containment tested
// by VF2 against the cluster summary graphs.
func (ctx *Context) CCov(p *graph.Graph) float64 {
	v, _ := ctx.ccovCtx(context.Background(), p)
	return v
}

// ScorePattern computes the pattern score of Eq 2 against the currently
// selected patterns:
//
//	s_p = ccov(p, cw, C) × lcov(p, D) × div(p, P\p) / cog(p)
//
// Diversity is min-GED to the selected set with the GEDl pruning loop of
// Sec 5 (performed inside ged.MinDistanceCtx); the first pattern of a set has
// div = 1 by convention. A pattern isomorphic to an already-selected one
// has div = 0 and thus score 0.
func (ctx *Context) ScorePattern(p *graph.Graph, selected []*graph.Graph) (score, ccov, lcov, div, cog float64) {
	ccov = ctx.CCov(p)
	lcov = ctx.LCov(p)
	cog = p.CognitiveLoad()
	if len(selected) == 0 {
		div = 1
	} else {
		d, _, _ := ged.MinDistanceCtx(context.Background(), p, selected)
		div = float64(d)
	}
	if cog == 0 {
		return 0, ccov, lcov, div, cog
	}
	score = ccov * lcov * div / cog
	return score, ccov, lcov, div, cog
}

// isDuplicate reports whether p is isomorphic to a graph already recorded
// under the same signature (signature equality is necessary for
// isomorphism, so only those need the exact check).
func isDuplicate(seen map[string][]*graph.Graph, p *graph.Graph) bool {
	for _, q := range seen[p.Signature()] {
		if canon.Equal(q, p) {
			return true
		}
	}
	return false
}

// ringWithTail builds an n-cycle of C with a pendant chain of given labels.
func ringWithTail(n int, tail ...string) *graph.Graph {
	g := graph.New(n+len(tail), n+len(tail))
	for i := 0; i < n; i++ {
		g.AddVertex("C")
	}
	for i := 0; i < n; i++ {
		g.MustAddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
	}
	prev := graph.VertexID(0)
	for _, l := range tail {
		v := g.AddVertex(l)
		g.MustAddEdge(prev, v)
		prev = v
	}
	return g
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

// testSetup builds a small database with two clusters (rings vs paths) and
// their CSGs.
func testSetup() (*graph.DB, []*csg.CSG) {
	var gs []*graph.Graph
	for i := 0; i < 6; i++ {
		gs = append(gs, ringWithTail(6, "O"))
	}
	for i := 0; i < 6; i++ {
		gs = append(gs, pathGraph("N", "C", "O", "S", "N"))
	}
	db := graph.NewDB("core-test", gs)
	clusters := [][]int{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}}
	csgs, _ := csg.BuildAllCtx(context.Background(), db, clusters) // never cancelled
	return db, csgs
}

func TestBudgetValidate(t *testing.T) {
	ok := Budget{EtaMin: 3, EtaMax: 8, Gamma: 10}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid budget rejected: %v", err)
	}
	bad := []Budget{
		{EtaMin: 2, EtaMax: 8, Gamma: 10},                             // ηmin must be > 2
		{EtaMin: 5, EtaMax: 4, Gamma: 10},                             // ηmax < ηmin
		{EtaMin: 3, EtaMax: 8, Gamma: 0},                              // γ must be positive
		{EtaMin: 3, EtaMax: 5, Gamma: 5, SizeDist: map[int]int{9: 1}}, // out of range
		{EtaMin: 3, EtaMax: 5, Gamma: 5, SizeDist: map[int]int{4: -1}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad budget %d accepted", i)
		}
	}
}

func TestBudgetQuotaUniform(t *testing.T) {
	b := Budget{EtaMin: 3, EtaMax: 12, Gamma: 30}
	if q := b.quota(5); q != 3 {
		t.Errorf("quota = %d, want 3 (30 patterns / 10 sizes)", q)
	}
	b2 := Budget{EtaMin: 3, EtaMax: 4, Gamma: 3}
	if q := b2.quota(3); q != 2 {
		t.Errorf("quota = %d, want 2 (ceil of 3/2)", q)
	}
}

func TestBudgetQuotaCustomDist(t *testing.T) {
	b := Budget{EtaMin: 3, EtaMax: 5, Gamma: 4, SizeDist: map[int]int{3: 1, 4: 3}}
	if b.quota(3) != 1 || b.quota(4) != 3 || b.quota(5) != 0 {
		t.Error("custom size distribution not honored")
	}
}

func TestNewContextWeights(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	if w := ctx.ClusterWeight(0); w != 0.5 {
		t.Errorf("cluster weight = %v, want 0.5", w)
	}
	// C-C edges occur in the 6 ring graphs and in the path graphs' C? The
	// path N-C-O-S-N has no C-C edge, so lcov(C-C) = 6/12.
	if w := ctx.EdgeLabelWeight("C-C"); w != 0.5 {
		t.Errorf("elw(C-C) = %v, want 0.5", w)
	}
	// C-O occurs in all 12 graphs.
	if w := ctx.EdgeLabelWeight("C-O"); w != 1.0 {
		t.Errorf("elw(C-O) = %v, want 1", w)
	}
	if w := ctx.EdgeLabelWeight("Zz-Zz"); w != 0 {
		t.Errorf("elw of absent label = %v, want 0", w)
	}
}

func TestEdgeWeightsProduct(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	w := ctx.EdgeWeights(csgs[0])
	if len(w) == 0 {
		t.Fatal("no edge weights")
	}
	for e, we := range w {
		label := csgs[0].G.EdgeLabel(e.U, e.V)
		local := float64(csgs[0].EdgeSupport(e)) / float64(len(csgs[0].Members))
		want := ctx.EdgeLabelWeight(label) * local
		if !closeF(we, want) {
			t.Errorf("edge %v weight = %v, want %v", e, we, want)
		}
		if we < 0 || we > 1 {
			t.Errorf("edge weight out of range: %v", we)
		}
	}
}

func TestGenerateFCPConnectedAndSized(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	rng := rand.New(rand.NewSource(1))
	for eta := 3; eta <= 5; eta++ {
		p, err := ctx.GenerateFCPCtx(context.Background(), csgs[0], eta, 30, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			t.Fatalf("no FCP of size %d from ring CSG", eta)
		}
		if p.NumEdges() != eta {
			t.Errorf("FCP size = %d, want %d", p.NumEdges(), eta)
		}
		if !p.IsConnected() {
			t.Error("FCP not connected")
		}
	}
}

func TestGenerateFCPOversizeReturnsNil(t *testing.T) {
	g := pathGraph("C", "O")
	db := graph.NewDB("tiny", []*graph.Graph{g})
	c, _ := csg.BuildCtx(context.Background(), db, []int{0})
	ctx := NewContext(db, []*csg.CSG{c})
	rng := rand.New(rand.NewSource(2))
	if p, err := ctx.GenerateFCPCtx(context.Background(), c, 5, 10, rng); err != nil || p != nil {
		t.Errorf("FCP larger than CSG should be nil, got %v", p)
	}
}

func TestCCov(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	// A triangle of C-C-C embeds in neither CSG (ring has no triangle).
	tri := graph.New(3, 3)
	a := tri.AddVertex("C")
	b := tri.AddVertex("C")
	c := tri.AddVertex("C")
	tri.MustAddEdge(a, b)
	tri.MustAddEdge(b, c)
	tri.MustAddEdge(c, a)
	if got := ctx.CCov(tri); got != 0 {
		t.Errorf("ccov(triangle) = %v, want 0", got)
	}
	// A C-C path of 3 edges embeds only in the ring CSG: ccov = 0.5.
	p := pathGraph("C", "C", "C", "C")
	if got := ctx.CCov(p); got != 0.5 {
		t.Errorf("ccov(C4 path) = %v, want 0.5", got)
	}
}

func TestLCovUnionSemantics(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	// Pattern with only C-C edges: covers ring graphs only → 0.5.
	p := pathGraph("C", "C", "C")
	if got := ctx.LCov(p); got != 0.5 {
		t.Errorf("lcov = %v, want 0.5", got)
	}
	// Adding a C-O edge lifts coverage to 1 (all graphs have C-O).
	p2 := pathGraph("C", "C", "O")
	if got := ctx.LCov(p2); got != 1 {
		t.Errorf("lcov = %v, want 1", got)
	}
	// A pattern with unknown labels covers nothing.
	p3 := pathGraph("Xx", "Yy")
	if got := ctx.LCov(p3); got != 0 {
		t.Errorf("lcov of unknown labels = %v, want 0", got)
	}
}

func TestScorePatternFirstHasUnitDiv(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	p := pathGraph("C", "C", "C", "C")
	score, ccov, lcov, div, cog := ctx.ScorePattern(p, nil)
	if div != 1 {
		t.Errorf("first pattern div = %v, want 1", div)
	}
	want := ccov * lcov / cog
	if !closeF(score, want) {
		t.Errorf("score = %v, want %v", score, want)
	}
}

func TestScorePatternDuplicateScoresZero(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	p := pathGraph("C", "C", "C", "C")
	score, _, _, div, _ := ctx.ScorePattern(p.Clone(), []*graph.Graph{p})
	if div != 0 || score != 0 {
		t.Errorf("duplicate pattern score = %v (div %v), want 0", score, div)
	}
}

func TestScoreWithMatchesScorePattern(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	p := pathGraph("C", "C", "C", "C")
	other := pathGraph("N", "C", "O")
	s1, c1, l1, d1, g1 := ctx.ScorePattern(p, []*graph.Graph{other})
	s2, c2, l2, d2, g2 := ctx.scoreWith(p, []*graph.Graph{other}, Options{})
	if !closeF(s1, s2) || c1 != c2 || l1 != l2 || d1 != d2 || g1 != g2 {
		t.Errorf("scoreWith with zero options diverges from ScorePattern: %v vs %v", s1, s2)
	}
}

// TestPipelineFirstScoreConsistent re-derives the first selected pattern's
// score from a fresh context (no discounts applied yet) after clustering,
// summarizing and selecting, and checks it matches the recorded breakdown:
// score = ccov × lcov × div / cog with div = 1 for the first pick.
func TestPipelineFirstScoreConsistent(t *testing.T) {
	ctx := context.Background()
	db := dataset.EMolLike(40, 31)
	cl, err := cluster.RunCtx(ctx, db, cluster.Config{Strategy: cluster.HybridMCCS, N: 10, MinSupport: 0.15, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	members := make([][]int, len(cl.Clusters))
	for i, c := range cl.Clusters {
		members[i] = c.Members
	}
	csgs, err := csg.BuildAllCtx(ctx, db, members)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SelectCtx(ctx, NewContext(db, csgs), Budget{EtaMin: 3, EtaMax: 5, Gamma: 5}, Options{Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns")
	}
	p0 := res.Patterns[0]
	if p0.Div != 1 {
		t.Errorf("first pattern div = %v, want 1", p0.Div)
	}
	score, ccov, lcov, _, cog := NewContext(db, csgs).ScorePattern(p0.Graph, nil)
	if math.Abs(score-p0.Score) > 1e-9 || math.Abs(ccov-p0.Ccov) > 1e-9 ||
		math.Abs(lcov-p0.Lcov) > 1e-9 || math.Abs(cog-p0.Cog) > 1e-9 {
		t.Errorf("recorded breakdown (%v %v %v %v) != fresh (%v %v %v %v)",
			p0.Score, p0.Ccov, p0.Lcov, p0.Cog, score, ccov, lcov, cog)
	}
}

func TestUpdateWeightsHalves(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	p := pathGraph("C", "C", "C", "C") // in ring CSG only
	w0, w1 := ctx.ClusterWeight(0), ctx.ClusterWeight(1)
	elw0 := ctx.EdgeLabelWeight("C-C")
	ctx.UpdateWeights(p)
	if got := ctx.ClusterWeight(0); !closeF(got, w0/2) {
		t.Errorf("covered cluster weight = %v, want %v", got, w0/2)
	}
	if got := ctx.ClusterWeight(1); got != w1 {
		t.Errorf("uncovered cluster weight changed: %v", got)
	}
	if got := ctx.EdgeLabelWeight("C-C"); !closeF(got, elw0/2) {
		t.Errorf("elw(C-C) = %v, want %v", got, elw0/2)
	}
	if got := ctx.EdgeLabelWeight("C-O"); got != 1 {
		t.Errorf("untouched elw changed: %v", got)
	}
}

func TestSelectBasic(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	res, err := SelectCtx(context.Background(), ctx, Budget{EtaMin: 3, EtaMax: 5, Gamma: 4}, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns selected")
	}
	if len(res.Patterns) > 4 {
		t.Errorf("selected %d > γ", len(res.Patterns))
	}
	for _, p := range res.Patterns {
		if p.Size() < 3 || p.Size() > 5 {
			t.Errorf("pattern size %d outside budget", p.Size())
		}
		if !p.Graph.IsConnected() {
			t.Error("disconnected pattern selected")
		}
		if p.Score <= 0 {
			t.Errorf("non-positive score %v", p.Score)
		}
	}
}

func TestSelectRespectsSizeQuota(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	// γ=2 over sizes {3,4}: quota 1 per size.
	res, err := SelectCtx(context.Background(), ctx, Budget{EtaMin: 3, EtaMax: 4, Gamma: 2}, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, p := range res.Patterns {
		counts[p.Size()]++
	}
	for size, c := range counts {
		if c > 1 {
			t.Errorf("size %d has %d patterns, quota 1", size, c)
		}
	}
}

func TestSelectCustomSizeDist(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	b := Budget{EtaMin: 3, EtaMax: 5, Gamma: 3, SizeDist: map[int]int{4: 3}}
	res, err := SelectCtx(context.Background(), ctx, b, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		if p.Size() != 4 {
			t.Errorf("Ψdist violated: pattern of size %d", p.Size())
		}
	}
}

func TestSelectInvalidBudget(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	if _, err := SelectCtx(context.Background(), ctx, Budget{EtaMin: 1, EtaMax: 4, Gamma: 2}, Options{}); err == nil {
		t.Error("invalid budget accepted")
	}
}

func TestSelectNoDuplicatePatterns(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	res, err := SelectCtx(context.Background(), ctx, Budget{EtaMin: 3, EtaMax: 6, Gamma: 8}, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(res.Patterns); i++ {
		for j := i + 1; j < len(res.Patterns); j++ {
			a, b := res.Patterns[i].Graph, res.Patterns[j].Graph
			// Full isomorphism check for every same-signature pair.
			if a.Signature() == b.Signature() {
				if isDuplicate(map[string][]*graph.Graph{a.Signature(): {b}}, a) {
					t.Errorf("patterns %d and %d are isomorphic", i, j)
				}
			}
		}
	}
}

func TestSelectDeterministicForSeed(t *testing.T) {
	db, csgs := testSetup()
	b := Budget{EtaMin: 3, EtaMax: 5, Gamma: 4}
	r1, err := SelectCtx(context.Background(), NewContext(db, csgs), b, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SelectCtx(context.Background(), NewContext(db, csgs), b, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Patterns) != len(r2.Patterns) {
		t.Fatalf("nondeterministic pattern count")
	}
	for i := range r1.Patterns {
		if r1.Patterns[i].Graph.String() != r2.Patterns[i].Graph.String() {
			t.Errorf("pattern %d differs between runs", i)
		}
	}
}

func TestSelectTopCSGsRestriction(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	res, err := SelectCtx(context.Background(), ctx, Budget{EtaMin: 3, EtaMax: 4, Gamma: 2}, Options{Seed: 13, TopCSGs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns with TopCSGs=1")
	}
}

func TestSelectExhaustionOnTinyDB(t *testing.T) {
	g := pathGraph("C", "O", "N", "S")
	db := graph.NewDB("tiny", []*graph.Graph{g})
	c, _ := csg.BuildCtx(context.Background(), db, []int{0})
	ctx := NewContext(db, []*csg.CSG{c})
	// Ask for far more patterns than the 3-edge database can provide.
	res, err := SelectCtx(context.Background(), ctx, Budget{EtaMin: 3, EtaMax: 3, Gamma: 10}, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Error("selection should report exhaustion")
	}
	if len(res.Patterns) > 1 {
		t.Errorf("tiny DB yielded %d distinct 3-edge patterns", len(res.Patterns))
	}
}

func TestScovLcovExact(t *testing.T) {
	db, _ := testSetup()
	// The 4-edge C path covers only ring graphs: scov = 0.5.
	p := pathGraph("C", "C", "C", "C")
	if got := Scov(db, []*graph.Graph{p}); got != 0.5 {
		t.Errorf("Scov = %v, want 0.5", got)
	}
	// Adding the N-C-O path pattern covers path graphs too.
	p2 := pathGraph("N", "C", "O")
	if got := Scov(db, []*graph.Graph{p, p2}); got != 1 {
		t.Errorf("Scov = %v, want 1", got)
	}
	if got := Lcov(db, []*graph.Graph{p2}); got != 1 {
		t.Errorf("Lcov = %v, want 1 (both families share C-O or N-C)", got)
	}
	if Scov(graph.NewDB("e", nil), nil) != 0 {
		t.Error("Scov of empty DB should be 0")
	}
	if Lcov(graph.NewDB("e", nil), nil) != 0 {
		t.Error("Lcov of empty DB should be 0")
	}
}

func TestAvgDiversityAndCog(t *testing.T) {
	p1 := pathGraph("C", "C", "C", "C")
	p2 := pathGraph("N", "O", "S", "N")
	if AvgDiversity([]*graph.Graph{p1}) != 0 {
		t.Error("diversity of singleton set should be 0")
	}
	d := AvgDiversity([]*graph.Graph{p1, p2})
	if d <= 0 {
		t.Errorf("diversity = %v, want > 0", d)
	}
	if AvgCognitiveLoad(nil) != 0 {
		t.Error("cog of empty set should be 0")
	}
	got := AvgCognitiveLoad([]*graph.Graph{p1})
	if !closeF(got, p1.CognitiveLoad()) {
		t.Errorf("avg cog = %v", got)
	}
}

func closeF(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
