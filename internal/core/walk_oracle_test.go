package core

// The map-based candidate generation that walkIndex replaced, kept as the
// oracle of TestDifferentialWalks: it rebuilds, dedups and sorts the
// frontier from maps at every step and rescans the weight map for the seed
// on every walk.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/canon"
	"repro/internal/cluster"
	"repro/internal/csg"
	"repro/internal/graph"
	"repro/internal/pipeline"
)

// EdgeWeights computes the weighted CSG of Algorithm 4 line 2: each closure
// edge e gets w_e = lcov(e, D) × lcov(e, C), the product of global edge
// label weight and local (within-cluster) coverage.
func (ctx *Context) EdgeWeights(c *csg.CSG) map[graph.Edge]float64 {
	w := make(map[graph.Edge]float64, len(c.EdgeGraphs))
	members := float64(len(c.Members))
	for e, ids := range c.EdgeGraphs {
		label := c.G.EdgeLabel(e.U, e.V)
		w[e] = ctx.elw[label] * float64(ids.Len()) / members
	}
	return w
}

// randomWalkPCP performs one weighted random walk on the CSG producing a
// potential candidate pattern of up to eta edges: it starts at the seed
// edge (largest weight) and repeatedly adds one candidate adjacent edge
// (cae) chosen with probability proportional to its weight — the
// probabilistic equivalent of the paper's LCM integer-replication step.
func randomWalkPCP(c *csg.CSG, weights map[graph.Edge]float64, eta int, rng *rand.Rand) []graph.Edge {
	seed, ok := maxWeightEdge(weights)
	if !ok {
		return nil
	}
	inPattern := map[graph.Edge]bool{seed: true}
	vertices := map[graph.VertexID]bool{seed.U: true, seed.V: true}
	pcp := []graph.Edge{seed}

	for len(pcp) < eta {
		caes := adjacentEdges(c, weights, inPattern, vertices)
		if len(caes) == 0 {
			break
		}
		e := weightedPick(caes, weights, rng)
		inPattern[e] = true
		vertices[e.U] = true
		vertices[e.V] = true
		pcp = append(pcp, e)
	}
	return pcp
}

// maxWeightEdge returns the largest-weight edge; ties break on the
// canonical edge ordering so the seed is deterministic.
func maxWeightEdge(weights map[graph.Edge]float64) (graph.Edge, bool) {
	var best graph.Edge
	bestW := -1.0
	found := false
	for e, w := range weights {
		if w > bestW || (w == bestW && lessEdge(e, best)) {
			best, bestW, found = e, w, true
		}
	}
	return best, found
}

func lessEdge(a, b graph.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// adjacentEdges collects candidate adjacent edges of the partial pattern:
// closure edges sharing a vertex with the pattern, not yet chosen, with
// positive weight.
func adjacentEdges(c *csg.CSG, weights map[graph.Edge]float64, in map[graph.Edge]bool, vs map[graph.VertexID]bool) []graph.Edge {
	var out []graph.Edge
	seen := make(map[graph.Edge]bool)
	for v := range vs {
		for _, w := range c.G.Neighbors(v) {
			e := graph.NewEdge(v, w)
			if in[e] || seen[e] {
				continue
			}
			seen[e] = true
			if weights[e] > 0 {
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessEdge(out[i], out[j]) })
	return out
}

// weightedPick samples one edge with probability proportional to weight.
func weightedPick(es []graph.Edge, weights map[graph.Edge]float64, rng *rand.Rand) graph.Edge {
	total := 0.0
	for _, e := range es {
		total += weights[e]
	}
	r := rng.Float64() * total
	acc := 0.0
	for _, e := range es {
		acc += weights[e]
		if r < acc+1e-15 {
			return e
		}
	}
	return es[len(es)-1]
}

// legacyGenerateFCP is the map-based FCP generation the walk index
// replaced: Walks random walks populate the PCP library, then the FCP is
// grown from the library's most frequent edge, at each step appending the
// most frequent library edge connected to the partial FCP.
func (sc *Context) legacyGenerateFCP(stdctx context.Context, c *csg.CSG, eta, walks int, rng *rand.Rand) (*graph.Graph, error) {
	weights := sc.EdgeWeights(c)
	tr := pipeline.From(stdctx)
	freq := make(map[graph.Edge]int)
	for i := 0; i < walks; i++ {
		if err := stdctx.Err(); err != nil {
			return nil, err
		}
		for _, e := range randomWalkPCP(c, weights, eta, rng) {
			freq[e]++
		}
		tr.Add(pipeline.CounterWalks, 1)
	}
	if len(freq) == 0 {
		return nil, nil
	}

	// First edge: most frequent in the library.
	var first graph.Edge
	bestF := -1
	for e, f := range freq {
		if f > bestF || (f == bestF && lessEdge(e, first)) {
			first, bestF = e, f
		}
	}
	in := map[graph.Edge]bool{first: true}
	vs := map[graph.VertexID]bool{first.U: true, first.V: true}
	fcp := []graph.Edge{first}
	for len(fcp) < eta {
		var next graph.Edge
		nextF := 0
		found := false
		for v := range vs {
			for _, w := range c.G.Neighbors(v) {
				e := graph.NewEdge(v, w)
				if in[e] {
					continue
				}
				if f := freq[e]; f > nextF || (f == nextF && f > 0 && found && lessEdge(e, next)) {
					next, nextF, found = e, f, true
				}
			}
		}
		if !found || nextF == 0 {
			break
		}
		in[next] = true
		vs[next.U] = true
		vs[next.V] = true
		fcp = append(fcp, next)
	}
	if len(fcp) != eta {
		return nil, nil
	}
	p, _ := c.G.EdgeSubgraph(fcp)
	return p, nil
}

// walkOracleContexts returns selection contexts whose CSGs the walk
// differential runs on: random chunked clusterings, a clustered network
// summary with larger closures, and copies whose edge label weights were
// discounted or zeroed so walks meet ties and edges they must skip.
func walkOracleContexts(t *testing.T) []*Context {
	var out []*Context
	for seed := int64(1); seed <= 3; seed++ {
		db, csgs, sc, discounted, rng := diffSetup(seed)
		out = append(out, sc)
		for _, p := range diffPatterns(db, 3, rng) {
			discounted.UpdateWeights(p)
		}
		out = append(out, discounted)
		zeroed := NewContext(db, csgs)
		n := 0
		for l := range zeroed.elw {
			if n%3 == 0 {
				zeroed.elw[l] = 0
			}
			n++
		}
		out = append(out, zeroed)
	}
	return append(out, networkOracleContext(t))
}

// networkOracleContext is a clustered network summary, whose CSGs range
// from a few edges to closures far larger than any pattern size.
func networkOracleContext(t *testing.T) *Context {
	return clusteredInput(t, "bignet summary", networkSummaryDB(t, 4),
		cluster.Config{Strategy: cluster.HybridMCCS, N: 8, MinSupport: 0.2, MCSBudget: 1500, Seed: 4},
		Budget{EtaMin: 3, EtaMax: 6, Gamma: 5}, Options{}).context()
}

func edgesOf(w *walkIndex, es []int32) []graph.Edge {
	out := make([]graph.Edge, len(es))
	for i, e := range es {
		out[i] = w.edges[e]
	}
	return out
}

func sameGraph(a, b *graph.Graph) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.String() == b.String()
}

// GenerateFCPCtx derives the FCP of CSG c for one size the way one
// (CSG, size) of a serial round does: it measures |R|, draws the numbers
// the walks need from rng in one run, and drops them if the FCP is
// settled.
func (sc *Context) GenerateFCPCtx(stdctx context.Context, c *csg.CSG, eta, walks int, rng *rand.Rand) (*graph.Graph, error) {
	var w walkIndex
	w.build(sc, c)
	r := w.reach(eta + 1)
	d := deck{nums: fill(make([]float64, walks*draws(eta, r)), rng)}
	if r <= eta {
		d = deck{}
	}
	return w.fcp(stdctx, eta, walks, r, &d)
}

// dealt returns a deck of the stream's next n numbers.
func dealt(n int, rng *rand.Rand) *deck {
	return &deck{nums: fill(make([]float64, n), rng)}
}

// TestDifferentialWalks checks the walk index against the map-based
// generation it replaced: the same PCP edge sequences and FCPs, with the
// random source left in the same state, so each walk drew exactly
// min(η, |R|) − 1 numbers. FCPs are also drawn from one index reused
// across sizes, as selection does, and every FCP settled without walking
// (|R| ≤ η) must equal the one its walks give.
func TestDifferentialWalks(t *testing.T) {
	settled := map[bool]int{} // by |R| == η
	for ci, sc := range walkOracleContexts(t) {
		var shared walkIndex
		for k, c := range sc.CSGs {
			weights := sc.EdgeWeights(c)
			var w walkIndex
			w.build(sc, c)
			shared.build(sc, c)
			for eta := 3; eta <= 8; eta++ {
				seed := int64(1000*ci + 10*k + eta)
				label := func(what string) string {
					return fmt.Sprintf("context %d CSG %d eta %d: %s", ci, k, eta, what)
				}
				r := w.reach(eta + 1)

				ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for i := 0; i < 12; i++ {
					want := randomWalkPCP(c, weights, eta, ra)
					d := dealt(draws(eta, r), rb)
					got := edgesOf(&w, w.walk(eta, d))
					d.spent()
					w.reset()
					if !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
						t.Fatalf("%s: walk %d = %v, want %v", label("PCP"), i, got, want)
					}
				}
				if a, b := ra.Int63(), rb.Int63(); a != b {
					t.Fatalf("%s: random source diverged after the walks", label("PCP"))
				}

				ra, rb = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				rc := rand.New(rand.NewSource(seed))
				want, _ := sc.legacyGenerateFCP(context.Background(), c, eta, 9, ra)
				got, _ := sc.GenerateFCPCtx(context.Background(), c, eta, 9, rb)
				reused, _ := shared.fcp(context.Background(), eta, 9, r, dealt(9*draws(eta, r), rc))
				if !sameGraph(got, want) || !sameGraph(reused, want) {
					t.Fatalf("%s: FCP = %v (reused index %v), want %v", label("FCP"), got, reused, want)
				}
				if a, b, c := ra.Int63(), rb.Int63(), rc.Int63(); a != b || a != c {
					t.Fatalf("%s: random source diverged after FCP generation", label("FCP"))
				}

				if r <= eta {
					settled[r == eta]++
					walked, _ := w.fcp(context.Background(), eta, 9, eta+1, dealt(9*draws(eta, r), rc))
					if !sameGraph(got, walked) {
						t.Fatalf("%s: settled FCP %v, walked %v", label("settled"), got, walked)
					}
				}
			}
		}
	}
	if settled[false] == 0 || settled[true] == 0 {
		t.Errorf("settled FCPs compared: %d with |R| < η, %d with |R| = η; want both", settled[false], settled[true])
	}
}

// serialCandidates is the generation a round made before the stream was
// dealt: one stream drawn in (CSG, size) order by the FCP generator fcp,
// candidates deduped by canonical form in that order.
func serialCandidates(sc *Context, csgs, sizes []int, selected map[string]struct{},
	fcp func(c *csg.CSG, eta int) *graph.Graph) []candidate {
	var out []candidate
	seen := make(map[string]struct{})
	for _, ci := range csgs {
		for _, eta := range sizes {
			p := fcp(sc.CSGs[ci], eta)
			if p == nil {
				continue
			}
			cf := canon.String(p)
			_, dup := seen[cf]
			if _, sel := selected[cf]; dup || sel {
				continue
			}
			seen[cf] = struct{}{}
			out = append(out, candidate{p: p, source: ci})
		}
	}
	return out
}

// sparseContext is a context whose CSGs cannot reach the smallest pattern
// size: a one-edge CSG, and a path whose seed edge's neighbours all have
// weight 0.
func sparseContext() *Context {
	g := graph.New(4, 3)
	x, y, z, w := g.AddVertex("X"), g.AddVertex("Y"), g.AddVertex("Z"), g.AddVertex("W")
	g.MustAddEdge(x, y)
	g.MustAddEdge(y, z)
	g.MustAddEdge(x, w)
	db := graph.NewDB("sparse", []*graph.Graph{g, pathGraph("C", "O")})
	csgs, _ := csg.BuildAllCtx(context.Background(), db, [][]int{{0}, {1}}) // never cancelled
	sc := NewContext(db, csgs)
	sc.elw["Y-Z"], sc.elw["W-X"] = 0, 0
	return sc
}

// dealCases counts the shapes a differential met, per (round, CSG, size)
// or per (round, CSG).
type dealCases struct {
	below, at, above  int  // |R| against η
	oneEdge, zeroSeed int  // one-edge CSGs, seeds whose neighbours weigh 0
	lone, split       bool // a lone CSG with settled sizes; waves
}

// note records the shapes of the CSGs csgs under sc's current weights.
func (k *dealCases) note(sc *Context, csgs, sizes []int, walks int) {
	var w walkIndex
	waveNeed, waves := 0, 0
	for _, ci := range csgs {
		c := sc.CSGs[ci]
		w.build(sc, c)
		r := w.reach(c.G.NumEdges() + 1)
		need, settled := 0, false
		for _, eta := range sizes {
			switch {
			case r < eta:
				k.below++
				settled = true
			case r == eta:
				k.at++
				settled = true
			default:
				k.above++
				need += walks * (eta - 1)
			}
		}
		if c.G.NumEdges() == 1 {
			k.oneEdge++
		}
		if w.seed >= 0 {
			others, positive := 0, 0
			s := w.edges[w.seed]
			for _, v := range []graph.VertexID{s.U, s.V} {
				for _, e := range w.incident(int32(v)) {
					if e != w.seed {
						others++
						if w.weights[e] > 0 {
							positive++
						}
					}
				}
			}
			if others > 0 && positive == 0 {
				k.zeroSeed++
			}
		}
		if need > dealCap {
			k.lone = k.lone || settled
		} else if waveNeed+need > dealCap {
			waves++
			waveNeed = 0
		}
		waveNeed += need
	}
	if waves > 0 {
		k.split = true
	}
}

// compareRounds runs three MWU rounds of generation on sc, dealt and in
// parallel against serialCandidates over fcp drawing from a twin stream,
// and demands the same candidates, in the same order, from the same CSGs,
// with both streams left in the same state. The winner of each round is
// picked and its weights discounted as selection does.
func compareRounds(t *testing.T, name string, sc *Context, sizes []int, walks int, seed int64, cases *dealCases,
	fcp func(sc *Context, c *csg.CSG, eta, walks int, rng *rand.Rand) *graph.Graph) {
	t.Helper()
	ctx := context.Background()
	gen := newGenerator(sc)
	ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	selected := make(map[string]struct{})
	var selectedGraphs []*graph.Graph
	for round := 1; round <= 3; round++ {
		csgs := sc.proposingCSGs(0)
		cases.note(sc, csgs, sizes, walks)
		want := serialCandidates(sc, csgs, sizes, selected, func(c *csg.CSG, eta int) *graph.Graph {
			return fcp(sc, c, eta, walks, ra)
		})
		got, err := gen.candidates(ctx, csgs, sizes, walks, rb, selected)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s round %d: %d candidates, serial stream %d", name, round, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.p.String() != w.p.String() || canon.String(g.p) != canon.String(w.p) || g.source != w.source {
				t.Fatalf("%s round %d: candidate %d = %v from CSG %d, serial stream %v from CSG %d",
					name, round, i, g.p, g.source, w.p, w.source)
			}
		}
		if a, b := ra.Int63(), rb.Int63(); a != b {
			t.Fatalf("%s round %d: random stream diverged", name, round)
		}
		if cap(gen.buf) > dealCap {
			t.Fatalf("%s round %d: %d numbers dealt at once, cap %d", name, round, cap(gen.buf), dealCap)
		}
		best, err := sc.bestCandidate(ctx, got, selectedGraphs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if best == nil {
			return
		}
		selected[canon.String(best.Graph)] = struct{}{}
		selectedGraphs = append(selectedGraphs, best.Graph)
		if err := sc.updateWeightsCtx(ctx, best.Graph); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDifferentialDealtGeneration checks dealt, parallel candidate
// generation against the serial stream, round by round: against the
// map-based walks at 9 walks per (CSG, size), and, at 1700 walks, where a
// round is dealt in waves and some CSGs run alone on refilling decks,
// against the walk index drawing its numbers serially. It insists that
// every shape was met: |R| below, at and above η, one-edge CSGs, seeds
// whose neighbours all weigh 0, waves, and a CSG running alone whose
// settled sizes drop their numbers after its walks.
func TestDifferentialDealtGeneration(t *testing.T) {
	sizes := []int{3, 4, 5, 6, 7, 8}
	legacy := func(sc *Context, c *csg.CSG, eta, walks int, rng *rand.Rand) *graph.Graph {
		p, _ := sc.legacyGenerateFCP(context.Background(), c, eta, walks, rng)
		return p
	}
	serial := func(sc *Context, c *csg.CSG, eta, walks int, rng *rand.Rand) *graph.Graph {
		p, _ := sc.GenerateFCPCtx(context.Background(), c, eta, walks, rng)
		return p
	}
	var cases dealCases
	contexts := append(walkOracleContexts(t), sparseContext())
	for ci, sc := range contexts {
		compareRounds(t, fmt.Sprintf("context %d", ci), sc, sizes, 9, int64(ci), &cases, legacy)
	}
	compareRounds(t, "waves", networkOracleContext(t), sizes, 1700, 7, &cases, serial)

	if cases.below == 0 || cases.at == 0 || cases.above == 0 {
		t.Errorf("|R| against η: %d below, %d at, %d above; want all three", cases.below, cases.at, cases.above)
	}
	if cases.oneEdge == 0 || cases.zeroSeed == 0 {
		t.Errorf("%d one-edge CSGs, %d seeds whose neighbours weigh 0; want both", cases.oneEdge, cases.zeroSeed)
	}
	if !cases.lone || !cases.split {
		t.Errorf("lone CSG with settled sizes met %v, round split into waves %v; want both", cases.lone, cases.split)
	}
}

// TestDealStaysBounded generates with 200000 walks per (CSG, size), which
// would deal 400000 numbers to one CSG at once: no more than dealCap are
// dealt at a time, and the candidates are the serial stream's.
func TestDealStaysBounded(t *testing.T) {
	db, csgs := testSetup()
	sizes := []int{3}
	const walks = 200000
	want := serialCandidates(NewContext(db, csgs), []int{0}, sizes, nil, func(c *csg.CSG, eta int) *graph.Graph {
		p, _ := NewContext(db, csgs).GenerateFCPCtx(context.Background(), c, eta, walks, rand.New(rand.NewSource(1)))
		return p
	})
	gen := newGenerator(NewContext(db, csgs))
	got, err := gen.candidates(context.Background(), []int{0}, sizes, walks, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen.reach[0] <= 3 {
		t.Fatalf("the CSG reaches %d edges; the test needs walks to run", gen.reach[0])
	}
	if cap(gen.buf) > dealCap {
		t.Errorf("%d numbers dealt at once, cap %d", cap(gen.buf), dealCap)
	}
	if len(got) != 1 || len(want) != 1 || !sameGraph(got[0].p, want[0].p) {
		t.Errorf("candidates %v, serial stream %v", got, want)
	}
}
