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
	net := clusteredInput(t, "bignet summary", networkSummaryDB(t, 4),
		cluster.Config{Strategy: cluster.HybridMCCS, N: 8, MinSupport: 0.2, MCSBudget: 1500, Seed: 4},
		Budget{EtaMin: 3, EtaMax: 6, Gamma: 5}, Options{})
	return append(out, net.context())
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

// TestDifferentialWalks checks the walk index against the map-based
// generation it replaced: the same PCP edge sequences and FCPs, with the
// random source left in the same state. FCPs are also drawn from one index
// reused across sizes, as selection does.
func TestDifferentialWalks(t *testing.T) {
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

				ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for i := 0; i < 12; i++ {
					want := randomWalkPCP(c, weights, eta, ra)
					got := edgesOf(&w, w.walk(eta, rb))
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
				reused, _ := shared.fcp(context.Background(), eta, 9, rc)
				if !sameGraph(got, want) || !sameGraph(reused, want) {
					t.Fatalf("%s: FCP = %v (reused index %v), want %v", label("FCP"), got, reused, want)
				}
				if a, b, c := ra.Int63(), rb.Int63(), rc.Int63(); a != b || a != c {
					t.Fatalf("%s: random source diverged after FCP generation", label("FCP"))
				}
			}
		}
	}
}
