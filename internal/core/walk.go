package core

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/csg"
	"repro/internal/graph"
	"repro/internal/pipeline"
)

// walkIndex is a weighted CSG (Algorithm 4 line 2) laid out for candidate
// generation on flat arrays. Closure edges are numbered in (U, V) order,
// each vertex lists its incident edges in ascending number, and every
// edge carries its weight w_e = lcov(e, D) × lcov(e, C): the global edge
// label weight times the fraction of cluster members containing the edge.
// Weights only change between MWU rounds, so selection builds one index
// per (round, CSG) and every size's walks share it and its seed edge.
//
// The frontier of a walk, the candidate adjacent edges (caes) it picks
// from, is kept sorted by edge number as the walk grows, so the weighted
// pick sums the same floats in the same order, and draws the same random
// numbers, as a frontier rebuilt and sorted at every step. The scratch is
// reset after each walk; an index serves one goroutine.
type walkIndex struct {
	g       *graph.Graph
	edges   []graph.Edge // closure edges in (U, V) order
	weights []float64    // w_e by edge number
	incOff  []int32      // incident edges of v: inc[incOff[v]:incOff[v+1]]
	inc     []int32
	seed    int32 // largest-weight edge, lowest number on ties; -1 if none

	// Per-walk scratch.
	inPat   []bool  // edge is in the partial pattern
	inFront []bool  // edge is in the frontier
	marked  []bool  // vertex is an endpoint of a pattern edge
	verts   []int32 // marked vertices
	pat     []int32 // pattern edges in the order they were added
	front   []int32 // frontier, ascending
	merged  []int32 // frontier merge buffer
	freq    []int32 // PCP library: walks containing each edge
}

// build lays out CSG c under the current weights of sc, reusing the
// index's storage.
func (w *walkIndex) build(sc *Context, c *csg.CSG) {
	g := c.G
	n, m := g.NumVertices(), g.NumEdges()
	w.g = g
	w.edges = w.edges[:0]
	w.incOff = resize(w.incOff, n+1)
	w.incOff[0] = 0
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.VertexID(u)) {
			if int(v) > u {
				w.edges = append(w.edges, graph.Edge{U: graph.VertexID(u), V: v})
			}
		}
		w.incOff[u+1] = w.incOff[u] + int32(g.Degree(graph.VertexID(u)))
	}
	w.inc = resize(w.inc, 2*m)
	pos := resize(w.merged, n)
	copy(pos, w.incOff[:n])
	for i, e := range w.edges {
		w.inc[pos[e.U]] = int32(i)
		pos[e.U]++
		w.inc[pos[e.V]] = int32(i)
		pos[e.V]++
	}
	w.merged = pos[:0]

	members := float64(len(c.Members))
	w.weights = resize(w.weights, m)
	w.seed = -1
	bestW := -1.0
	for i, e := range w.edges {
		label := g.EdgeLabel(e.U, e.V)
		w.weights[i] = sc.elw[label] * float64(c.EdgeGraphs[e].Len()) / members
		if w.weights[i] > bestW {
			w.seed, bestW = int32(i), w.weights[i]
		}
	}

	w.inPat = clearBools(w.inPat, m)
	w.inFront = clearBools(w.inFront, m)
	w.marked = clearBools(w.marked, n)
	w.freq = resize(w.freq, m)
	clear(w.freq)
	w.verts, w.pat, w.front = w.verts[:0], w.pat[:0], w.front[:0]
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func clearBools(s []bool, n int) []bool {
	s = resize(s, n)
	clear(s)
	return s
}

// incident returns the edges incident to vertex v, ascending.
func (w *walkIndex) incident(v int32) []int32 { return w.inc[w.incOff[v]:w.incOff[v+1]] }

// mark records v as a pattern vertex, reporting whether it is new.
func (w *walkIndex) mark(v graph.VertexID) bool {
	if w.marked[v] {
		return false
	}
	w.marked[v] = true
	w.verts = append(w.verts, int32(v))
	return true
}

// add appends edge e to the walk's pattern and updates the frontier: e
// leaves it, and the positive-weight edges of a newly reached vertex that
// are in neither the pattern nor the frontier join it in order.
func (w *walkIndex) add(e int32) {
	w.inPat[e] = true
	w.pat = append(w.pat, e)
	if w.inFront[e] {
		w.inFront[e] = false
		i := sort.Search(len(w.front), func(i int) bool { return w.front[i] >= e })
		w.front = append(w.front[:i], w.front[i+1:]...)
	}
	for _, v := range [2]graph.VertexID{w.edges[e].U, w.edges[e].V} {
		if !w.mark(v) {
			continue
		}
		w.merged = w.merged[:0]
		i := 0
		for _, f := range w.incident(int32(v)) {
			if w.inPat[f] || w.inFront[f] || !(w.weights[f] > 0) {
				continue
			}
			w.inFront[f] = true
			for i < len(w.front) && w.front[i] < f {
				w.merged = append(w.merged, w.front[i])
				i++
			}
			w.merged = append(w.merged, f)
		}
		if len(w.merged) == 0 {
			continue
		}
		w.merged = append(w.merged, w.front[i:]...)
		w.front, w.merged = w.merged, w.front
	}
}

// reset clears the scratch of the last walk or growth.
func (w *walkIndex) reset() {
	for _, e := range w.pat {
		w.inPat[e] = false
	}
	for _, e := range w.front {
		w.inFront[e] = false
	}
	for _, v := range w.verts {
		w.marked[v] = false
	}
	w.pat, w.front, w.verts = w.pat[:0], w.front[:0], w.verts[:0]
}

// walk performs one weighted random walk producing a potential candidate
// pattern of up to eta edges: it starts at the seed edge and repeatedly
// adds one candidate adjacent edge chosen with probability proportional
// to its weight — the probabilistic equivalent of the paper's LCM
// integer-replication step. The returned edges are valid until reset.
func (w *walkIndex) walk(eta int, rng *rand.Rand) []int32 {
	if w.seed < 0 {
		return nil
	}
	w.add(w.seed)
	for len(w.pat) < eta && len(w.front) > 0 {
		w.add(w.pick(rng))
	}
	return w.pat
}

// pick samples one frontier edge with probability proportional to its
// weight.
func (w *walkIndex) pick(rng *rand.Rand) int32 {
	total := 0.0
	for _, e := range w.front {
		total += w.weights[e]
	}
	r := rng.Float64() * total
	acc := 0.0
	for _, e := range w.front {
		acc += w.weights[e]
		if r < acc+1e-15 {
			return e
		}
	}
	return w.front[len(w.front)-1]
}

// subgraph materializes the pattern edges, in order, as a pattern graph,
// nil unless there are exactly eta of them.
func (w *walkIndex) subgraph(eta int) *graph.Graph {
	if len(w.pat) != eta {
		return nil
	}
	es := make([]graph.Edge, len(w.pat))
	for i, e := range w.pat {
		es[i] = w.edges[e]
	}
	p, _ := w.g.EdgeSubgraph(es)
	return p
}

// fcp derives the final candidate pattern for one size: walks random walks
// populate the PCP library, then the FCP is grown from the library's most
// frequent edge, at each step appending the most frequent library edge
// connected to the partial FCP, lowest edge number on ties (Sec 5,
// Fig 6). Cancellation is checked between walks, and every walk is
// counted as CounterWalks.
func (w *walkIndex) fcp(stdctx context.Context, eta, walks int, rng *rand.Rand) (*graph.Graph, error) {
	tr := pipeline.From(stdctx)
	var lib []int32 // edges with a positive count
	defer func() {
		for _, e := range lib {
			w.freq[e] = 0
		}
	}()
	for i := 0; i < walks; i++ {
		if err := stdctx.Err(); err != nil {
			return nil, err
		}
		for _, e := range w.walk(eta, rng) {
			if w.freq[e] == 0 {
				lib = append(lib, e)
			}
			w.freq[e]++
		}
		w.reset()
		tr.Add(pipeline.CounterWalks, 1)
	}
	if len(lib) == 0 {
		return nil, nil
	}

	first := lib[0]
	for _, e := range lib[1:] {
		if w.freq[e] > w.freq[first] || w.freq[e] == w.freq[first] && e < first {
			first = e
		}
	}
	defer w.reset()
	w.inPat[first] = true
	w.pat = append(w.pat, first)
	w.mark(w.edges[first].U)
	w.mark(w.edges[first].V)
	for len(w.pat) < eta {
		next, nextF := int32(-1), int32(0)
		for _, v := range w.verts {
			for _, e := range w.incident(v) {
				if w.inPat[e] {
					continue
				}
				if f := w.freq[e]; f > nextF || f == nextF && f > 0 && e < next {
					next, nextF = e, f
				}
			}
		}
		if next < 0 {
			break
		}
		w.inPat[next] = true
		w.pat = append(w.pat, next)
		w.mark(w.edges[next].U)
		w.mark(w.edges[next].V)
	}
	return w.subgraph(eta), nil
}

// GenerateFCPCtx derives the final candidate pattern of a CSG for one
// size: Walks random walks populate the PCP library, then the FCP is grown
// from the library's most frequent edge, at each step appending the most
// frequent library edge connected to the partial FCP (Sec 5, Fig 6). The
// returned edge set is materialized as a pattern graph; nil when the CSG
// cannot produce a connected pattern of exactly eta edges. Cancellation is
// checked between walks and consumes no randomness, and every walk is
// counted as CounterWalks on the context's pipeline tracer.
func (sc *Context) GenerateFCPCtx(stdctx context.Context, c *csg.CSG, eta, walks int, rng *rand.Rand) (*graph.Graph, error) {
	var w walkIndex
	w.build(sc, c)
	return w.fcp(stdctx, eta, walks, rng)
}
