package core

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/canon"
	"repro/internal/csg"
	"repro/internal/graph"
	"repro/internal/par"
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
// reset after each walk; an index serves one goroutine at a time.
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
// integer-replication step. Each added edge after the seed draws one
// number from d. The returned edges are valid until reset.
func (w *walkIndex) walk(eta int, d *deck) []int32 {
	if w.seed < 0 {
		return nil
	}
	w.add(w.seed)
	for len(w.pat) < eta && len(w.front) > 0 {
		w.add(w.pick(d))
	}
	return w.pat
}

// pick samples one frontier edge with probability proportional to its
// weight.
func (w *walkIndex) pick(d *deck) int32 {
	total := 0.0
	for _, e := range w.front {
		total += w.weights[e]
	}
	r := d.draw() * total
	acc := 0.0
	for _, e := range w.front {
		acc += w.weights[e]
		if r < acc+1e-15 {
			return e
		}
	}
	return w.front[len(w.front)-1]
}

// closure adds the seed edge and then the lowest-numbered frontier edge
// until the pattern holds limit edges or the frontier is empty: the first
// limit edges of R, the seed edge and every edge joined to it through
// positive-weight edges. A walk only ever adds edges of R, and its
// frontier empties only once it holds all of them.
func (w *walkIndex) closure(limit int) []int32 {
	if w.seed < 0 {
		return nil
	}
	w.add(w.seed)
	for len(w.pat) < limit && len(w.front) > 0 {
		w.add(w.front[0])
	}
	return w.pat
}

// reach returns |R|, counted no further than limit.
func (w *walkIndex) reach(limit int) int {
	defer w.reset()
	return len(w.closure(limit))
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
// Fig 6). reach is |R| counted at least up to eta + 1. When it is at most
// eta the FCP is settled without walking: every walk would take all of R,
// so the FCP is nil when |R| < eta and R, grown from equal counts, when
// |R| = eta. Otherwise every walk draws exactly eta − 1 numbers from d, and
// fcp panics unless d held exactly that many. Cancellation is checked
// between walks, and the walks are counted once as CounterWalks, settled
// or walked.
func (w *walkIndex) fcp(stdctx context.Context, eta, walks, reach int, d *deck) (*graph.Graph, error) {
	tr := pipeline.From(stdctx)
	var lib []int32 // edges with a positive count
	defer func() {
		for _, e := range lib {
			w.freq[e] = 0
		}
	}()
	switch {
	case reach < eta:
		tr.Add(pipeline.CounterWalks, int64(walks))
		return nil, nil
	case reach == eta:
		lib = append(lib, w.closure(eta)...)
		w.reset()
		for _, e := range lib {
			w.freq[e] = int32(walks)
		}
	default:
		for i := 0; i < walks; i++ {
			if err := stdctx.Err(); err != nil {
				return nil, err
			}
			for _, e := range w.walk(eta, d) {
				if w.freq[e] == 0 {
					lib = append(lib, e)
				}
				w.freq[e]++
			}
			w.reset()
		}
		d.spent()
	}
	tr.Add(pipeline.CounterWalks, int64(walks))
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

// dealCap bounds the random numbers dealt at one time (256 KiB of
// float64s), whatever the number of walks.
const dealCap = 1 << 15

// deck is the run of the random stream dealt to one (CSG, size): exactly
// the numbers its walks draw, in stream order. The decks of a CSG that
// needs more than dealCap numbers start empty and refill from the stream
// itself (src), so that CSG runs while nothing else draws.
type deck struct {
	nums []float64
	next int
	src  *rand.Rand
	left int       // numbers still to draw from src
	buf  []float64 // refill storage
}

// draw returns the deck's next number. Drawing past the dealt run is a
// broken draw-count invariant, and panics.
func (d *deck) draw() float64 {
	if d.next == len(d.nums) {
		if d.left == 0 {
			panic("core: walks drew more random numbers than they were dealt")
		}
		d.nums = fill(d.buf[:min(d.left, len(d.buf))], d.src)
		d.left -= len(d.nums)
		d.next = 0
	}
	v := d.nums[d.next]
	d.next++
	return v
}

// spent panics unless every dealt number was drawn.
func (d *deck) spent() {
	if d.next != len(d.nums) || d.left != 0 {
		panic("core: walks drew fewer random numbers than they were dealt")
	}
}

// fill sets s to the stream's next len(s) numbers.
func fill(s []float64, rng *rand.Rand) []float64 {
	for i := range s {
		s[i] = rng.Float64()
	}
	return s
}

// draws returns the numbers one walk of size eta draws when it can reach
// r edges: one per edge added after the seed.
func draws(eta, r int) int {
	return max(min(eta, r)-1, 0)
}

// generator proposes the candidates of each MWU round (Algorithm 4), one
// FCP per (CSG, size), in parallel over CSGs, bit-identical to the one
// seeded stream drawn serially in (CSG, size) order.
//
// A walk draws one number per edge it adds after the seed, and it stops
// at eta edges or once it holds all of R, the edges its frontier can
// reach. So each walk of a (CSG, size) draws exactly min(eta, |R|) − 1
// numbers, a count known before any walk runs. A round therefore measures
// |R| per CSG, then deals the stream out in (CSG, size) order: each
// unsettled pair (|R| > eta) gets its walks × (eta − 1) numbers, and a
// settled pair's walks × (|R| − 1) are drawn and dropped. The CSGs' walks,
// FCP growth, materialization and canonical forms then run in parallel,
// each pair reading only its own deck, while dedup, counters and
// candidate order stay serial by (CSG, size) index. Nothing in the output
// depends on the number of workers.
//
// At most dealCap numbers are dealt at once: CSGs are dealt and run in
// waves, and a CSG that needs more than dealCap on its own runs alone,
// its decks refilling from the stream as its walks draw.
type generator struct {
	sc    *Context
	idx   []walkIndex // per CSG; rebuilt each round, storage reused
	reach []int       // per proposing CSG: |R|, counted up to ηmax + 1
	tasks []task      // per (proposing CSG, size)
	buf   []float64   // deal storage, at most dealCap numbers
}

// task is one (CSG, size) of a round.
type task struct {
	d   deck
	fcp *graph.Graph
	key string // canonical form of fcp
	err error
}

func newGenerator(sc *Context) *generator {
	return &generator{sc: sc, idx: make([]walkIndex, len(sc.CSGs))}
}

// candidates generates the round's proposals from the CSGs csgs for the
// ascending sizes, drawing from rng, and returns them in (CSG, size)
// order. Candidates isomorphic to an earlier candidate or to a selected
// pattern (canonical forms in selected) are dropped, and both are counted
// on the tracer.
func (g *generator) candidates(stdctx context.Context, csgs, sizes []int, walks int, rng *rand.Rand, selected map[string]struct{}) ([]candidate, error) {
	etaMax := sizes[len(sizes)-1]
	g.reach = resize(g.reach, len(csgs))
	if err := par.ForCtx(stdctx, len(csgs), func(j int) {
		w := &g.idx[csgs[j]]
		w.build(g.sc, g.sc.CSGs[csgs[j]])
		g.reach[j] = w.reach(etaMax + 1)
	}); err != nil {
		return nil, err
	}

	g.tasks = resize(g.tasks, len(csgs)*len(sizes))
	lo, dealt := 0, 0
	for j := range csgs {
		n := g.need(j, sizes, walks)
		if j > lo && dealt+n > dealCap {
			if err := g.wave(stdctx, csgs, sizes, walks, rng, lo, j, dealt); err != nil {
				return nil, err
			}
			lo, dealt = j, 0
		}
		dealt += n
	}
	if err := g.wave(stdctx, csgs, sizes, walks, rng, lo, len(csgs), dealt); err != nil {
		return nil, err
	}

	tr := pipeline.From(stdctx)
	var cands []candidate
	seen := make(map[string]struct{})
	for i := range g.tasks {
		t := &g.tasks[i]
		if t.fcp == nil {
			continue
		}
		tr.Add(pipeline.CounterCandidatesGenerated, 1)
		_, dup := seen[t.key]
		if _, sel := selected[t.key]; dup || sel {
			tr.Add(pipeline.CounterCandidatesRejected, 1)
			continue
		}
		seen[t.key] = struct{}{}
		cands = append(cands, candidate{p: t.fcp, source: csgs[i/len(sizes)]})
	}
	return cands, nil
}

// need returns the numbers the unsettled sizes of proposing CSG j draw.
func (g *generator) need(j int, sizes []int, walks int) int {
	n := 0
	for _, eta := range sizes {
		if g.reach[j] > eta {
			n += walks * (eta - 1)
		}
	}
	return n
}

// wave deals proposing CSGs [lo, hi), which need dealt numbers, from rng
// and runs them. Within a CSG the settled sizes are the largest, so their
// numbers follow the unsettled sizes' in the stream.
func (g *generator) wave(stdctx context.Context, csgs, sizes []int, walks int, rng *rand.Rand, lo, hi, dealt int) error {
	lone := dealt > dealCap
	g.buf = resize(g.buf, min(dealt, dealCap))
	off := 0
	for j := lo; j < hi; j++ {
		for s, eta := range sizes {
			t := &g.tasks[j*len(sizes)+s]
			*t = task{}
			switch n := walks * draws(eta, g.reach[j]); {
			case g.reach[j] <= eta:
			case lone:
				t.d = deck{src: rng, left: n, buf: g.buf}
			default:
				t.d.nums = fill(g.buf[off:off+n], rng)
				off += n
			}
		}
		if !lone {
			g.dropSettled(j, sizes, walks, rng)
		}
	}
	err := par.ForCtx(stdctx, hi-lo, func(k int) {
		j := lo + k
		w := &g.idx[csgs[j]]
		for s, eta := range sizes {
			t := &g.tasks[j*len(sizes)+s]
			if t.fcp, t.err = w.fcp(stdctx, eta, walks, g.reach[j], &t.d); t.err != nil {
				return
			}
			if t.fcp != nil {
				t.key = canon.String(t.fcp)
			}
		}
	})
	if lone {
		g.dropSettled(lo, sizes, walks, rng)
	}
	for _, t := range g.tasks[lo*len(sizes) : hi*len(sizes)] {
		if t.err != nil {
			return t.err
		}
	}
	return err
}

// dropSettled draws and drops the numbers the settled sizes of proposing
// CSG j would have drawn.
func (g *generator) dropSettled(j int, sizes []int, walks int, rng *rand.Rand) {
	for _, eta := range sizes {
		if g.reach[j] <= eta {
			for n := walks * draws(eta, g.reach[j]); n > 0; n-- {
				rng.Float64()
			}
		}
	}
}
