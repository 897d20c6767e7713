package mcs

import (
	"context"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/pipeline"
)

// pair32 is a vertex correspondence in frozen (int32) coordinates.
type pair32 struct{ v1, v2 int32 }

// cand is a candidate pair with its gain: the common edges placing it adds.
type cand struct {
	p pair32
	g int32
}

// span is a half-open range of Searcher.pairs.
type span struct{ lo, hi int32 }

// Searcher is a reusable McGregor-style MCCS searcher over frozen (CSR)
// graphs. All per-search state — the two direction maps, the current and
// best mappings, the gain matrix, the neighbour-pair lists, the replay and
// candidate stacks and the seed-pair list — lives in reusable buffers that
// grow monotonically, so a warm Searcher runs its inner loop with zero
// allocations; repeated searches over the same frozen pair reuse the
// cached sorted seeds and allocate nothing at all. A Searcher is not safe
// for concurrent use; the package-level entry points draw from a
// sync.Pool.
//
// The candidate frontier is kept incrementally. The n1×n2 gain matrix
// holds, for every unmapped label-equal pair (a, b), the number of mapped
// pairs (x, y) with a~x and b~y: the common edges mapping (a, b) would
// add. Each cell (x, y) has a neighbour-pair list: the alive, label-equal
// pairs (a, b) with a~x and b~y, listed on the cell's first placement in a
// search (the masks do not change within one). place(x, y) raises the
// cells on that list whose vertices are both unmapped and pushes them on
// the replay stack; unplace lowers exactly the cells its place pushed.
// Placements are undone in LIFO order, so every unmapped cell is exact at
// every node. A node's candidates are its parent's minus the pairs sharing
// a vertex with the pair just placed, plus the cells that placement raised
// from 0, with gains read from the matrix; insertion sort restores the
// order of the nearly sorted list. The candidate lists live on one stack,
// each node's written above its parent's and popped when the node is done.
//
// The exploration order is fixed: seed pairs are enumerated in (v1, v2)
// order and sorted by degree product with sort.Slice; the candidates of a
// node are exactly the unmapped label-equal pairs with gain >= 1, ordered
// by the strict total order (gain desc, V1 asc, V2 asc), however the list
// was built. Budget-exhausted results depend on that order, so the test
// suite checks them, with every other result and the number of nodes
// explored, against an MCCS oracle on the mutable graph representation
// that rebuilds the candidates from scratch at every node.
type Searcher struct {
	f1, f2         *graph.Frozen
	alive1, alive2 []bool // optional masks (MCS greedy rounds); nil = all alive
	m12            []int32
	m21            []int32
	cur            []pair32
	best           []pair32
	curEdges       int
	bestEdge       int
	budget         int
	nodes          int
	minE           int
	ctx            context.Context
	ctxErr         error

	seeds                []pair32
	seedsFor1, seedsFor2 *graph.Frozen // seed-cache key; valid only for unmasked searches

	n2     int
	gains  []int32  // n1*n2 gain matrix, cell a*n2+b; exact for unmapped pairs
	lists  []span   // per cell, its neighbour-pair list in pairs; hi == 0 until built
	pairs  []pair32 // the built lists; pairs[0] is padding, so a built list ends above 0
	replay []pair32 // the cells raised by the standing placements, in raise order
	cands  []cand   // the candidate stack
}

var searcherPool = sync.Pool{New: func() any { return new(Searcher) }}

func resetIDs(s []int32, n int) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = -1
	}
	return s
}

// prepare resets the search state for (f1, f2) under the given masks and
// budget, rebuilding the sorted seed list unless the unmasked pair is
// unchanged from the previous search. Everything a search leaves behind is
// reset, so a Searcher abandoned mid-search is as good as a new one.
func (s *Searcher) prepare(f1, f2 *graph.Frozen, alive1, alive2 []bool, budget int) {
	s.f1, s.f2 = f1, f2
	s.alive1, s.alive2 = alive1, alive2
	s.m12 = resetIDs(s.m12, f1.NumVertices())
	s.m21 = resetIDs(s.m21, f2.NumVertices())
	s.cur = s.cur[:0]
	s.best = s.best[:0]
	s.curEdges, s.bestEdge = 0, 0
	s.nodes = 0
	s.budget = budget
	s.minE = min(f1.NumEdges(), f2.NumEdges())
	s.ctx = nil
	s.ctxErr = nil
	s.n2 = f2.NumVertices()
	cells := f1.NumVertices() * s.n2
	if cap(s.gains) < cells {
		s.gains = make([]int32, cells)
		s.lists = make([]span, cells)
	}
	s.gains = s.gains[:cells]
	s.lists = s.lists[:cells]
	clear(s.gains)
	clear(s.lists)
	s.pairs = append(s.pairs[:0], pair32{})
	s.replay = s.replay[:0]
	s.cands = s.cands[:0]

	if alive1 == nil && alive2 == nil && f1 == s.seedsFor1 && f2 == s.seedsFor2 {
		return
	}
	// The degree-product comparator is not a total order, so the tie
	// permutation depends on the sort implementation and its input
	// sequence; both must stay as they are for results to stay stable.
	s.seeds = s.seeds[:0]
	for v1 := int32(0); int(v1) < f1.NumVertices(); v1++ {
		if alive1 != nil && !alive1[v1] {
			continue
		}
		l1 := f1.Label(v1)
		for v2 := int32(0); int(v2) < f2.NumVertices(); v2++ {
			if alive2 != nil && !alive2[v2] {
				continue
			}
			if l1 == f2.Label(v2) {
				s.seeds = append(s.seeds, pair32{v1, v2})
			}
		}
	}
	sort.Slice(s.seeds, func(i, j int) bool {
		di := int(s.f1.Degree(s.seeds[i].v1)) * int(s.f2.Degree(s.seeds[i].v2))
		dj := int(s.f1.Degree(s.seeds[j].v1)) * int(s.f2.Degree(s.seeds[j].v2))
		return di > dj
	})
	if alive1 == nil && alive2 == nil {
		s.seedsFor1, s.seedsFor2 = f1, f2
	} else {
		s.seedsFor1, s.seedsFor2 = nil, nil
	}
}

// run tries every seed pair at the root, stopping once the best mapping
// reaches the smaller edge count, the budget runs out or ctx is done.
func (s *Searcher) run(ctx context.Context) {
	s.ctx = ctx
	for _, p := range s.seeds {
		mark := s.place(p, 0)
		s.extend(0, 0, mark)
		s.unplace(p, 0, mark)
		if s.bestEdge >= s.minE || s.nodes >= s.budget || s.ctxErr != nil {
			break
		}
	}
}

// place maps p, which adds gain common edges, and raises the gain cell of
// every pair on p's neighbour-pair list whose vertices are both unmapped,
// pushing each on the replay stack. It returns the stack's height before
// the push, for unplace.
func (s *Searcher) place(p pair32, gain int32) int {
	s.m12[p.v1] = p.v2
	s.m21[p.v2] = p.v1
	s.cur = append(s.cur, p)
	s.curEdges += int(gain)
	mark := len(s.replay)
	for _, q := range s.pairList(p) {
		if s.m12[q.v1] < 0 && s.m21[q.v2] < 0 {
			s.gains[int(q.v1)*s.n2+int(q.v2)]++
			s.replay = append(s.replay, q)
		}
	}
	return mark
}

// unplace undoes the latest placement still standing, p, whose place
// returned mark: it lowers the cells that place pushed and pops them.
func (s *Searcher) unplace(p pair32, gain int32, mark int) {
	for _, q := range s.replay[mark:] {
		s.gains[int(q.v1)*s.n2+int(q.v2)]--
	}
	s.replay = s.replay[:mark]
	s.m12[p.v1] = -1
	s.m21[p.v2] = -1
	s.cur = s.cur[:len(s.cur)-1]
	s.curEdges -= int(gain)
}

// pairList returns the neighbour-pair list of cell p, building it on the
// cell's first placement in the search.
func (s *Searcher) pairList(p pair32) []pair32 {
	l := &s.lists[int(p.v1)*s.n2+int(p.v2)]
	if l.hi == 0 {
		l.lo = int32(len(s.pairs))
		nb2 := s.f2.Neighbors(p.v2)
		for _, a := range s.f1.Neighbors(p.v1) {
			if s.alive1 != nil && !s.alive1[a] {
				continue
			}
			la := s.f1.Label(a)
			for _, b := range nb2 {
				if (s.alive2 == nil || s.alive2[b]) && la == s.f2.Label(b) {
					s.pairs = append(s.pairs, pair32{a, b})
				}
			}
		}
		l.hi = int32(len(s.pairs))
	}
	return s.pairs[l.lo:l.hi]
}

// extend expands the node whose mapping is s.cur. Its parent's candidates
// are s.cands[lo:hi], the top of the candidate stack, and the placement
// that made the node pushed s.replay[mark:].
func (s *Searcher) extend(lo, hi, mark int) {
	if s.ctx != nil && s.nodes&ctxCheckMask == ctxCheckMask && s.ctxErr == nil {
		if err := s.ctx.Err(); err != nil {
			s.ctxErr = err
		}
	}
	if s.ctxErr != nil {
		return
	}
	s.nodes++
	if s.curEdges > s.bestEdge {
		s.bestEdge = s.curEdges
		s.best = append(s.best[:0], s.cur...)
	}
	if s.nodes >= s.budget || s.bestEdge >= s.minE {
		return
	}

	end := s.candidates(lo, hi, mark)
	for i := hi; i < end; i++ {
		c := s.cands[i]
		m := s.place(c.p, c.g)
		s.extend(hi, end, m)
		s.unplace(c.p, c.g, m)
		if s.nodes >= s.budget || s.bestEdge >= s.minE || s.ctxErr != nil {
			break
		}
	}
	s.cands = s.cands[:hi]
}

// candidates pushes the node's candidate list on the candidate stack,
// above its parent's list s.cands[lo:hi], as the Searcher doc describes,
// ordered by gain descending then (V1, V2), and returns the stack's new
// height. Gains are read once here: the place/unplace pairs in the
// extension loop are balanced, so the mapping state when a candidate is
// tried equals the state it was listed under.
func (s *Searcher) candidates(lo, hi, mark int) int {
	p := s.cur[len(s.cur)-1]
	for i := lo; i < hi; i++ {
		if c := s.cands[i]; c.p.v1 != p.v1 && c.p.v2 != p.v2 {
			c.g = s.gains[int(c.p.v1)*s.n2+int(c.p.v2)]
			s.cands = append(s.cands, c)
		}
	}
	// The replay stack above mark holds each cell the placement raised
	// once; those now at 1 were at 0, so they are new to the list.
	for _, q := range s.replay[mark:] {
		if s.gains[int(q.v1)*s.n2+int(q.v2)] == 1 {
			s.cands = append(s.cands, cand{q, 1})
		}
	}
	// Insertion sort by (gain desc, v1 asc, v2 asc) — a strict total
	// order over distinct pairs, so any correct sort yields this sequence.
	// Only raised gains and the new cells are out of place, so the nearly
	// sorted list costs little, and nothing is allocated.
	out := s.cands[hi:]
	for i := 1; i < len(out); i++ {
		c := out[i]
		j := i - 1
		for j >= 0 && candLess(c, out[j]) {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = c
	}
	return len(s.cands)
}

func candLess(a, b cand) bool {
	if a.g != b.g {
		return a.g > b.g
	}
	if a.p.v1 != b.p.v1 {
		return a.p.v1 < b.p.v1
	}
	return a.p.v2 < b.p.v2
}

// exhausted reports whether the last search stopped at its node budget.
func (s *Searcher) exhausted() bool { return s.nodes >= s.budget }

// count records the last search on ctx's pipeline tracer: the nodes it
// expanded (CounterMCSNodes) and, if its node budget stopped it,
// CounterMCSBudgetExhausted.
func (s *Searcher) count(ctx context.Context) {
	tr := pipeline.From(ctx)
	if s.nodes > 0 {
		tr.Add(pipeline.CounterMCSNodes, int64(s.nodes))
	}
	if s.exhausted() {
		tr.Add(pipeline.CounterMCSBudgetExhausted, 1)
	}
}

// MCSCtx returns a maximum common subgraph (possibly disconnected),
// computed as a greedy union of MCCS components. Each round masks the
// vertices matched by earlier components and searches with the whole
// budget, as the legacyMCS oracle does, and is counted as one MCS call,
// with the nodes its search expanded. Cancellation is checked between
// (and inside) the component MCCS searches.
func MCSCtx(ctx context.Context, g1, g2 *graph.Graph, budget int) (Result, error) {
	if budget <= 0 {
		budget = DefaultBudget
	}
	f1, f2 := g1.Freeze(), g2.Freeze()
	alive1 := make([]bool, f1.NumVertices())
	alive2 := make([]bool, f2.NumVertices())
	for i := range alive1 {
		alive1[i] = true
	}
	for i := range alive2 {
		alive2[i] = true
	}
	s := searcherPool.Get().(*Searcher)
	defer searcherPool.Put(s)
	var all []Pair
	total := 0
	exhausted := false
	for {
		pipeline.From(ctx).Add(pipeline.CounterMCSCalls, 1)
		s.prepare(f1, f2, alive1, alive2, budget)
		s.run(ctx)
		if err := s.ctxErr; err != nil {
			return Result{}, err
		}
		s.count(ctx)
		exhausted = exhausted || s.exhausted()
		if s.bestEdge == 0 {
			break
		}
		total += s.bestEdge
		for _, p := range s.best {
			all = append(all, Pair{graph.VertexID(p.v1), graph.VertexID(p.v2)})
			alive1[p.v1] = false
			alive2[p.v2] = false
		}
	}
	return Result{Pairs: all, Edges: total, Exhausted: exhausted}, nil
}

// SimilarityMCCSCtx returns ωmccs(g1,g2) ∈ [0,1], with cooperative
// cancellation.
func SimilarityMCCSCtx(ctx context.Context, g1, g2 *graph.Graph, budget int) (float64, error) {
	m := min(g1.NumEdges(), g2.NumEdges())
	if m == 0 {
		return 0, nil
	}
	pipeline.From(ctx).Add(pipeline.CounterMCSCalls, 1)
	if budget <= 0 {
		budget = DefaultBudget
	}
	s := searcherPool.Get().(*Searcher)
	s.prepare(g1.Freeze(), g2.Freeze(), nil, nil, budget)
	s.run(ctx)
	edges, err := s.bestEdge, s.ctxErr
	if err == nil {
		s.count(ctx)
	}
	searcherPool.Put(s)
	if err != nil {
		return 0, err
	}
	return float64(edges) / float64(m), nil
}

// SimilarityMCSCtx returns ωmcs(g1,g2) ∈ [0,1], with cooperative
// cancellation.
func SimilarityMCSCtx(ctx context.Context, g1, g2 *graph.Graph, budget int) (float64, error) {
	m := min(g1.NumEdges(), g2.NumEdges())
	if m == 0 {
		return 0, nil
	}
	r, err := MCSCtx(ctx, g1, g2, budget)
	if err != nil {
		return 0, err
	}
	return float64(r.Edges) / float64(m), nil
}
