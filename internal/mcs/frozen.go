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

// Searcher is a reusable McGregor-style MCCS searcher over frozen (CSR)
// graphs. All per-search state — the two direction maps, the current and
// best mappings, the gain matrix, per-depth candidate and gain lists and
// the seed-pair list — lives in reusable buffers that grow monotonically,
// so a warm Searcher runs its inner loop (place/extend/unplace and the
// candidate lists) with zero allocations; repeated searches over the same
// frozen pair reuse the cached sorted seeds and allocate nothing at all. A
// Searcher is not safe for concurrent use; the package-level entry points
// draw from a sync.Pool.
//
// The candidate frontier is kept incrementally. The n1×n2 gain matrix
// holds, for every unmapped label-equal pair (a, b), the number of mapped
// pairs (x, y) with a~x and b~y: the common edges mapping (a, b) would
// add. place(x, y) raises the cells of x's and y's unmapped, alive,
// label-equal neighbour pairs and unplace lowers the same cells; because
// placements are undone in LIFO order, every unmapped cell is exact at
// every node. A node's candidates are its parent's list minus the pairs
// sharing a vertex with the pair just placed, plus the cells that
// placement raised from 0, with gains read from the matrix; insertion sort
// restores the order of the nearly sorted list.
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

	n2        int
	gains     []int32  // n1*n2 gain matrix, cell a*n2+b; exact for unmapped pairs
	fresh     []pair32 // cells the last place raised from 0, in raise order
	candStack [][]pair32
	gainStack [][]int32
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
// unchanged from the previous search.
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
	}
	s.gains = s.gains[:cells]
	clear(s.gains)

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
		s.place(p, 0)
		s.extend()
		s.unplace(p, 0)
		if s.bestEdge >= s.minE || s.nodes >= s.budget || s.ctxErr != nil {
			break
		}
	}
}

func (s *Searcher) place(p pair32, gain int) {
	s.m12[p.v1] = p.v2
	s.m21[p.v2] = p.v1
	s.cur = append(s.cur, p)
	s.curEdges += gain
	s.fresh = s.fresh[:0]
	s.bump(p, 1)
}

// unplace undoes place(p, gain), which must be the latest placement still
// standing: no other vertex changed state since, so the cells it lowers
// are the ones place raised.
func (s *Searcher) unplace(p pair32, gain int) {
	s.bump(p, -1)
	s.m12[p.v1] = -1
	s.m21[p.v2] = -1
	s.cur = s.cur[:len(s.cur)-1]
	s.curEdges -= gain
}

// bump adds d to the gain cell of every unmapped, alive, label-equal pair
// of neighbours of the mapped pair p. Raising, it records the cells that
// leave 0 in s.fresh.
func (s *Searcher) bump(p pair32, d int32) {
	nb2 := s.f2.Neighbors(p.v2)
	for _, a := range s.f1.Neighbors(p.v1) {
		if s.m12[a] >= 0 || s.alive1 != nil && !s.alive1[a] {
			continue
		}
		la, row := s.f1.Label(a), s.gains[int(a)*s.n2:]
		for _, b := range nb2 {
			if s.m21[b] >= 0 || s.alive2 != nil && !s.alive2[b] || la != s.f2.Label(b) {
				continue
			}
			row[b] += d
			if d > 0 && row[b] == 1 {
				s.fresh = append(s.fresh, pair32{a, b})
			}
		}
	}
}

func (s *Searcher) extend() {
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

	cands, gains := s.candidates()
	for i, c := range cands {
		g := int(gains[i])
		s.place(c, g)
		s.extend()
		s.unplace(c, g)
		if s.nodes >= s.budget || s.bestEdge >= s.minE || s.ctxErr != nil {
			return
		}
	}
}

// candidates derives the node's candidate list from its parent's, as the
// Searcher doc describes, with gains, ordered by gain descending then
// (V1, V2). Buffers are per-depth, so the parent's list stays intact while
// its children are explored, and gains are read once here: the
// place/unplace pairs in the extension loop are balanced, so the mapping
// state when a candidate is tried equals the state it was listed under.
func (s *Searcher) candidates() ([]pair32, []int32) {
	depth := len(s.cur)
	for len(s.candStack) <= depth {
		s.candStack = append(s.candStack, nil)
		s.gainStack = append(s.gainStack, nil)
	}
	out := s.candStack[depth][:0]
	gains := s.gainStack[depth][:0]
	p := s.cur[depth-1]
	for _, c := range s.candStack[depth-1] { // the root's list, [0], stays empty
		if c.v1 != p.v1 && c.v2 != p.v2 {
			out = append(out, c)
			gains = append(gains, s.gains[int(c.v1)*s.n2+int(c.v2)])
		}
	}
	for _, c := range s.fresh {
		out = append(out, c)
		gains = append(gains, s.gains[int(c.v1)*s.n2+int(c.v2)])
	}
	// Insertion sort by (gain desc, v1 asc, v2 asc) — a strict total
	// order over distinct pairs, so any correct sort yields this sequence.
	// Only raised gains and the fresh cells are out of place, so the
	// nearly sorted list costs little, and nothing is allocated.
	for i := 1; i < len(out); i++ {
		c, g := out[i], gains[i]
		j := i - 1
		for j >= 0 && candLess(c, g, out[j], gains[j]) {
			out[j+1], gains[j+1] = out[j], gains[j]
			j--
		}
		out[j+1], gains[j+1] = c, g
	}
	s.candStack[depth] = out
	s.gainStack[depth] = gains
	return out, gains
}

func candLess(a pair32, ga int32, b pair32, gb int32) bool {
	if ga != gb {
		return ga > gb
	}
	if a.v1 != b.v1 {
		return a.v1 < b.v1
	}
	return a.v2 < b.v2
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
// computed as a greedy union of MCCS components with the shared budget
// split across component searches. Cancellation is checked between (and
// inside) the component MCCS searches. Each round masks the vertices
// matched by earlier components and is counted as one MCS call, with the
// nodes its search expanded.
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
