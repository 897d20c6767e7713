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
// best mappings, per-depth candidate and gain buffers, the candidate-dedup
// bitset and the seed-pair list — lives in reusable buffers that grow
// monotonically, so a warm Searcher runs its inner loop (candidate
// enumeration, gain counting, insertion sort, place/extend/unplace) with
// zero allocations; repeated searches over the same frozen pair reuse the
// cached sorted seeds and allocate nothing at all. A Searcher is not safe
// for concurrent use; the package-level entry points draw from a
// sync.Pool.
//
// The exploration order is fixed: seed pairs are enumerated in (v1, v2)
// order and sorted by degree product with sort.Slice; candidates are
// dedup'd to their first-occurrence order and then ordered by the strict
// total order (gain desc, V1 asc, V2 asc). Budget-exhausted results depend
// on that order, so the test suite checks them, with every other result,
// against an MCCS oracle on the mutable graph representation.
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

	candStack [][]pair32
	gainStack [][]int32
	seen      []uint64 // n1*n2 dedup bitset scratch
}

// NewSearcher returns an empty searcher ready for use.
func NewSearcher() *Searcher { return new(Searcher) }

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
}

func (s *Searcher) unplace(p pair32, gain int) {
	s.m12[p.v1] = -1
	s.m21[p.v2] = -1
	s.cur = s.cur[:len(s.cur)-1]
	s.curEdges -= gain
}

// gain counts common edges created by adding pair p to the current
// mapping.
func (s *Searcher) gain(p pair32) int32 {
	var g int32
	for _, n1 := range s.f1.Neighbors(p.v1) {
		if img := s.m12[n1]; img >= 0 && s.f2.HasEdge(p.v2, img) {
			g++
		}
	}
	return g
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
	for i := range cands {
		c, g := cands[i], gains[i]
		if g == 0 {
			continue // adjacency-connected candidates always gain >= 1
		}
		s.place(c, int(g))
		s.extend()
		s.unplace(c, int(g))
		if s.nodes >= s.budget || s.bestEdge >= s.minE || s.ctxErr != nil {
			return
		}
	}
}

// candidates enumerates unmapped label-compatible pairs adjacent (in both
// graphs) to the current mapping, with their gains, ordered by gain
// descending then (V1, V2). Buffers are per-depth so recursive calls
// don't clobber the caller's slice. Gains are computed once here: the
// place/unplace pairs in the extension loop are balanced, so the mapping
// state when a candidate is tried equals the state it was enumerated
// under.
func (s *Searcher) candidates() ([]pair32, []int32) {
	depth := len(s.cur)
	for len(s.candStack) <= depth {
		s.candStack = append(s.candStack, nil)
		s.gainStack = append(s.gainStack, nil)
	}
	out := s.candStack[depth][:0]
	n2 := s.f2.NumVertices()
	words := (s.f1.NumVertices()*n2 + 63) / 64
	if cap(s.seen) < words {
		s.seen = make([]uint64, words)
	}
	seen := s.seen[:words]
	for i := range seen {
		seen[i] = 0
	}
	for _, mp := range s.cur {
		for _, n1 := range s.f1.Neighbors(mp.v1) {
			if s.m12[n1] >= 0 {
				continue
			}
			if s.alive1 != nil && !s.alive1[n1] {
				continue
			}
			l1 := s.f1.Label(n1)
			for _, nb2 := range s.f2.Neighbors(mp.v2) {
				if s.m21[nb2] >= 0 {
					continue
				}
				if s.alive2 != nil && !s.alive2[nb2] {
					continue
				}
				if l1 != s.f2.Label(nb2) {
					continue
				}
				bit := int(n1)*n2 + int(nb2)
				if seen[bit>>6]&(1<<(uint(bit)&63)) != 0 {
					continue
				}
				seen[bit>>6] |= 1 << (uint(bit) & 63)
				out = append(out, pair32{n1, nb2})
			}
		}
	}

	gains := s.gainStack[depth][:0]
	for _, c := range out {
		gains = append(gains, s.gain(c))
	}
	// Insertion sort by (gain desc, v1 asc, v2 asc) — a strict total
	// order over the dedup'd pairs, so any correct sort yields this
	// sequence; insertion sort does it without allocating.
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

// SimilarityMCCS returns ωmccs(f1,f2) within the given node budget
// (DefaultBudget if budget <= 0), reusing the searcher's scratch. Zero
// allocations once the scratch is warm and the frozen pair repeats.
func (s *Searcher) SimilarityMCCS(f1, f2 *graph.Frozen, budget int) float64 {
	m := min(f1.NumEdges(), f2.NumEdges())
	if m == 0 {
		return 0
	}
	if budget <= 0 {
		budget = DefaultBudget
	}
	s.prepare(f1, f2, nil, nil, budget)
	s.run(nil)
	return float64(s.bestEdge) / float64(m)
}

// exhausted reports whether the last search stopped at its node budget.
func (s *Searcher) exhausted() bool { return s.nodes >= s.budget }

// countExhausted counts a search stopped by its node budget on ctx's
// pipeline tracer (CounterMCSBudgetExhausted).
func (s *Searcher) countExhausted(ctx context.Context) {
	if s.exhausted() {
		pipeline.From(ctx).Add(pipeline.CounterMCSBudgetExhausted, 1)
	}
}

func (s *Searcher) result() Result {
	var pairs []Pair
	if len(s.best) > 0 {
		pairs = make([]Pair, len(s.best))
		for i, p := range s.best {
			pairs[i] = Pair{graph.VertexID(p.v1), graph.VertexID(p.v2)}
		}
	}
	return Result{Pairs: pairs, Edges: s.bestEdge, Exhausted: s.exhausted()}
}

// MCCSCtx returns a maximum connected common subgraph of g1 and g2 within
// the given node budget (DefaultBudget if budget <= 0), with cooperative
// cancellation: the backtracking search polls ctx at node-expansion
// boundaries and returns ctx.Err() when cancelled. Each call is counted on
// the context's pipeline tracer (CounterMCSCalls), and a search stopped by
// its node budget also as CounterMCSBudgetExhausted. Both graphs are
// frozen on first use (memoized on the graphs) and the search runs on the
// CSR form.
func MCCSCtx(ctx context.Context, g1, g2 *graph.Graph, budget int) (Result, error) {
	pipeline.From(ctx).Add(pipeline.CounterMCSCalls, 1)
	if budget <= 0 {
		budget = DefaultBudget
	}
	s := searcherPool.Get().(*Searcher)
	s.prepare(g1.Freeze(), g2.Freeze(), nil, nil, budget)
	s.run(ctx)
	if err := s.ctxErr; err != nil {
		searcherPool.Put(s)
		return Result{}, err
	}
	s.countExhausted(ctx)
	r := s.result()
	searcherPool.Put(s)
	return r, nil
}

// MCSCtx returns a maximum common subgraph (possibly disconnected),
// computed as a greedy union of MCCS components with the shared budget
// split across component searches. Cancellation is checked between (and
// inside) the component MCCS searches. Each round masks the vertices
// matched by earlier components and is counted as one MCS call.
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
		s.countExhausted(ctx)
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
		s.countExhausted(ctx)
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
