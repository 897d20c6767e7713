// Package ged computes graph edit distances, used by the paper to measure
// pattern diversity: div(p, P\p) = min GED(p, pi) (Sec 3.2).
//
// Three computations are provided:
//
//   - LowerBound: the GEDl of Definition 5.1 — exact vertex-modification
//     count plus minimum edge-modification count. Always a lower bound.
//   - Approx: the bipartite (assignment-based) approximation of Riesen,
//     Neuhaus & Bunke (the paper's reference [32]). A Hungarian assignment
//     over vertices with local edge-structure costs produces a vertex
//     mapping whose induced edit cost is reported; this is always an upper
//     bound on the true GED.
//   - Exact: A* search over vertex assignments with an admissible
//     label-multiset heuristic and a node budget; falls back to Approx when
//     the budget is exhausted.
//
// The cost model is the standard unit model: vertex insertion, deletion and
// relabeling cost 1; edge insertion and deletion cost 1 (edges carry no
// independent labels in the paper's data model).
package ged

import (
	"context"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// LowerBound returns GEDl(a, b) per Definition 5.1:
//
//	|V| = ||VA|-|VB|| + Min(|VA|,|VB|) - |L(VA) ∩ L(VB)|
//	|E| = ||EA|-|EB||
//	GEDl = |V| + |E|
//
// where the label intersection is over multisets.
func LowerBound(a, b *graph.Graph) int {
	na, nb := a.NumVertices(), b.NumVertices()
	ea, eb := a.NumEdges(), b.NumEdges()
	inter := multisetIntersectionID(a.Freeze().LabelCounts(), b.Freeze().LabelCounts())
	vPart := absInt(na-nb) + minInt(na, nb) - inter
	ePart := absInt(ea - eb)
	return vPart + ePart
}

// multisetIntersectionID sizes the intersection of two LabelID multisets.
// Label comparisons throughout this package are pure equality tests, so
// interned IDs give the same answers as strings.
func multisetIntersectionID(a, b map[graph.LabelID]int32) int {
	total := 0
	for l, ca := range a {
		if cb, ok := b[l]; ok {
			if cb < ca {
				ca = cb
			}
			total += int(ca)
		}
	}
	return total
}

// Approx returns the bipartite-matching approximation of GED(a, b). The
// result is an upper bound on the exact distance.
func Approx(a, b *graph.Graph) int {
	mapping := bipartiteAssignment(a, b)
	return inducedCost(a, b, mapping)
}

// Exact returns GED(a, b) computed by A* within the given node budget
// (DefaultBudget if budget <= 0). If the budget is exhausted the bipartite
// approximation is returned instead, with exact=false.
func Exact(a, b *graph.Graph, budget int) (dist int, exact bool) {
	if budget <= 0 {
		budget = DefaultBudget
	}
	if d, ok, _ := astar(a, b, budget); ok {
		return d, true
	}
	return Approx(a, b), false
}

// DefaultBudget bounds the number of A* nodes expanded per exact GED
// computation.
const DefaultBudget = 20000

// exactSizeLimit is the combined vertex count above which Distance skips
// the A* attempt entirely: beyond it the budget is nearly always exhausted
// and the attempt is wasted work. The paper itself computes diversity with
// the bipartite approximation [32], so falling back early is faithful.
const exactSizeLimit = 14

// Distance is the package's recommended entry point: exact A* for small
// graphs, the bipartite approximation beyond exactSizeLimit or when the
// node budget runs out. The returned value is always >= LowerBound(a, b).
func Distance(a, b *graph.Graph) int {
	if a.NumVertices()+b.NumVertices() > exactSizeLimit {
		return Approx(a, b)
	}
	d, _ := Exact(a, b, 0)
	return d
}

// MinDistanceCtx returns min over ps of GED(p, pi), implementing the pruned
// loop of Sec 5: candidates are sorted by their GED lower bound and the
// exact computation is skipped for any pattern whose lower bound already
// exceeds the best distance found. It returns the minimum distance and the
// number of full GED computations performed (for instrumentation). If ps is
// empty it returns (0, 0) — by convention the first pattern added to an
// empty set has no diversity constraint. Cancellation is checked before
// each full GED computation, and full computations are counted on the
// context's pipeline tracer (CounterGEDCalls).
//
// Under a resilience controller whose selection soft budget is running out
// (resilience.GEDApprox), each Distance call is downgraded from the
// exact-A*-with-fallback entry point to the bipartite approximation
// directly — the paper's own diversity measure [32] — trading tightness for
// bounded per-call cost; downgrades are tallied as the ged_approx health
// counter. Every other computation is counted by its outcome: exact A*
// (CounterGEDExact), A* out of budget (CounterGEDBudgetExhausted) or above
// the exact size limit (CounterGEDSizeLimit).
func MinDistanceCtx(ctx context.Context, p *graph.Graph, ps []*graph.Graph) (minDist, fullComputations int, err error) {
	if len(ps) == 0 {
		return 0, 0, nil
	}
	type cand struct {
		g  *graph.Graph
		lb int
	}
	cands := make([]cand, len(ps))
	for i, q := range ps {
		cands[i] = cand{q, LowerBound(p, q)}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lb < cands[j].lb })
	tr := pipeline.From(ctx)
	best := -1
	n := 0
	for _, c := range cands {
		if best >= 0 && c.lb >= best {
			break // remaining lower bounds are >= best: prune all
		}
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return 0, n, cerr
			}
		}
		var d int
		switch {
		case resilience.GEDApprox(ctx):
			d = Approx(p, c.g)
			resilience.Count(ctx, "ged_approx", 1)
		case p.NumVertices()+c.g.NumVertices() > exactSizeLimit:
			d = Approx(p, c.g)
			tr.Add(pipeline.CounterGEDSizeLimit, 1)
		default:
			var exact bool
			d, exact = Exact(p, c.g, 0)
			if exact {
				tr.Add(pipeline.CounterGEDExact, 1)
			} else {
				tr.Add(pipeline.CounterGEDBudgetExhausted, 1)
			}
		}
		n++
		tr.Add(pipeline.CounterGEDCalls, 1)
		if best < 0 || d < best {
			best = d
		}
		if best == 0 {
			break
		}
	}
	return best, n, nil
}

// ---------------------------------------------------------------------------
// Bipartite approximation (Riesen/Neuhaus/Bunke).

// bipartiteAssignment builds the (na+nb)×(na+nb) cost matrix with local
// edge-structure estimates and solves it with the Hungarian algorithm.
// The returned slice maps each vertex of a to a vertex of b, or -1 for
// deletion.
func bipartiteAssignment(a, b *graph.Graph) []graph.VertexID {
	fa, fb := a.Freeze(), b.Freeze()
	na, nb := a.NumVertices(), b.NumVertices()
	n := na + nb
	const inf = 1 << 30
	cost := make([][]int, n)
	for i := range cost {
		cost[i] = make([]int, n)
	}
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			c := 0
			if fa.Label(int32(i)) != fb.Label(int32(j)) {
				c = 1
			}
			// Local edge structure: at least |deg difference| edge edits.
			c += absInt(int(fa.Degree(int32(i))) - int(fb.Degree(int32(j))))
			cost[i][j] = c
		}
	}
	// Deletions: a_i -> eps_j diagonal blocks.
	for i := 0; i < na; i++ {
		for j := 0; j < na; j++ {
			if i == j {
				cost[i][nb+j] = 1 + int(fa.Degree(int32(i)))
			} else {
				cost[i][nb+j] = inf
			}
		}
	}
	// Insertions: eps_i -> b_j.
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			if i == j {
				cost[na+i][j] = 1 + int(fb.Degree(int32(j)))
			} else {
				cost[na+i][j] = inf
			}
		}
	}
	// eps -> eps is free.
	assign := hungarian(cost)
	mapping := make([]graph.VertexID, na)
	for i := 0; i < na; i++ {
		if assign[i] < nb {
			mapping[i] = graph.VertexID(assign[i])
		} else {
			mapping[i] = -1
		}
	}
	return mapping
}

// inducedCost computes the exact edit cost of applying the given vertex
// mapping (a -> b or -1 for delete; unmatched b vertices are inserted).
func inducedCost(a, b *graph.Graph, mapping []graph.VertexID) int {
	fa, fb := a.Freeze(), b.Freeze()
	cost := 0
	matchedB := make([]bool, b.NumVertices())
	for i, bj := range mapping {
		if bj < 0 {
			cost++ // vertex deletion
			continue
		}
		matchedB[bj] = true
		if fa.Label(int32(i)) != fb.Label(int32(bj)) {
			cost++ // relabel
		}
	}
	for j := range matchedB {
		if !matchedB[j] {
			cost++ // vertex insertion
		}
	}
	// Edge deletions / matches: edges of a.
	for _, e := range a.Edges() {
		bu, bv := mapping[e.U], mapping[e.V]
		if bu < 0 || bv < 0 || !fb.HasEdge(int32(bu), int32(bv)) {
			cost++ // edge deleted (or re-created later as insertion? no:
			// an a-edge with no image edge is exactly one deletion)
		}
	}
	// Edge insertions: edges of b not covered by an a-edge image.
	inv := make([]graph.VertexID, b.NumVertices())
	for j := range inv {
		inv[j] = -1
	}
	for i, bj := range mapping {
		if bj >= 0 {
			inv[bj] = graph.VertexID(i)
		}
	}
	for _, e := range b.Edges() {
		au, av := inv[e.U], inv[e.V]
		if au < 0 || av < 0 || !fa.HasEdge(int32(au), int32(av)) {
			cost++
		}
	}
	return cost
}

// hungarian solves the square assignment problem, returning for each row
// the assigned column. O(n^3) implementation of the Kuhn-Munkres algorithm
// (potentials + augmenting paths).
func hungarian(cost [][]int) []int {
	n := len(cost)
	if n == 0 {
		return nil
	}
	const inf = 1 << 40
	u := make([]int64, n+1)
	v := make([]int64, n+1)
	p := make([]int, n+1) // p[j] = row assigned to column j (1-based)
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]int64, n+1)
		used := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			var delta int64 = inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := int64(cost[i0-1][j-1]) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	assign := make([]int, n)
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
		}
	}
	return assign
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Exact A*.

// astarNode is one vertex-assignment prefix of the A* search: a-vertices
// 0..depth-1 are decided. The mapping itself is not stored; a node keeps
// its parent's arena index and the image of its last a-vertex (-1 for
// deletion), and expansion reads the prefix back along the parent chain.
type astarNode struct {
	parent int32
	img    int32
	depth  int32
	g      int32 // cost so far
	f      int32 // g + heuristic
}

// astarScratch is the per-call state of one search, pooled across calls.
type astarScratch struct {
	nodes      []astarNode // arena; the root is node 0
	open       []int32     // min-heap of arena indices by f
	mapping    []int32     // prefix of the node being expanded
	used       []bool      // b-vertex is an image in that prefix
	labA, labB []int32     // per-call label IDs
	adjA, adjB []bool      // adjacency matrices, row-major
	remA, remB []int32     // label counts of undecided a / unmatched b vertices
	inter      int         // multiset intersection of remA and remB
	nUsed      int         // number of true entries of used
	labels     []graph.LabelID
}

var astarPool = sync.Pool{New: func() any { return new(astarScratch) }}

// less, up, down, push and pop reproduce container/heap's sift order on
// the arena indices, so nodes of equal f pop in the same order as they
// would from a container/heap of node pointers.
func (s *astarScratch) less(i, j int) bool { return s.nodes[s.open[i]].f < s.nodes[s.open[j]].f }

func (s *astarScratch) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !s.less(j, i) {
			break
		}
		s.open[i], s.open[j] = s.open[j], s.open[i]
		j = i
	}
}

func (s *astarScratch) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2 // right child
		}
		if !s.less(j, i) {
			break
		}
		s.open[i], s.open[j] = s.open[j], s.open[i]
		i = j
	}
}

func (s *astarScratch) push(n astarNode) {
	s.nodes = append(s.nodes, n)
	s.open = append(s.open, int32(len(s.nodes)-1))
	s.up(len(s.open) - 1)
}

func (s *astarScratch) pop() int32 {
	n := len(s.open) - 1
	s.open[0], s.open[n] = s.open[n], s.open[0]
	s.down(0, n)
	top := s.open[n]
	s.open = s.open[:n]
	return top
}

// prepare sizes the scratch for a search between fa and fb: label IDs
// numbered from 0 across both graphs, adjacency matrices, an empty arena
// and heap.
func (s *astarScratch) prepare(fa, fb *graph.Frozen) {
	na, nb := fa.NumVertices(), fb.NumVertices()
	s.labels = s.labels[:0]
	id := func(l graph.LabelID) int32 {
		for i, x := range s.labels {
			if x == l {
				return int32(i)
			}
		}
		s.labels = append(s.labels, l)
		return int32(len(s.labels) - 1)
	}
	s.labA, s.labB = resize(s.labA, na), resize(s.labB, nb)
	for i := range s.labA {
		s.labA[i] = id(fa.Label(int32(i)))
	}
	for j := range s.labB {
		s.labB[j] = id(fb.Label(int32(j)))
	}
	s.adjA, s.adjB = adjacency(s.adjA, fa), adjacency(s.adjB, fb)
	s.remA, s.remB = resize(s.remA, len(s.labels)), resize(s.remB, len(s.labels))
	s.used = resize(s.used, nb)
	clear(s.used)
	s.nUsed = 0
	s.mapping = s.mapping[:0]
	s.nodes, s.open = s.nodes[:0], s.open[:0]
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// adjacency fills an n×n row-major adjacency matrix of f.
func adjacency(m []bool, f *graph.Frozen) []bool {
	n := f.NumVertices()
	m = resize(m, n*n)
	clear(m)
	for v := 0; v < n; v++ {
		for _, w := range f.Neighbors(int32(v)) {
			m[v*n+int(w)] = true
		}
	}
	return m
}

// load reads node k's prefix into s.mapping and s.used.
func (s *astarScratch) load(k int32) {
	for _, bj := range s.mapping {
		if bj >= 0 {
			s.used[bj] = false
		}
	}
	s.nUsed = 0
	s.mapping = resize(s.mapping, int(s.nodes[k].depth))
	for ; s.nodes[k].depth > 0; k = s.nodes[k].parent {
		n := s.nodes[k]
		s.mapping[n.depth-1] = n.img
		if n.img >= 0 {
			s.used[n.img] = true
			s.nUsed++
		}
	}
}

// completionCost finishes a full a-assignment whose matched b-vertices
// are s.used plus extra (when extra >= 0): it inserts the unmatched
// b-vertices and every b-edge with an unmatched endpoint.
func (s *astarScratch) completionCost(fb *graph.Frozen, extra int32) int {
	matched := func(j int32) bool { return s.used[j] || j == extra }
	cost := 0
	nb := int32(fb.NumVertices())
	for j := int32(0); j < nb; j++ {
		if !matched(j) {
			cost++
		}
	}
	for u := int32(0); u < nb; u++ {
		for _, v := range fb.Neighbors(u) {
			if u < v && (!matched(u) || !matched(v)) {
				cost++
			}
		}
	}
	return cost
}

// astar runs A* over vertex-assignment prefixes, a-vertices decided in
// index order, each mapped to a free b-vertex or deleted. It returns
// (distance, true) on success or (0, false) if the budget was exhausted,
// and the number of nodes expanded.
//
// The heuristic is admissible: the label-multiset mismatch between
// undecided a-vertices and unmatched b-vertices, each mismatch costing at
// least one relabel, insertion or deletion (edge costs are not estimated).
// A goal node's completion cost is known exactly and folded into its f,
// so the first goal popped is optimal.
func astar(a, b *graph.Graph, budget int) (int, bool, int) {
	fa, fb := a.Freeze(), b.Freeze()
	na, nb := fa.NumVertices(), fb.NumVertices()
	s := astarPool.Get().(*astarScratch)
	defer astarPool.Put(s)
	s.prepare(fa, fb)

	s.countRemaining(0)
	s.push(astarNode{parent: -1, img: -1, f: int32(s.heuristic(0, -1))})
	expanded := 0
	for len(s.open) > 0 {
		k := s.pop()
		cur := s.nodes[k]
		s.load(k)
		if int(cur.depth) == na {
			return int(cur.g) + s.completionCost(fb, -1), true, expanded
		}
		expanded++
		if expanded > budget {
			return 0, false, expanded
		}
		ai := cur.depth
		d := int(ai)
		// Cost of a-edges from ai back to decided vertices.
		backA := 0
		for _, an := range fa.Neighbors(ai) {
			if int(an) < d {
				backA++
			}
		}
		goal := d+1 == na
		h := func(bj int32) int32 {
			if goal {
				return int32(s.completionCost(fb, bj))
			}
			return int32(s.heuristic(d+1, bj))
		}
		if !goal {
			s.countRemaining(d + 1)
		}
		// Substitute ai -> every free b vertex.
		for bj := int32(0); bj < int32(nb); bj++ {
			if s.used[bj] {
				continue
			}
			delta := int32(0)
			if s.labA[ai] != s.labB[bj] {
				delta++
			}
			for _, an := range fa.Neighbors(ai) {
				if int(an) < d {
					if img := s.mapping[an]; img < 0 || !s.adjB[int(bj)*nb+int(img)] {
						delta++ // a-edge deleted
					}
				}
			}
			// b-edges from bj to earlier images with no matching a-edge
			// are insertions.
			for prevA, img := range s.mapping {
				if img >= 0 && s.adjB[int(bj)*nb+int(img)] && !s.adjA[d*na+prevA] {
					delta++
				}
			}
			g := cur.g + delta
			s.push(astarNode{parent: k, img: bj, depth: ai + 1, g: g, f: g + h(bj)})
		}
		// Delete ai.
		g := cur.g + 1 + int32(backA)
		s.push(astarNode{parent: k, img: -1, depth: ai + 1, g: g, f: g + h(-1)})
	}
	return 0, false, expanded
}

// countRemaining fills s.remA with the labels of a-vertices depth.. and
// s.remB with the labels of b-vertices unmatched in s.used, and sizes the
// multiset intersection of the two in s.inter.
func (s *astarScratch) countRemaining(depth int) {
	clear(s.remA)
	clear(s.remB)
	for _, l := range s.labA[depth:] {
		s.remA[l]++
	}
	for j, l := range s.labB {
		if !s.used[j] {
			s.remB[l]++
		}
	}
	s.inter = 0
	for l, ca := range s.remA {
		s.inter += int(min(ca, s.remB[l]))
	}
}

// heuristic estimates the remaining cost of a child whose a-vertices
// depth.. are undecided and whose matched b-vertices are those of s.used
// plus extra (when extra >= 0), from the counts of countRemaining(depth).
func (s *astarScratch) heuristic(depth int, extra int32) int {
	nA := len(s.labA) - depth
	nB := len(s.labB) - s.nUsed
	inter := s.inter
	if extra >= 0 {
		// extra leaves the unmatched b-vertices: one fewer of its label,
		// which shrinks the intersection unless b had that label in
		// surplus.
		nB--
		if l := s.labB[extra]; s.remB[l] <= s.remA[l] {
			inter--
		}
	}
	return absInt(nA-nB) + minInt(nA, nB) - inter
}
