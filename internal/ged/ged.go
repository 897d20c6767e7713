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
	"container/heap"
	"context"
	"sort"

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
	if d, ok := astar(a, b, budget); ok {
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
// counter.
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
		if resilience.GEDApprox(ctx) {
			d = Approx(p, c.g)
			resilience.Count(ctx, "ged_approx", 1)
		} else {
			d = Distance(p, c.g)
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

type astarNode struct {
	depth   int              // number of a-vertices decided
	mapping []graph.VertexID // a -> b or -1
	g       int              // cost so far
	f       int              // g + heuristic
	index   int              // heap bookkeeping
}

type nodeHeap []*astarNode

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].f < h[j].f }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *nodeHeap) Push(x interface{}) { n := x.(*astarNode); n.index = len(*h); *h = append(*h, n) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// astar runs A* over vertex-assignment prefixes. Returns (distance, true)
// on success or (0, false) if the budget was exhausted.
func astar(a, b *graph.Graph, budget int) (int, bool) {
	na, nb := a.NumVertices(), b.NumVertices()
	open := &nodeHeap{}
	heap.Init(open)
	root := &astarNode{mapping: make([]graph.VertexID, 0, na)}
	root.f = heuristic(a, b, root.mapping)
	heap.Push(open, root)
	expanded := 0
	for open.Len() > 0 {
		cur := heap.Pop(open).(*astarNode)
		if cur.depth == na {
			return cur.g + completionCost(a, b, cur.mapping), true
		}
		expanded++
		if expanded > budget {
			return 0, false
		}
		ai := graph.VertexID(cur.depth)
		usedB := make(map[graph.VertexID]bool, cur.depth)
		for _, bj := range cur.mapping {
			if bj >= 0 {
				usedB[bj] = true
			}
		}
		// Substitute ai -> every free b vertex.
		for j := 0; j < nb; j++ {
			bj := graph.VertexID(j)
			if usedB[bj] {
				continue
			}
			child := extend(a, b, cur, ai, bj)
			heap.Push(open, child)
		}
		// Delete ai.
		child := extend(a, b, cur, ai, -1)
		heap.Push(open, child)
	}
	return 0, false
}

// extend creates the child node for mapping ai -> bj (or deletion if
// bj < 0), computing the incremental cost.
func extend(a, b *graph.Graph, parent *astarNode, ai, bj graph.VertexID) *astarNode {
	fa, fb := a.Freeze(), b.Freeze()
	delta := 0
	if bj < 0 {
		delta++ // vertex deletion
		for _, an := range a.Neighbors(ai) {
			if int(an) < parent.depth {
				delta++ // incident a-edge to an already-decided vertex: deletion
			}
		}
	} else {
		if fa.Label(int32(ai)) != fb.Label(int32(bj)) {
			delta++
		}
		for _, an := range a.Neighbors(ai) {
			if int(an) < parent.depth {
				img := parent.mapping[an]
				if img < 0 || !fb.HasEdge(int32(bj), int32(img)) {
					delta++ // a-edge deleted
				}
			}
		}
		// b-edges from bj to earlier images with no matching a-edge are
		// insertions.
		for _, prevA := range decided(parent) {
			img := parent.mapping[prevA]
			if img >= 0 && fb.HasEdge(int32(bj), int32(img)) && !fa.HasEdge(int32(ai), int32(prevA)) {
				delta++
			}
		}
	}
	m := append(append(make([]graph.VertexID, 0, parent.depth+1), parent.mapping...), bj)
	child := &astarNode{depth: parent.depth + 1, mapping: m, g: parent.g + delta}
	if child.depth == a.NumVertices() {
		// Goal node: the completion cost (inserting unmatched b vertices
		// and their incident edges) is known exactly, so fold it into f.
		// Otherwise the first goal popped need not be optimal.
		child.f = child.g + completionCost(a, b, m)
	} else {
		child.f = child.g + heuristic(a, b, m)
	}
	return child
}

func decided(n *astarNode) []graph.VertexID {
	out := make([]graph.VertexID, n.depth)
	for i := range out {
		out[i] = graph.VertexID(i)
	}
	return out
}

// completionCost finishes a full a-assignment: inserts unmatched b vertices
// and every b edge with at least one unmatched endpoint.
func completionCost(a, b *graph.Graph, mapping []graph.VertexID) int {
	matched := make([]bool, b.NumVertices())
	for _, bj := range mapping {
		if bj >= 0 {
			matched[bj] = true
		}
	}
	cost := 0
	for j := range matched {
		if !matched[j] {
			cost++
		}
	}
	for _, e := range b.Edges() {
		if !matched[e.U] || !matched[e.V] {
			cost++
		}
	}
	return cost
}

// heuristic is an admissible estimate of the remaining cost: the
// label-multiset mismatch between undecided a-vertices and unmatched
// b-vertices (each mismatch costs at least one relabel/insert/delete).
// Edge costs are not estimated (0 is admissible).
func heuristic(a, b *graph.Graph, mapping []graph.VertexID) int {
	fa, fb := a.Freeze(), b.Freeze()
	depth := len(mapping)
	remA := make(map[graph.LabelID]int32)
	for i := depth; i < fa.NumVertices(); i++ {
		remA[fa.Label(int32(i))]++
	}
	remB := make(map[graph.LabelID]int32)
	matched := make(map[graph.VertexID]bool, depth)
	for _, bj := range mapping {
		if bj >= 0 {
			matched[bj] = true
		}
	}
	for j := 0; j < fb.NumVertices(); j++ {
		if !matched[graph.VertexID(j)] {
			remB[fb.Label(int32(j))]++
		}
	}
	nA, nB := 0, 0
	for _, c := range remA {
		nA += int(c)
	}
	for _, c := range remB {
		nB += int(c)
	}
	inter := multisetIntersectionID(remA, remB)
	return absInt(nA-nB) + minInt(nA, nB) - inter
}
