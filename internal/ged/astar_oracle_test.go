package ged

// The map-based A* that the array search replaced, kept as the oracle of
// TestAStarMatchesLegacy: a heap of node pointers through container/heap,
// a fresh mapping slice per child, and a heuristic that builds three maps
// per node.

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

type legacyNode struct {
	depth   int              // number of a-vertices decided
	mapping []graph.VertexID // a -> b or -1
	g       int              // cost so far
	f       int              // g + heuristic
	index   int              // heap bookkeeping
}

type legacyHeap []*legacyNode

func (h legacyHeap) Len() int            { return len(h) }
func (h legacyHeap) Less(i, j int) bool  { return h[i].f < h[j].f }
func (h legacyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *legacyHeap) Push(x interface{}) { n := x.(*legacyNode); n.index = len(*h); *h = append(*h, n) }
func (h *legacyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// legacyAstar runs A* over vertex-assignment prefixes. It returns
// (distance, true) on success or (0, false) if the budget was exhausted,
// with the expansion count.
func legacyAstar(a, b *graph.Graph, budget int) (int, bool, int) {
	na, nb := a.NumVertices(), b.NumVertices()
	open := &legacyHeap{}
	heap.Init(open)
	root := &legacyNode{mapping: make([]graph.VertexID, 0, na)}
	root.f = legacyHeuristic(a, b, root.mapping)
	heap.Push(open, root)
	expanded := 0
	for open.Len() > 0 {
		cur := heap.Pop(open).(*legacyNode)
		if cur.depth == na {
			return cur.g + legacyCompletionCost(a, b, cur.mapping), true, expanded
		}
		expanded++
		if expanded > budget {
			return 0, false, expanded
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
			child := legacyExtend(a, b, cur, ai, bj)
			heap.Push(open, child)
		}
		// Delete ai.
		child := legacyExtend(a, b, cur, ai, -1)
		heap.Push(open, child)
	}
	return 0, false, expanded
}

// legacyExtend creates the child node for mapping ai -> bj (or deletion if
// bj < 0), computing the incremental cost.
func legacyExtend(a, b *graph.Graph, parent *legacyNode, ai, bj graph.VertexID) *legacyNode {
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
		for _, prevA := range legacyDecided(parent) {
			img := parent.mapping[prevA]
			if img >= 0 && fb.HasEdge(int32(bj), int32(img)) && !fa.HasEdge(int32(ai), int32(prevA)) {
				delta++
			}
		}
	}
	m := append(append(make([]graph.VertexID, 0, parent.depth+1), parent.mapping...), bj)
	child := &legacyNode{depth: parent.depth + 1, mapping: m, g: parent.g + delta}
	if child.depth == a.NumVertices() {
		// Goal node: the completion cost (inserting unmatched b vertices
		// and their incident edges) is known exactly, so fold it into f.
		// Otherwise the first goal popped need not be optimal.
		child.f = child.g + legacyCompletionCost(a, b, m)
	} else {
		child.f = child.g + legacyHeuristic(a, b, m)
	}
	return child
}

func legacyDecided(n *legacyNode) []graph.VertexID {
	out := make([]graph.VertexID, n.depth)
	for i := range out {
		out[i] = graph.VertexID(i)
	}
	return out
}

// legacyCompletionCost finishes a full a-assignment: inserts unmatched b vertices
// and every b edge with at least one unmatched endpoint.
func legacyCompletionCost(a, b *graph.Graph, mapping []graph.VertexID) int {
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

// legacyHeuristic is an admissible estimate of the remaining cost: the
// label-multiset mismatch between undecided a-vertices and unmatched
// b-vertices (each mismatch costs at least one relabel/insert/delete).
// Edge costs are not estimated (0 is admissible).
func legacyHeuristic(a, b *graph.Graph, mapping []graph.VertexID) int {
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

// randomLabeledPair draws two random connected graphs of 1..maxN vertices
// over a small label alphabet, so label collisions and ties are common.
func randomLabeledPair(r *rand.Rand, maxN int) (*graph.Graph, *graph.Graph) {
	draw := func() *graph.Graph {
		n := 1 + r.Intn(maxN)
		maxM := n * (n - 1) / 2
		m := n - 1
		if maxM > m {
			m += r.Intn(min(maxM-m, n) + 1)
		}
		return randomConnectedGraph(r, n, m)
	}
	return draw(), draw()
}

// TestAStarMatchesLegacy checks the array A* against the map-based search
// it replaced: the same distance, exact flag and expansion count at
// budgets from 1 to the default, so searches that exhaust their budget
// stop at the same node and fall back exactly as before.
func TestAStarMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	exhausted := 0
	for i := 0; i < 300; i++ {
		a, b := randomLabeledPair(rng, 8)
		for _, budget := range []int{1, 50, 500, DefaultBudget} {
			d, ok, n := astar(a, b, budget)
			wd, wok, wn := legacyAstar(a, b, budget)
			if d != wd || ok != wok || n != wn {
				t.Fatalf("pair %d budget %d: astar = (%d, %v, %d expanded), legacy (%d, %v, %d)\n a: %v\n b: %v",
					i, budget, d, ok, n, wd, wok, wn, a, b)
			}
			if !ok {
				exhausted++
			}
		}
	}
	if exhausted == 0 {
		t.Error("no search exhausted its budget; the fallback path went unexercised")
	}
	// The empty graph on either side.
	empty := graph.New(0, 0)
	g := path("C", "N", "O")
	for _, pair := range [][2]*graph.Graph{{empty, g}, {g, empty}, {empty, empty}} {
		d, ok, n := astar(pair[0], pair[1], 10)
		wd, wok, wn := legacyAstar(pair[0], pair[1], 10)
		if d != wd || ok != wok || n != wn {
			t.Fatalf("empty pair: astar = (%d, %v, %d), legacy (%d, %v, %d)", d, ok, n, wd, wok, wn)
		}
	}
}
