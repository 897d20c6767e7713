package mcs

import (
	"sort"

	"repro/internal/graph"
)

// legacySearcher is the MCCS oracle the differential tests and the graph
// bench gate check the Searcher against: the same McGregor-style search on
// the mutable graph representation, with string label comparisons,
// per-node candidate allocation and map-based dedup. It explores the same
// search tree in the same order as the Searcher, so results — including
// budget-exhausted suboptimal ones — must agree exactly.
type legacySearcher struct {
	g1, g2   *graph.Graph
	m12      []graph.VertexID // g1 -> g2, -1 unmapped
	m21      []graph.VertexID // g2 -> g1, -1 unmapped
	cur      []Pair
	curEdges int
	best     []Pair
	bestEdge int
	budget   int
	nodes    int
	minE     int
}

// legacyMCCS is the oracle for the Searcher (mccsCtx).
func legacyMCCS(g1, g2 *graph.Graph, budget int) Result {
	r, _ := legacyMCCSNodes(g1, g2, budget)
	return r
}

// legacyMCCSNodes is legacyMCCS that also returns the number of search
// nodes it expanded, the oracle for CounterMCSNodes.
func legacyMCCSNodes(g1, g2 *graph.Graph, budget int) (Result, int) {
	if budget <= 0 {
		budget = DefaultBudget
	}
	s := &legacySearcher{
		g1:     g1,
		g2:     g2,
		m12:    fill(g1.NumVertices()),
		m21:    fill(g2.NumVertices()),
		budget: budget,
		minE:   min(g1.NumEdges(), g2.NumEdges()),
	}
	// Try every label-compatible seed pair; each search only ever maps
	// seed pairs at the root.
	for _, p := range s.seedPairs() {
		s.place(p, 0)
		s.extend()
		s.unplace(p, 0)
		if s.bestEdge >= s.minE || s.nodes >= s.budget {
			break
		}
	}
	return Result{Pairs: s.best, Edges: s.bestEdge, Exhausted: s.nodes >= s.budget}, s.nodes
}

// tomb is the sentinel label legacyMCS gives a matched vertex of G1 (and
// tomb+"2" one of G2), so the two never match each other or a live label.
const tomb = "\x00removed"

// legacyMCS is the oracle for MCSCtx: the greedy union of MCCS components,
// with matched vertices removed by relabeling graph clones to sentinels
// that never match.
func legacyMCS(g1, g2 *graph.Graph, budget int) Result {
	h1, h2 := g1.Clone(), g2.Clone()
	var all []Pair
	total := 0
	exhausted := false
	for {
		r := legacyMCCS(h1, h2, budget)
		exhausted = exhausted || r.Exhausted
		if r.Edges == 0 {
			break
		}
		total += r.Edges
		all = append(all, r.Pairs...)
		for _, p := range r.Pairs {
			h1.SetLabel(p.V1, tomb)
			h2.SetLabel(p.V2, tomb+"2") // distinct sentinels never match
		}
	}
	return Result{Pairs: all, Edges: total, Exhausted: exhausted}
}

// legacySimilarity is the oracle for SimilarityKindCtx.
func legacySimilarity(k Kind, g1, g2 *graph.Graph, budget int) float64 {
	m := min(g1.NumEdges(), g2.NumEdges())
	if m == 0 {
		return 0
	}
	var r Result
	if k == KindMCS {
		r = legacyMCS(g1, g2, budget)
	} else {
		r = legacyMCCS(g1, g2, budget)
	}
	return float64(r.Edges) / float64(m)
}

func fill(n int) []graph.VertexID {
	s := make([]graph.VertexID, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// seedPairs enumerates label-compatible (v1, v2) pairs ordered by the
// product of degrees descending, so dense regions are explored first.
func (s *legacySearcher) seedPairs() []Pair {
	var ps []Pair
	for v1 := 0; v1 < s.g1.NumVertices(); v1++ {
		for v2 := 0; v2 < s.g2.NumVertices(); v2++ {
			if s.g1.Label(graph.VertexID(v1)) == s.g2.Label(graph.VertexID(v2)) {
				ps = append(ps, Pair{graph.VertexID(v1), graph.VertexID(v2)})
			}
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		di := s.g1.Degree(ps[i].V1) * s.g2.Degree(ps[i].V2)
		dj := s.g1.Degree(ps[j].V1) * s.g2.Degree(ps[j].V2)
		return di > dj
	})
	return ps
}

func (s *legacySearcher) place(p Pair, gain int) {
	s.m12[p.V1] = p.V2
	s.m21[p.V2] = p.V1
	s.cur = append(s.cur, p)
	s.curEdges += gain
}

func (s *legacySearcher) unplace(p Pair, gain int) {
	s.m12[p.V1] = -1
	s.m21[p.V2] = -1
	s.cur = s.cur[:len(s.cur)-1]
	s.curEdges -= gain
}

// gain counts common edges created by adding pair p to the current mapping:
// edges from p.V1 to mapped g1-vertices whose images are adjacent to p.V2.
func (s *legacySearcher) gain(p Pair) int {
	g := 0
	for _, n1 := range s.g1.Neighbors(p.V1) {
		if img := s.m12[n1]; img >= 0 && s.g2.HasEdge(p.V2, img) {
			g++
		}
	}
	return g
}

// extend grows the current connected mapping with candidate pairs adjacent
// to it, exploring gain-descending and recording the best edge count seen.
func (s *legacySearcher) extend() {
	s.nodes++
	if s.curEdges > s.bestEdge {
		s.bestEdge = s.curEdges
		s.best = append(s.best[:0], s.cur...)
	}
	if s.nodes >= s.budget || s.bestEdge >= s.minE {
		return
	}
	for _, c := range s.candidates() {
		g := s.gain(c)
		if g == 0 {
			continue // adjacency-connected candidates always gain >= 1
		}
		s.place(c, g)
		s.extend()
		s.unplace(c, g)
		if s.nodes >= s.budget || s.bestEdge >= s.minE {
			return
		}
	}
}

// candidates enumerates unmapped label-compatible pairs adjacent (in both
// graphs) to the current mapping, ordered by gain descending.
func (s *legacySearcher) candidates() []Pair {
	seen := make(map[Pair]struct{})
	var out []Pair
	for _, mp := range s.cur {
		for _, n1 := range s.g1.Neighbors(mp.V1) {
			if s.m12[n1] >= 0 {
				continue
			}
			for _, n2 := range s.g2.Neighbors(mp.V2) {
				if s.m21[n2] >= 0 {
					continue
				}
				if s.g1.Label(n1) != s.g2.Label(n2) {
					continue
				}
				p := Pair{n1, n2}
				if _, dup := seen[p]; !dup {
					seen[p] = struct{}{}
					out = append(out, p)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		gi, gj := s.gain(out[i]), s.gain(out[j])
		if gi != gj {
			return gi > gj
		}
		if out[i].V1 != out[j].V1 {
			return out[i].V1 < out[j].V1
		}
		return out[i].V2 < out[j].V2
	})
	return out
}
