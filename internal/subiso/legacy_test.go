package subiso

import (
	"repro/internal/graph"
)

// legacyState is the VF2 oracle the differential tests and the graph bench
// gate check the Matcher against: the same search on the mutable graph
// representation, with per-call state allocation, string label
// comparisons and [][]VertexID adjacency. It expands the same search tree
// in the same order as the Matcher, so answers, budget exhaustion and
// enumeration order must agree exactly.
type legacyState struct {
	p, t         *graph.Graph
	core         []graph.VertexID // pattern -> target, -1 if unmapped
	used         []bool           // target vertex already mapped
	order        []graph.VertexID // pattern matching order
	maxSolutions int
	maxNodes     int
	nodes        int
	results      []Mapping
	stopped      bool
}

// LegacyFindAll is the oracle for FindAll: up to maxSolutions embeddings
// of p in t (all if zero) within maxNodes expanded nodes (unbounded if
// zero), and whether the node budget stopped the search. It is exported
// to the package's external tests, which hold the bench gate.
func LegacyFindAll(t, p *graph.Graph, maxSolutions, maxNodes int) (ms []Mapping, budgetHit bool) {
	if legacyQuickReject(t, p) {
		return nil, false
	}
	s := &legacyState{
		p:            p,
		t:            t,
		core:         make([]graph.VertexID, p.NumVertices()),
		used:         make([]bool, t.NumVertices()),
		order:        graph.MatchingOrder(p),
		maxSolutions: maxSolutions,
		maxNodes:     maxNodes,
	}
	for i := range s.core {
		s.core[i] = -1
	}
	s.search(0)
	return s.results, s.stopped && maxNodes > 0 && s.nodes >= maxNodes
}

// LegacyContains is the oracle for Contains.
func LegacyContains(t, p *graph.Graph) bool {
	ms, _ := LegacyFindAll(t, p, 1, 0)
	return len(ms) > 0
}

// LegacyContainsBudget is the oracle for ContainsBudget.
func LegacyContainsBudget(t, p *graph.Graph, maxNodes int) (contained, definitive bool) {
	ms, budgetHit := LegacyFindAll(t, p, 1, maxNodes)
	if len(ms) > 0 {
		return true, true
	}
	return false, !budgetHit
}

func legacyQuickReject(t, p *graph.Graph) bool {
	if p.NumVertices() == 0 {
		return false // empty pattern trivially embeds
	}
	if p.NumVertices() > t.NumVertices() || p.NumEdges() > t.NumEdges() {
		return true
	}
	tl := t.VertexLabels()
	for l, c := range p.VertexLabels() {
		if tl[l] < c {
			return true
		}
	}
	return false
}

func (s *legacyState) search(depth int) {
	if s.stopped {
		return
	}
	if s.maxNodes > 0 && s.nodes >= s.maxNodes {
		s.stopped = true
		return
	}
	s.nodes++
	if depth == len(s.order) {
		s.results = append(s.results, append(Mapping(nil), s.core...))
		if s.maxSolutions > 0 && len(s.results) >= s.maxSolutions {
			s.stopped = true
		}
		return
	}
	pv := s.order[depth]
	for _, tv := range s.candidates(pv) {
		if s.feasible(pv, tv) {
			s.core[pv] = tv
			s.used[tv] = true
			s.search(depth + 1)
			s.core[pv] = -1
			s.used[tv] = false
			if s.stopped {
				return
			}
		}
	}
}

// candidates enumerates target vertices to try for pattern vertex pv: the
// target neighbors of the image of pv's first mapped neighbor, or every
// target vertex when none is mapped yet.
func (s *legacyState) candidates(pv graph.VertexID) []graph.VertexID {
	for _, pn := range s.p.Neighbors(pv) {
		if s.core[pn] >= 0 {
			return s.t.Neighbors(s.core[pn])
		}
	}
	all := make([]graph.VertexID, 0, s.t.NumVertices())
	for v := 0; v < s.t.NumVertices(); v++ {
		all = append(all, graph.VertexID(v))
	}
	return all
}

// feasible checks VF2 feasibility of mapping pv -> tv: labels equal, tv
// unused, degree sufficient, and every mapped pattern neighbor of pv maps to
// a target neighbor of tv.
func (s *legacyState) feasible(pv, tv graph.VertexID) bool {
	if s.used[tv] {
		return false
	}
	if s.p.Label(pv) != s.t.Label(tv) {
		return false
	}
	if s.p.Degree(pv) > s.t.Degree(tv) {
		return false
	}
	for _, pn := range s.p.Neighbors(pv) {
		if tn := s.core[pn]; tn >= 0 && !s.t.HasEdge(tv, tn) {
			return false
		}
	}
	return true
}
