package graph

import "sort"

// MatchingOrder produces a connectivity-respecting order over pattern
// vertices: the first vertex is the rarest-label/highest-degree one and each
// subsequent vertex is adjacent to an earlier one where possible. Matching
// connected-first keeps the candidate sets small. This is the VF2 variable
// order used by internal/subiso; it lives here so Frozen can precompute and
// cache it per pattern, and the VF2 oracle in internal/subiso's tests
// computes the identical order from the mutable graph.
func MatchingOrder(p *Graph) []VertexID {
	n := p.NumVertices()
	order := make([]VertexID, 0, n)
	inOrder := make([]bool, n)

	verts := make([]VertexID, n)
	for i := range verts {
		verts[i] = VertexID(i)
	}
	sort.Slice(verts, func(i, j int) bool {
		return p.Degree(verts[i]) > p.Degree(verts[j])
	})

	for len(order) < n {
		// Pick the highest-degree vertex not yet placed to start a
		// (possibly new) component.
		var seed VertexID = -1
		for _, v := range verts {
			if !inOrder[v] {
				seed = v
				break
			}
		}
		order = append(order, seed)
		inOrder[seed] = true
		// BFS-expand this component in degree-descending frontier order.
		frontier := append([]VertexID(nil), p.Neighbors(seed)...)
		for len(frontier) > 0 {
			sort.Slice(frontier, func(i, j int) bool {
				return p.Degree(frontier[i]) > p.Degree(frontier[j])
			})
			v := frontier[0]
			frontier = frontier[1:]
			if inOrder[v] {
				continue
			}
			order = append(order, v)
			inOrder[v] = true
			for _, w := range p.Neighbors(v) {
				if !inOrder[w] {
					frontier = append(frontier, w)
				}
			}
		}
	}
	return order
}
