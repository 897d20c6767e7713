// FrozenBuilder: direct construction of a standalone Frozen snapshot,
// bypassing the mutable Graph entirely.
//
// The mutable Graph stores adjacency as per-vertex slices and labels as
// strings — fine for small pattern graphs, ruinous for a social network
// with millions of edges (two slice headers plus amortized growth per
// vertex, one string header per label). The builder accumulates vertices
// as interned LabelIDs and edges as packed uint64 keys, then one
// sort+dedup+fill pass emits the same CSR arrays Freeze() would have
// produced: offsets, sorted neighbor rows, canonical (u <= v) edge pairs.
// Peak memory is ~8 bytes per added edge plus the final CSR arrays.
//
// The resulting Frozen has no backing mutable graph (Graph() == nil);
// Thaw() reconstructs one on demand. Edge pairs come out in sorted
// canonical order rather than insertion order — a standalone snapshot has
// no meaningful insertion order, and sorted order is what makes the
// builder deterministic for the bignet differential suite.
package graph

import "slices"

// FrozenBuilder accumulates vertices and undirected edges and emits an
// immutable Frozen in one pass. Not safe for concurrent use.
type FrozenBuilder struct {
	in     *Interner
	labels []LabelID
	edges  []uint64 // packed (min<<32 | max), unsorted until Build
}

// NewFrozenBuilder returns a builder with capacity hints for n vertices
// and m edges, interning labels in the process-wide shared interner.
func NewFrozenBuilder(n, m int) *FrozenBuilder {
	return &FrozenBuilder{
		in:     sharedInterner,
		labels: make([]LabelID, 0, n),
		edges:  make([]uint64, 0, m),
	}
}

// AddVertex appends a vertex with the given label and returns its index.
func (b *FrozenBuilder) AddVertex(label string) int32 {
	b.labels = append(b.labels, b.in.Intern(label))
	return int32(len(b.labels) - 1)
}

// AddVertexID appends a vertex with an already-interned label.
func (b *FrozenBuilder) AddVertexID(label LabelID) int32 {
	b.labels = append(b.labels, label)
	return int32(len(b.labels) - 1)
}

// SetLabel relabels an existing vertex (used by streaming loaders that
// see "v" lines after the vertex was implicitly created by an edge line).
// Out-of-range v is ignored.
func (b *FrozenBuilder) SetLabel(v int32, label string) {
	if v >= 0 && int(v) < len(b.labels) {
		b.labels[v] = b.in.Intern(label)
	}
}

// NumVertices returns the number of vertices added so far.
func (b *FrozenBuilder) NumVertices() int { return len(b.labels) }

// NumAddedEdges returns the number of AddEdge calls accepted so far
// (before Build's dedup).
func (b *FrozenBuilder) NumAddedEdges() int { return len(b.edges) }

// AddEdge records the undirected edge {u, v}. Self-loops and endpoints
// outside the vertex range are silently ignored (the streaming loaders
// count them before calling); duplicates are collapsed at Build time.
func (b *FrozenBuilder) AddEdge(u, v int32) {
	if u == v || u < 0 || v < 0 || int(u) >= len(b.labels) || int(v) >= len(b.labels) {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, uint64(uint32(u))<<32|uint64(uint32(v)))
}

// Build sorts and dedups the accumulated edges and emits the CSR
// snapshot with the given graph ID. The builder must not be reused
// afterwards. Neighbor rows come out sorted without a per-row sort:
// scanning the globally sorted canonical edge list (u < v, ascending)
// appends to row x first the neighbors smaller than x (from edges keyed
// u < x, in ascending u) and then the neighbors larger than x (from
// edges keyed x, in ascending v).
func (b *FrozenBuilder) Build(id int) *Frozen {
	slices.Sort(b.edges)
	// Dedup in place.
	m := 0
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			b.edges[m] = e
			m++
		}
	}
	b.edges = b.edges[:m]

	n := len(b.labels)
	f := &Frozen{
		in:         b.in,
		id:         id,
		offsets:    make([]int32, n+1),
		labels:     b.labels,
		labelCount: make(map[LabelID]int32, 8),
	}
	for _, l := range b.labels {
		f.labelCount[l]++
	}
	// Degree counting pass.
	deg := make([]int32, n)
	for _, e := range b.edges {
		deg[uint32(e>>32)]++
		deg[uint32(e)]++
	}
	total := int32(0)
	for v := 0; v < n; v++ {
		total += deg[v]
		f.offsets[v+1] = total
		if deg[v] > f.maxDegree {
			f.maxDegree = deg[v]
		}
	}
	// Fill pass; cursor reuses deg as "next free slot per row".
	f.neighbors = make([]int32, total)
	cursor := deg
	copy(cursor, f.offsets[:n])
	f.edges = make([]int32, 0, 2*m)
	for _, e := range b.edges {
		u, v := int32(uint32(e>>32)), int32(uint32(e))
		f.neighbors[cursor[u]] = v
		cursor[u]++
		f.neighbors[cursor[v]] = u
		cursor[v]++
		f.edges = append(f.edges, u, v)
	}
	return f
}
