// Frozen graphs: an immutable, cache-friendly view of a Graph for the
// matcher kernels.
//
// The mutable Graph is the right shape for construction and I/O but the
// wrong shape for search: adjacency is a slice of per-vertex slices
// (pointer chasing on every neighbor scan) and labels are strings
// (allocation-sized comparisons on every feasibility check). Freeze()
// repacks a graph into compressed sparse row (CSR) form — one flat
// offsets array and one flat neighbors array, both []int32 — and maps
// every vertex label through a process-wide Interner to a dense LabelID,
// so the VF2/MCS/GED inner loops compare 32-bit integers and walk
// contiguous memory. Degree and label-multiset summaries are precomputed
// at freeze time; the pattern matching order is computed lazily and
// cached, since data graphs are frozen far more often than patterns.
//
// A Frozen is a snapshot: it is never updated in place. Graph memoizes
// its most recent snapshot and every mutator (AddVertex, AddEdge,
// SetLabel) drops the memo, so freezing an unchanged graph twice returns
// the same object and the pipeline freezes each graph once, not per
// matcher call. Explicit edge labels are not captured — no matcher
// consults them; they stay on the mutable Graph for coverage scoring.
package graph

import (
	"sync"
	"sync/atomic"
)

// LabelID is a dense integer handle for an interned vertex label. IDs are
// assigned in first-intern order by the owning Interner and are stable for
// the lifetime of the process.
type LabelID int32

// Interner maps label strings to dense LabelIDs and back. It is safe for
// concurrent use. The zero value is not usable; call NewInterner, or use
// the process-wide SharedInterner that every Freeze() goes through.
type Interner struct {
	mu     sync.RWMutex
	ids    map[string]LabelID
	labels []string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]LabelID)}
}

// Intern returns the LabelID for label, assigning the next dense ID on
// first sight.
func (in *Interner) Intern(label string) LabelID {
	in.mu.RLock()
	id, ok := in.ids[label]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[label]; ok {
		return id
	}
	id = LabelID(len(in.labels))
	in.ids[label] = id
	in.labels = append(in.labels, label)
	return id
}

// Lookup returns the LabelID for label without interning it.
func (in *Interner) Lookup(label string) (LabelID, bool) {
	in.mu.RLock()
	id, ok := in.ids[label]
	in.mu.RUnlock()
	return id, ok
}

// LabelString returns the label string for id. It panics if id was not
// issued by this interner.
func (in *Interner) LabelString(id LabelID) string {
	in.mu.RLock()
	s := in.labels[id]
	in.mu.RUnlock()
	return s
}

// Len returns the number of distinct labels interned so far.
func (in *Interner) Len() int {
	in.mu.RLock()
	n := len(in.labels)
	in.mu.RUnlock()
	return n
}

// sharedInterner is the process-wide label table. All Freeze() calls go
// through it, so LabelIDs are comparable across every frozen graph in the
// process — the property the matchers and gindex rely on.
var sharedInterner = NewInterner()

// SharedInterner returns the process-wide interner used by Freeze.
func SharedInterner() *Interner { return sharedInterner }

// Intern interns label in the shared process-wide interner.
func Intern(label string) LabelID { return sharedInterner.Intern(label) }

// Frozen is an immutable CSR snapshot of a Graph. All slices are owned by
// the Frozen and must not be modified.
type Frozen struct {
	g  *Graph // nil for standalone snapshots built by FrozenBuilder
	in *Interner
	id int // graph ID, preserved through Thaw

	offsets   []int32 // len n+1; neighbors of v are neighbors[offsets[v]:offsets[v+1]]
	neighbors []int32 // concatenated sorted adjacency lists
	labels    []LabelID
	edges     []int32 // interleaved (u,v) pairs, canonical order, insertion order

	labelCount map[LabelID]int32
	maxDegree  int32

	order     atomic.Pointer[[]int32] // lazy pattern matching order
	canonical atomic.Pointer[string]  // lazy canonical form (internal/canon)
}

// Freeze returns the CSR snapshot of g, building it on first use and
// memoizing it until the next mutation. Concurrent calls are safe; racing
// builders produce equivalent snapshots and one wins.
func (g *Graph) Freeze() *Frozen {
	if f := g.frozen.Load(); f != nil {
		return f
	}
	f := g.buildFrozen(sharedInterner)
	g.frozen.Store(f)
	return f
}

func (g *Graph) buildFrozen(in *Interner) *Frozen {
	n := len(g.labels)
	f := &Frozen{
		g:          g,
		in:         in,
		id:         g.ID,
		offsets:    make([]int32, n+1),
		labels:     make([]LabelID, n),
		labelCount: make(map[LabelID]int32, 8),
	}
	total := 0
	for v := 0; v < n; v++ {
		deg := len(g.adj[v])
		total += deg
		f.offsets[v+1] = int32(total)
		if int32(deg) > f.maxDegree {
			f.maxDegree = int32(deg)
		}
		id := in.Intern(g.labels[v])
		f.labels[v] = id
		f.labelCount[id]++
	}
	f.neighbors = make([]int32, 0, total)
	for v := 0; v < n; v++ {
		for _, w := range g.adj[v] {
			f.neighbors = append(f.neighbors, int32(w))
		}
	}
	f.edges = make([]int32, 0, 2*len(g.edges))
	for _, e := range g.edges {
		f.edges = append(f.edges, int32(e.U), int32(e.V))
	}
	return f
}

// Graph returns the mutable graph this snapshot was frozen from, or nil
// for a standalone snapshot built directly in CSR form by a FrozenBuilder
// (use Thaw to materialize one).
func (f *Frozen) Graph() *Graph { return f.g }

// ID returns the graph ID carried by the snapshot (Graph.ID at freeze
// time, or the ID given to FrozenBuilder.Build).
func (f *Frozen) ID() int { return f.id }

// Interner returns the interner that issued this snapshot's LabelIDs.
func (f *Frozen) Interner() *Interner { return f.in }

// NumVertices returns |V|.
func (f *Frozen) NumVertices() int { return len(f.labels) }

// NumEdges returns |E|.
func (f *Frozen) NumEdges() int { return len(f.edges) / 2 }

// Neighbors returns the sorted CSR neighbor slice of v.
func (f *Frozen) Neighbors(v int32) []int32 {
	return f.neighbors[f.offsets[v]:f.offsets[v+1]]
}

// CSR returns the flat rows: the neighbors of v are the slots
// offsets[v] to offsets[v+1]-1 of neighbors. Both slices are owned by the
// Frozen.
func (f *Frozen) CSR() (offsets, neighbors []int32) { return f.offsets, f.neighbors }

// Degree returns the degree of v.
func (f *Frozen) Degree(v int32) int32 { return f.offsets[v+1] - f.offsets[v] }

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (f *Frozen) MaxDegree() int32 { return f.maxDegree }

// Label returns the interned label of v.
func (f *Frozen) Label(v int32) LabelID { return f.labels[v] }

// LabelString returns the label string of v.
func (f *Frozen) LabelString(v int32) string { return f.in.LabelString(f.labels[v]) }

// LabelCounts returns the vertex-label multiset as a LabelID frequency
// map. The map is owned by the Frozen and must not be modified.
func (f *Frozen) LabelCounts() map[LabelID]int32 { return f.labelCount }

// HasEdge reports whether the undirected edge {u, v} exists, by binary
// search over the shorter of the two CSR neighbor slices.
func (f *Frozen) HasEdge(u, v int32) bool {
	if f.Degree(v) < f.Degree(u) {
		u, v = v, u
	}
	nb := f.neighbors[f.offsets[u]:f.offsets[u+1]]
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nb[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(nb) && nb[lo] == v
}

// EdgePairs returns the interleaved (u,v) edge list in insertion order,
// endpoints in canonical (u <= v) order. The slice is owned by the Frozen.
func (f *Frozen) EdgePairs() []int32 { return f.edges }

// MatchingOrder returns the VF2 pattern matching order over this graph's
// vertices, computed on first use and cached. The order is identical to
// MatchingOrder on the mutable graph.
func (f *Frozen) MatchingOrder() []int32 {
	if p := f.order.Load(); p != nil {
		return *p
	}
	src := f.g
	if src == nil {
		src = f.Thaw() // standalone snapshot: order via a throwaway thaw
	}
	ord := MatchingOrder(src)
	out := make([]int32, len(ord))
	for i, v := range ord {
		out[i] = int32(v)
	}
	f.order.Store(&out)
	return out
}

// CanonicalMemo returns the canonical string stored by SetCanonicalMemo,
// if any. The canonical form is a pure function of the snapshot, so the
// frozen memo's mutation-invalidated lifetime is exactly right for it:
// internal/canon stores its result here, and repeated canonicalization of
// an unchanged graph — engine construction, dedup, similarity keys — costs
// one atomic load.
func (f *Frozen) CanonicalMemo() (string, bool) {
	if p := f.canonical.Load(); p != nil {
		return *p, true
	}
	return "", false
}

// SetCanonicalMemo stores the canonical string of this snapshot. The
// canonical form is unique, so racing writers store equal values and any
// winner is correct.
func (f *Frozen) SetCanonicalMemo(s string) { f.canonical.Store(&s) }

// Bytes returns the memory footprint of the snapshot's flat arrays in
// bytes: CSR offsets and neighbors, label IDs and edge pairs. Map and
// header overheads are excluded, so this is the marginal cost of keeping
// the frozen form alive next to the mutable graph.
func (f *Frozen) Bytes() int64 {
	return int64(4 * (len(f.offsets) + len(f.neighbors) + len(f.labels) + len(f.edges)))
}

// Thaw reconstructs a mutable graph from the frozen arrays alone: same
// vertex labels, same edges in the same insertion order, same ID — so
// String() and the canonical form agree with the original. Explicit edge
// labels are not captured by Freeze and are absent from the result.
func (f *Frozen) Thaw() *Graph {
	g := New(len(f.labels), len(f.edges)/2)
	g.ID = f.id
	for _, id := range f.labels {
		g.AddVertex(f.in.LabelString(id))
	}
	for i := 0; i < len(f.edges); i += 2 {
		g.MustAddEdge(VertexID(f.edges[i]), VertexID(f.edges[i+1]))
	}
	return g
}

// FrozenStats summarizes freezing a whole database.
type FrozenStats struct {
	Graphs int   // graphs frozen
	Labels int   // shared-interner cardinality after freezing
	Bytes  int64 // total frozen footprint (sum of Frozen.Bytes)
}

// Freeze freezes every graph in the database (warming the per-graph
// memos) and returns footprint statistics.
func (db *DB) Freeze() FrozenStats {
	st := FrozenStats{Graphs: len(db.Graphs)}
	for _, g := range db.Graphs {
		st.Bytes += g.Freeze().Bytes()
	}
	st.Labels = sharedInterner.Len()
	return st
}
