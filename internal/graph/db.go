package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// DB is a graph database: an ordered collection of data graphs, each with a
// unique index (its position). It corresponds to the paper's D.
type DB struct {
	Name   string
	Graphs []*Graph
}

// NewDB builds a database from the given graphs, assigning sequential IDs.
func NewDB(name string, gs []*Graph) *DB {
	db := &DB{Name: name, Graphs: gs}
	for i, g := range gs {
		g.ID = i
	}
	return db
}

// Len returns |D|.
func (db *DB) Len() int { return len(db.Graphs) }

// Graph returns the data graph with index i.
func (db *DB) Graph(i int) *Graph { return db.Graphs[i] }

// Subset returns a new database holding the graphs with the given indices.
// Graph IDs are preserved (they still refer to positions in the parent), so
// coverage statistics computed on a sample remain attributable.
func (db *DB) Subset(name string, idx []int) *DB {
	gs := make([]*Graph, 0, len(idx))
	for _, i := range idx {
		gs = append(gs, db.Graphs[i])
	}
	return &DB{Name: name, Graphs: gs}
}

// VertexLabelSet returns the set of distinct vertex labels across the
// database, sorted.
func (db *DB) VertexLabelSet() []string {
	set := make(map[string]struct{})
	for _, g := range db.Graphs {
		for v := 0; v < g.NumVertices(); v++ {
			set[g.Label(VertexID(v))] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// EdgeLabelSet returns the set of distinct (derived) edge labels across the
// database, sorted.
func (db *DB) EdgeLabelSet() []string {
	set := make(map[string]struct{})
	for _, g := range db.Graphs {
		for _, e := range g.Edges() {
			set[g.EdgeLabel(e.U, e.V)] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// EdgeLabelSupport returns, for every edge label, the number of data graphs
// containing at least one edge with that label: |L(e, D)| in the paper's
// label-coverage definition.
func (db *DB) EdgeLabelSupport() map[string]int {
	sup := make(map[string]int)
	for _, g := range db.Graphs {
		seen := make(map[string]struct{})
		for _, e := range g.Edges() {
			seen[g.EdgeLabel(e.U, e.V)] = struct{}{}
		}
		for l := range seen {
			sup[l]++
		}
	}
	return sup
}

// Stats summarizes a database for reporting.
type Stats struct {
	NumGraphs    int
	AvgVertices  float64
	AvgEdges     float64
	MaxVertices  int
	MaxEdges     int
	VertexLabels int
	EdgeLabels   int
}

// ComputeStats computes summary statistics of the database.
func (db *DB) ComputeStats() Stats {
	s := Stats{NumGraphs: len(db.Graphs)}
	if len(db.Graphs) == 0 {
		return s
	}
	var sv, se int
	for _, g := range db.Graphs {
		nv, ne := g.NumVertices(), g.NumEdges()
		sv += nv
		se += ne
		if nv > s.MaxVertices {
			s.MaxVertices = nv
		}
		if ne > s.MaxEdges {
			s.MaxEdges = ne
		}
	}
	s.AvgVertices = float64(sv) / float64(len(db.Graphs))
	s.AvgEdges = float64(se) / float64(len(db.Graphs))
	s.VertexLabels = len(db.VertexLabelSet())
	s.EdgeLabels = len(db.EdgeLabelSet())
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("graphs=%d avg|V|=%.1f avg|E|=%.1f max|V|=%d max|E|=%d vlabels=%d elabels=%d",
		s.NumGraphs, s.AvgVertices, s.AvgEdges, s.MaxVertices, s.MaxEdges, s.VertexLabels, s.EdgeLabels)
}

// RandomConnectedSubgraph extracts a connected subgraph of g with exactly
// size edges via a random edge-growth walk, as used to generate subgraph
// query workloads (Sec 6.1). It returns nil if g has fewer than size edges
// or the walk cannot reach the requested size. The walk is
// RandomConnectedEdges on g's frozen snapshot, drawing from its edge
// pairs, which are g's edges in insertion order.
func RandomConnectedSubgraph(g *Graph, size int, rng *rand.Rand) *Graph {
	f := g.Freeze()
	pairs := f.RandomConnectedEdges(f.edges, size, rng)
	if pairs == nil {
		return nil
	}
	picked := make([]Edge, len(pairs)/2)
	for i := range picked {
		picked[i] = Edge{U: VertexID(pairs[2*i]), V: VertexID(pairs[2*i+1])}
	}
	sub, _ := g.EdgeSubgraph(picked)
	return sub
}

// RandomConnectedEdges grows a random connected set of exactly size edges
// of f. edgePairs lists f's m edges in draw order as interleaved canonical
// (u < v) pairs. The seed edge is pair rng.Intn(m); each later step picks
// rng.Intn(len) from the sorted multiset of unpicked edges incident to the
// grown vertex set, where an edge with both endpoints grown counts twice.
// It returns the picked pairs in pick order, or nil if size is not in
// [1, m] or the frontier runs out first.
//
// The frontier is kept sorted across steps rather than collected and
// sorted anew: a vertex's row, read as canonical pairs, is already in
// (u, v) order (neighbours below it give pairs (w, x) ascending in w, then
// neighbours above it give (x, w)), so a newly grown vertex's row is
// merged in, and a picked edge's copies, adjacent in the sorted frontier,
// are cut out. A newly grown vertex has no picked edge but the one that
// grew it, so that is the only pair its row skips.
func (f *Frozen) RandomConnectedEdges(edgePairs []int32, size int, rng *rand.Rand) []int32 {
	m := len(edgePairs) / 2
	if size <= 0 || m < size {
		return nil
	}
	i := 2 * rng.Intn(m)
	a, b := edgePairs[i], edgePairs[i+1]
	picked := make([]int32, 0, 2*size)
	picked = append(picked, a, b)
	grown := make([]bool, f.NumVertices())
	grown[a], grown[b] = true, true
	seed := edgeKey(a, b)
	frontier := mergeRow(nil, nil, f.Neighbors(a), a, seed)
	next := mergeRow(nil, frontier, f.Neighbors(b), b, seed)
	frontier, next = next, frontier
	for len(picked) < 2*size {
		if len(frontier) == 0 {
			return nil
		}
		r := rng.Intn(len(frontier))
		k := frontier[r]
		lo, hi := r, r+1
		for lo > 0 && frontier[lo-1] == k {
			lo--
		}
		for hi < len(frontier) && frontier[hi] == k {
			hi++
		}
		frontier = append(frontier[:lo], frontier[hi:]...)
		u, v := int32(k>>32), int32(uint32(k))
		picked = append(picked, u, v)
		x := u
		if grown[u] {
			x = v
		}
		if !grown[x] {
			grown[x] = true
			next = mergeRow(next, frontier, f.Neighbors(x), x, k)
			frontier, next = next, frontier
		}
	}
	return picked
}

// edgeKey packs the canonical pair of {u, v} so that key order is (u, v)
// order.
func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// mergeRow writes to out the sorted merge of frontier and x's sorted row,
// read as canonical edge keys, leaving out the key skip.
func mergeRow(out, frontier []uint64, row []int32, x int32, skip uint64) []uint64 {
	out = out[:0]
	j := 0
	for _, w := range row {
		k := edgeKey(x, w)
		if k == skip {
			continue
		}
		for j < len(frontier) && frontier[j] < k {
			out = append(out, frontier[j])
			j++
		}
		out = append(out, k)
	}
	return append(out, frontier[j:]...)
}
