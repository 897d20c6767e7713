// Package gindex implements a filter-and-verify subgraph search index over
// a graph database — the query primitive CATAPULT's interface serves
// (Sec 1: retrieve the data graphs containing a user's subgraph query).
//
// The index follows the classic path-based design (GraphGrep/gIndex
// family): every label path of length ≤ pathLen occurring in a data
// graph becomes a feature; a query's features prune the candidate set by
// inverted-list intersection and the survivors are verified with VF2.
// Path features are cheap to enumerate, anti-monotone (every feature of a
// subgraph occurs in its supergraphs), and effective on labeled molecule-
// like graphs.
//
// Labels are resolved through the process-wide graph.Interner and remapped
// to dense 1-based local IDs in first-occurrence order over the database,
// so feature encodings are a pure function of the database content,
// independent of interning history elsewhere in the process. A single DFS
// enumerates every simple path as its local-ID sequence; when the
// vocabulary and path length fit, a path packs its IDs into one uint64
// key, which avoids the string allocation that otherwise dominates index
// construction. Databases with huge vocabularies or deep paths key the
// same ID sequences by their fixed-width byte encoding instead.
package gindex

import (
	"encoding/binary"
	"math/bits"
	"sort"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/subiso"
)

// pathLen is the maximum indexed path length (edges).
const pathLen = 3

// Index is an immutable path-feature index over a database.
type Index struct {
	db         *graph.DB
	maxPathLen int

	// local remaps global label IDs to dense 1-based local IDs assigned in
	// first-occurrence order over the database. A local ID of 0 never
	// occurs, so packed paths of different lengths cannot collide.
	local map[graph.LabelID]uint64

	// Packed mode (labelBits > 0): a path feature is its local IDs packed
	// big-endian into a uint64, taking the smaller packing of the two path
	// directions.
	labelBits uint
	postings  map[uint64]*bitset.Set

	// Wide mode (labelBits == 0): the same local-ID sequences, keyed by
	// their fixed-width big-endian byte encoding (again the smaller of the
	// two directions) when they cannot fit one word.
	wide map[string]*bitset.Set
}

// Build constructs the index over paths of up to pathLen edges.
func Build(db *graph.DB) *Index { return build(db, pathLen) }

// build constructs the index over paths of up to maxLen edges; tests pass
// a long maxLen to force wide keying.
func build(db *graph.DB, maxLen int) *Index {
	idx := &Index{
		db:         db,
		maxPathLen: maxLen,
		local:      make(map[graph.LabelID]uint64),
	}
	for _, g := range db.Graphs {
		f := g.Freeze()
		for v := 0; v < f.NumVertices(); v++ {
			lid := f.Label(int32(v))
			if _, ok := idx.local[lid]; !ok {
				idx.local[lid] = uint64(len(idx.local) + 1)
			}
		}
	}
	idx.finalizeMode()
	if idx.labelBits > 0 {
		idx.postings = make(map[uint64]*bitset.Set)
		feats := make(map[uint64]struct{})
		for gi, g := range db.Graphs {
			clear(feats)
			idx.packedFeatures(g.Freeze(), feats)
			for f := range feats {
				s, ok := idx.postings[f]
				if !ok {
					s = bitset.New(db.Len())
					idx.postings[f] = s
				}
				s.Add(gi)
			}
		}
	} else {
		idx.wide = make(map[string]*bitset.Set)
		feats := make(map[string]struct{})
		for gi, g := range db.Graphs {
			clear(feats)
			idx.wideFeatures(g.Freeze(), feats)
			for f := range feats {
				s, ok := idx.wide[f]
				if !ok {
					s = bitset.New(db.Len())
					idx.wide[f] = s
				}
				s.Add(gi)
			}
		}
	}
	return idx
}

// finalizeMode picks packed or wide keying from the local vocabulary size
// and the maximum path length.
func (idx *Index) finalizeMode() {
	b := uint(bits.Len(uint(len(idx.local))))
	if b == 0 {
		b = 1
	}
	if uint(idx.maxPathLen+1)*b <= 64 {
		idx.labelBits = b
	} else {
		idx.labelBits = 0
	}
}

// NumFeatures returns the number of distinct indexed features.
func (idx *Index) NumFeatures() int {
	return len(idx.postings) + len(idx.wide)
}

// pathIDs enumerates the local-ID sequences of all simple paths of length
// 0..maxPathLen edges in f, invoking emit with a scratch slice valid only
// for the duration of the call. It returns false (possibly after partial
// emission) when f has a label absent from the index's vocabulary — such
// a graph cannot be contained in any indexed graph.
func (idx *Index) pathIDs(f *graph.Frozen, emit func(ids []uint64)) bool {
	n := f.NumVertices()
	labels := make([]uint64, n)
	for v := 0; v < n; v++ {
		id, ok := idx.local[f.Label(int32(v))]
		if !ok {
			return false
		}
		labels[v] = id
	}
	visited := make([]bool, n)
	ids := make([]uint64, 0, idx.maxPathLen+1)
	var dfs func(v int32, depth int)
	dfs = func(v int32, depth int) {
		ids = append(ids, labels[v])
		emit(ids)
		visited[v] = true
		if depth < idx.maxPathLen {
			for _, w := range f.Neighbors(v) {
				if !visited[w] {
					dfs(w, depth+1)
				}
			}
		}
		visited[v] = false
		ids = ids[:len(ids)-1]
	}
	for v := 0; v < n; v++ {
		dfs(int32(v), 0)
	}
	return true
}

// packedFeatures collects the packed uint64 features of f into out. The
// reported ok mirrors pathIDs. Instead of reusing pathIDs, the DFS carries
// both directional packings incrementally — extending a path by one vertex
// updates fwd/rev in O(1) rather than re-walking the ID sequence — since
// this loop dominates index construction.
func (idx *Index) packedFeatures(f *graph.Frozen, out map[uint64]struct{}) bool {
	n := f.NumVertices()
	labels := make([]uint64, n)
	for v := 0; v < n; v++ {
		id, ok := idx.local[f.Label(int32(v))]
		if !ok {
			return false
		}
		labels[v] = id
	}
	b := idx.labelBits
	visited := make([]bool, n)
	var dfs func(v int32, depth int, fwd, rev uint64)
	dfs = func(v int32, depth int, fwd, rev uint64) {
		fwd = fwd<<b | labels[v]
		rev |= labels[v] << (uint(depth) * b)
		if rev < fwd {
			out[rev] = struct{}{}
		} else {
			out[fwd] = struct{}{}
		}
		visited[v] = true
		if depth < idx.maxPathLen {
			for _, w := range f.Neighbors(v) {
				if !visited[w] {
					dfs(w, depth+1, fwd, rev)
				}
			}
		}
		visited[v] = false
	}
	for v := 0; v < n; v++ {
		dfs(int32(v), 0, 0, 0)
	}
	return true
}

// wideFeatures collects the byte-string features of f into out (wide
// mode). Fixed-width encoding makes byte comparison agree with ID-sequence
// comparison, so min(fwd, rev) canonicalizes direction just as in packed
// mode.
func (idx *Index) wideFeatures(f *graph.Frozen, out map[string]struct{}) bool {
	var fwd, rev []byte
	return idx.pathIDs(f, func(ids []uint64) {
		fwd, rev = fwd[:0], rev[:0]
		for i := range ids {
			fwd = binary.BigEndian.AppendUint32(fwd, uint32(ids[i]))
			rev = binary.BigEndian.AppendUint32(rev, uint32(ids[len(ids)-1-i]))
		}
		if string(rev) < string(fwd) {
			out[string(rev)] = struct{}{}
		} else {
			out[string(fwd)] = struct{}{}
		}
	})
}

// Candidates returns the indices of data graphs that pass the feature
// filter for query q (a superset of the true answer set).
func (idx *Index) Candidates(q *graph.Graph) []int {
	f := q.Freeze()
	var acc *bitset.Set
	intersect := func(s *bitset.Set, ok bool) bool {
		if !ok {
			return false // a query feature absent from every graph
		}
		if acc == nil {
			acc = s.Clone()
		} else {
			acc.IntersectWith(s)
		}
		return acc.Count() > 0
	}
	if idx.labelBits > 0 {
		feats := make(map[uint64]struct{})
		if !idx.packedFeatures(f, feats) {
			return nil // a query label absent from every graph: no answers
		}
		for ft := range feats {
			s, ok := idx.postings[ft]
			if !intersect(s, ok) {
				return nil
			}
		}
	} else {
		feats := make(map[string]struct{})
		if !idx.wideFeatures(f, feats) {
			return nil
		}
		for ft := range feats {
			s, ok := idx.wide[ft]
			if !intersect(s, ok) {
				return nil
			}
		}
	}
	if acc == nil {
		// Query had no vertices; every graph trivially matches.
		all := make([]int, idx.db.Len())
		for i := range all {
			all[i] = i
		}
		return all
	}
	return acc.Elements()
}

// Result is one subgraph-search answer.
type Result struct {
	GraphIndex int
	// Embedding maps query vertices to data-graph vertices.
	Embedding subiso.Mapping
}

// Search returns every data graph containing q, with one witness embedding
// each, in ascending graph-index order.
func (idx *Index) Search(q *graph.Graph) []Result {
	var out []Result
	for _, gi := range idx.Candidates(q) {
		if m := subiso.FindOne(idx.db.Graph(gi), q); m != nil {
			out = append(out, Result{GraphIndex: gi, Embedding: m})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GraphIndex < out[j].GraphIndex })
	return out
}

// Count returns |{G ∈ D : q ⊆ G}|.
func (idx *Index) Count(q *graph.Graph) int {
	n := 0
	for _, gi := range idx.Candidates(q) {
		if subiso.Contains(idx.db.Graph(gi), q) {
			n++
		}
	}
	return n
}

// FilterRatio reports the pruning power on a query: candidates / |D|
// (lower is better). Returns 1 for an empty database.
func (idx *Index) FilterRatio(q *graph.Graph) float64 {
	if idx.db.Len() == 0 {
		return 1
	}
	return float64(len(idx.Candidates(q))) / float64(idx.db.Len())
}
