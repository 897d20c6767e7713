// Package canon computes canonical forms of small labeled graphs: two
// graphs are isomorphic iff their canonical strings are equal. The
// pipeline uses it to deduplicate candidate patterns and mined subgraphs
// exactly, replacing signature-plus-double-VF2 checks.
//
// The algorithm is a small-scale individualization-refinement search in
// the spirit of nauty: vertices are partitioned by iterated color
// refinement (label, then multiset of neighbor colors); ties are broken by
// individualizing each vertex of the first smallest non-singleton cell;
// branches whose (partition, prefix) state duplicates an already-explored
// sibling are pruned, which collapses the factorial blowup on symmetric
// graphs (cliques, rings) to linear work. The canonical string is the
// lexicographically smallest encoding over all explored orderings.
// Patterns in this repository have ≤ ~20 vertices, well within the
// search's comfortable range.
package canon

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// MaxKeyVertices is the size cap above which the memo engines of
// internal/cover and internal/simcache key a graph by identity instead of
// by its canonical string. Canonical labeling is comfortable at pattern
// and dataset scale but not guaranteed cheap on arbitrary hosts; an
// identity key stays sound and only forgoes sharing between isomorphic
// graphs.
const MaxKeyVertices = 48

// String returns the canonical string of g. Equal strings ⇔ isomorphic
// graphs (for the label-preserving isomorphism of the paper's data model).
func String(g *graph.Graph) string {
	n := g.NumVertices()
	if n == 0 {
		return "∅"
	}
	f := g.Freeze()
	if memo, ok := f.CanonicalMemo(); ok {
		return memo
	}
	s := &searchState{f: f, n: n}
	colors := initialColors(f)
	colors = s.refine(colors)
	s.search(colors, nil)
	f.SetCanonicalMemo(s.best)
	return s.best
}

// Equal reports whether two graphs are isomorphic.
func Equal(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	return String(a) == String(b)
}

// Reconstructible reports whether the canonical string of g can be decoded
// back into a graph by Reconstruct. The encoding delimits vertex labels
// with ';' and the label section with '|', so it is unambiguous exactly
// when no vertex label contains either delimiter (true for every dataset
// this repository generates or parses).
func Reconstructible(g *graph.Graph) bool {
	for v := 0; v < g.NumVertices(); v++ {
		if strings.ContainsAny(g.Label(graph.VertexID(v)), ";|") {
			return false
		}
	}
	return true
}

// Reconstruct decodes a canonical string produced by String back into a
// concrete graph: vertex v carries the v-th encoded label and edges follow
// the upper-triangle adjacency bitmap. The result is a canonical
// representative of the isomorphism class — a pure function of the string,
// independent of whichever member graph produced it — which is what makes
// it safe to key memoized similarity computations (internal/simcache) by
// canonical form: the computation itself runs on Reconstruct's output, so
// its result can never depend on the incidental vertex numbering of the
// graph that triggered it. Decoding is only unambiguous for graphs that
// satisfy Reconstructible; otherwise an error is returned.
func Reconstruct(s string) (*graph.Graph, error) {
	if s == "∅" {
		return graph.New(0, 0), nil
	}
	sep := strings.IndexByte(s, '|')
	if sep < 0 {
		return nil, fmt.Errorf("canon: no label/adjacency separator in %q", s)
	}
	labelPart, bits := s[:sep], s[sep+1:]
	if labelPart == "" || !strings.HasSuffix(labelPart, ";") {
		return nil, fmt.Errorf("canon: malformed label section in %q", s)
	}
	labels := strings.Split(labelPart[:len(labelPart)-1], ";")
	n := len(labels)
	if len(bits) != n*(n-1)/2 {
		return nil, fmt.Errorf("canon: adjacency bitmap has %d bits, want %d for %d vertices",
			len(bits), n*(n-1)/2, n)
	}
	g := graph.New(n, len(bits))
	for _, l := range labels {
		g.AddVertex(l)
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch bits[k] {
			case '1':
				g.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
			case '0':
			default:
				return nil, fmt.Errorf("canon: invalid adjacency bit %q in %q", bits[k], s)
			}
			k++
		}
	}
	return g, nil
}

type searchState struct {
	f    *graph.Frozen
	n    int
	best string
}

// initialColors assigns each vertex a color id by its label. Colors must
// rank labels in sorted *string* order (so they are canonical and stable
// across processes), not in LabelID order, which depends on interning
// history; the unique labels are resolved through the interner and sorted
// as strings before ranking.
func initialColors(f *graph.Frozen) []int {
	uniq := map[graph.LabelID]struct{}{}
	for v := 0; v < f.NumVertices(); v++ {
		uniq[f.Label(int32(v))] = struct{}{}
	}
	in := f.Interner()
	sorted := make([]string, 0, len(uniq))
	for id := range uniq {
		sorted = append(sorted, in.LabelString(id))
	}
	sort.Strings(sorted)
	rank := map[graph.LabelID]int{}
	for i, l := range sorted {
		id, _ := in.Lookup(l)
		rank[id] = i
	}
	colors := make([]int, f.NumVertices())
	for v := range colors {
		colors[v] = rank[f.Label(int32(v))]
	}
	return colors
}

// refine iterates color refinement until stable: each vertex's new color
// is (old color, sorted multiset of neighbor colors). Keys are packed into
// byte strings rather than formatted, as refinement dominates the search's
// per-node cost.
func (s *searchState) refine(colors []int) []int {
	cur := append([]int(nil), colors...)
	keys := make([]string, s.n)
	var buf []byte
	var ns []int
	for {
		for v := 0; v < s.n; v++ {
			nb := s.f.Neighbors(int32(v))
			ns = ns[:0]
			for _, w := range nb {
				ns = append(ns, cur[w])
			}
			sort.Ints(ns)
			buf = buf[:0]
			buf = appendColor(buf, cur[v])
			for _, c := range ns {
				buf = appendColor(buf, c)
			}
			keys[v] = string(buf)
		}
		// Re-rank keys canonically.
		rank := make(map[string]int, s.n)
		sorted := make([]string, 0, s.n)
		for _, k := range keys {
			if _, ok := rank[k]; !ok {
				rank[k] = 0
				sorted = append(sorted, k)
			}
		}
		sort.Strings(sorted)
		for i, k := range sorted {
			rank[k] = i
		}
		changed := false
		for v := 0; v < s.n; v++ {
			nc := rank[keys[v]]
			if nc != cur[v] {
				changed = true
			}
			cur[v] = nc
		}
		if !changed {
			return cur
		}
	}
}

// appendColor appends a fixed-width two-byte encoding of a color id.
// Colors are bounded by twice the vertex count (individualization doubles
// them transiently), far below 2^16 for the pattern-scale graphs this
// package serves.
func appendColor(buf []byte, v int) []byte {
	return append(buf, byte(v), byte(v>>8))
}

// cells groups vertices by color, ordered by color.
func cells(colors []int) [][]graph.VertexID {
	byColor := map[int][]graph.VertexID{}
	var keys []int
	for v, c := range colors {
		if _, ok := byColor[c]; !ok {
			keys = append(keys, c)
		}
		byColor[c] = append(byColor[c], graph.VertexID(v))
	}
	sort.Ints(keys)
	out := make([][]graph.VertexID, 0, len(keys))
	for _, c := range keys {
		cell := byColor[c]
		sort.Slice(cell, func(i, j int) bool { return cell[i] < cell[j] })
		out = append(out, cell)
	}
	return out
}

// search explores individualization branches; when the partition is
// discrete it encodes the ordering and keeps the lexicographic minimum.
func (s *searchState) search(colors []int, prefix []graph.VertexID) {
	cs := cells(colors)
	// Find the first smallest non-singleton cell.
	target := -1
	for i, c := range cs {
		if len(c) > 1 && (target < 0 || len(c) < len(cs[target])) {
			target = i
		}
	}
	if target < 0 {
		// Discrete: ordering is the cell sequence.
		order := make([]graph.VertexID, 0, s.n)
		for _, c := range cs {
			order = append(order, c[0])
		}
		enc := s.encode(order)
		if s.best == "" || enc < s.best {
			s.best = enc
		}
		return
	}
	branch := cs[target]
	if s.interchangeable(branch) {
		// Every pair of cell vertices is swapped by an automorphism
		// (mutual twins): all branches are equivalent, explore one. This
		// collapses the factorial blowup on cliques, stars and other
		// twin-heavy graphs.
		branch = branch[:1]
	}
	for _, v := range branch {
		child := individualize(colors, int(v))
		child = s.refine(child)
		s.search(child, append(prefix, v))
	}
}

// interchangeable reports whether all vertices of the cell are mutual
// twins: pairwise all-adjacent or pairwise all-non-adjacent, with
// identical labels (guaranteed by the coloring) and identical neighbor
// sets outside the cell. Swapping any two such vertices is an
// automorphism, so individualizing any one of them yields the same
// canonical minimum.
func (s *searchState) interchangeable(cell []graph.VertexID) bool {
	if len(cell) < 2 {
		return true
	}
	inCell := map[graph.VertexID]bool{}
	for _, v := range cell {
		inCell[v] = true
	}
	adj := s.f.HasEdge(int32(cell[0]), int32(cell[1]))
	// All pairs must agree with the first pair's adjacency.
	for i := 0; i < len(cell); i++ {
		for j := i + 1; j < len(cell); j++ {
			if s.f.HasEdge(int32(cell[i]), int32(cell[j])) != adj {
				return false
			}
		}
	}
	// External neighbor sets must match.
	ext := func(v graph.VertexID) string {
		var out []int
		for _, w := range s.f.Neighbors(int32(v)) {
			if !inCell[graph.VertexID(w)] {
				out = append(out, int(w))
			}
		}
		sort.Ints(out)
		return fmt.Sprint(out)
	}
	first := ext(cell[0])
	for _, v := range cell[1:] {
		if ext(v) != first {
			return false
		}
	}
	return true
}

// individualize splits vertex v into its own color class (before all
// others of its color).
func individualize(colors []int, v int) []int {
	out := make([]int, len(colors))
	for i, c := range colors {
		out[i] = c * 2
		if c > colors[v] {
			out[i]++ // keep room; precise values are irrelevant, ranking is
		}
	}
	out[v] = colors[v]*2 - 1
	return out
}

// encode serializes the graph under the given vertex ordering: vertex
// labels in order, then the upper-triangle adjacency bitmap.
func (s *searchState) encode(order []graph.VertexID) string {
	pos := make([]int, s.n)
	for i, v := range order {
		pos[v] = i
	}
	var b strings.Builder
	for _, v := range order {
		b.WriteString(s.f.LabelString(int32(v)))
		b.WriteByte(';')
	}
	b.WriteByte('|')
	bits := make([]byte, 0, s.n*(s.n-1)/2)
	for i := 0; i < s.n; i++ {
		for j := i + 1; j < s.n; j++ {
			if s.f.HasEdge(int32(order[i]), int32(order[j])) {
				bits = append(bits, '1')
			} else {
				bits = append(bits, '0')
			}
		}
	}
	b.Write(bits)
	return b.String()
}
