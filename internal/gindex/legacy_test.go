package gindex

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/subiso"
)

// legacyPathFeatures is the original string-mode feature enumeration:
// canonical label strings of all simple paths of length 0..maxLen edges.
func legacyPathFeatures(g *graph.Graph, maxLen int) map[string]struct{} {
	out := make(map[string]struct{})
	n := g.NumVertices()
	var labels []string
	visited := make([]bool, n)
	var dfs func(v graph.VertexID, depth int)
	dfs = func(v graph.VertexID, depth int) {
		labels = append(labels, g.Label(v))
		visited[v] = true
		out[canonicalPath(labels)] = struct{}{}
		if depth < maxLen {
			for _, w := range g.Neighbors(v) {
				if !visited[w] {
					dfs(w, depth+1)
				}
			}
		}
		visited[v] = false
		labels = labels[:len(labels)-1]
	}
	for v := 0; v < n; v++ {
		dfs(graph.VertexID(v), 0)
	}
	return out
}

// canonicalPath returns min(fwd, rev) of the label sequence joined by "/".
func canonicalPath(labels []string) string {
	fwd := strings.Join(labels, "/")
	rev := make([]string, len(labels))
	for i, l := range labels {
		rev[len(labels)-1-i] = l
	}
	bwd := strings.Join(rev, "/")
	if bwd < fwd {
		return bwd
	}
	return fwd
}

// stringPostings returns idx's postings keyed by canonical label strings,
// decoding the packed or wide ID encoding through the shared interner.
func stringPostings(idx *Index) map[string]*bitset.Set {
	in := graph.SharedInterner()
	rev := make(map[uint64]string, len(idx.local))
	for lid, id := range idx.local {
		rev[id] = in.LabelString(lid)
	}
	out := make(map[string]*bitset.Set, idx.NumFeatures())
	if idx.labelBits > 0 {
		mask := uint64(1)<<idx.labelBits - 1
		for f, s := range idx.postings {
			var ids []uint64
			for ; f != 0; f >>= idx.labelBits {
				ids = append(ids, f&mask)
			}
			labels := make([]string, len(ids)) // ids peel off back-to-front
			for i, id := range ids {
				labels[len(ids)-1-i] = rev[id]
			}
			out[canonicalPath(labels)] = s
		}
	} else {
		for f, s := range idx.wide {
			labels := make([]string, len(f)/4)
			for i := range labels {
				labels[i] = rev[uint64(binary.BigEndian.Uint32([]byte(f[i*4:])))]
			}
			out[canonicalPath(labels)] = s
		}
	}
	return out
}

func wideDB() *graph.DB {
	return graph.NewDB("wide", []*graph.Graph{
		pathGraph("C", "O", "N", "S", "P", "Cl"),
		pathGraph("C", "C", "O", "O", "N"),
		pathGraph("S", "P", "S", "P"),
		pathGraph("Cl", "N", "O", "C", "S"),
	})
}

// TestPostingsMatchLegacyReference proves the interned-ID features are the
// string features of the original implementation: decoded to canonical
// label strings, the postings equal those built from legacyPathFeatures,
// feature for feature and graph for graph, in both keying modes.
func TestPostingsMatchLegacyReference(t *testing.T) {
	cases := []struct {
		name   string
		db     *graph.DB
		maxLen int
	}{
		{"packed-small", testDB(), 3},
		{"packed-emol", dataset.EMolLike(12, 21), 2},
		{"packed-aids", dataset.AIDSLike(15, 7), 3},
		// A path length of 21 with a ≥4-label vocabulary needs 22×3 = 66
		// bits, forcing the wide byte-string keying.
		{"wide-paths", wideDB(), 21},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			idx := build(tc.db, tc.maxLen)
			if strings.HasPrefix(tc.name, "wide") != (idx.labelBits == 0) {
				t.Fatalf("unexpected keying mode: labelBits=%d", idx.labelBits)
			}
			want := make(map[string][]int)
			for gi, g := range tc.db.Graphs {
				for f := range legacyPathFeatures(g, tc.maxLen) {
					want[f] = append(want[f], gi)
				}
			}
			got := stringPostings(idx)
			if len(got) != len(want) {
				t.Errorf("%d features, legacy reference has %d", len(got), len(want))
			}
			features := make([]string, 0, len(want))
			for f := range want {
				features = append(features, f)
			}
			sort.Strings(features)
			for _, f := range features {
				s, ok := got[f]
				if !ok {
					t.Errorf("feature %s missing", f)
					continue
				}
				if g, w := fmt.Sprint(s.Elements()), fmt.Sprint(want[f]); g != w {
					t.Errorf("feature %s: graphs %s, want %s", f, g, w)
				}
			}
		})
	}
}

// TestWideModeSearchExact exercises the wide (byte-string) keying end to
// end: candidates stay a superset and Search matches brute force.
func TestWideModeSearchExact(t *testing.T) {
	db := wideDB()
	idx := build(db, 21)
	if idx.labelBits != 0 {
		t.Fatal("expected wide mode")
	}
	queries := []*graph.Graph{
		pathGraph("C", "O"),
		pathGraph("S", "P", "S"),
		pathGraph("O", "N"),
		pathGraph("Zn"), // unknown label: no candidates
	}
	for qi, q := range queries {
		var want []int
		for gi, g := range db.Graphs {
			if subiso.Contains(g, q) {
				want = append(want, gi)
			}
		}
		res := idx.Search(q)
		got := make([]int, len(res))
		for i, r := range res {
			got[i] = r.GraphIndex
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("query %d: search = %v, want %v", qi, got, want)
		}
	}
	if got := len(idx.Candidates(graph.New(0, 0))); got != db.Len() {
		t.Errorf("empty query candidates = %d, want %d", got, db.Len())
	}
}
