package bignet

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// The test-file oracle for Decompose: the binary-search partition, the
// mutable region graphs and the map-based sampler that slot numbering,
// the counting-sort seed order and the array sampler replaced.
// TestDecomposeMatchesLegacy and FuzzPartitionInvariants compare against
// it; `make diff-race` runs the former.

func packEdge(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// edgeIndex resolves edge keys to dense edge IDs by binary search over
// the sorted key array.
type edgeIndex []uint64

func newEdgeIndex(f *graph.Frozen) edgeIndex {
	ep := f.EdgePairs()
	keys := make(edgeIndex, 0, len(ep)/2)
	for i := 0; i < len(ep); i += 2 {
		keys = append(keys, packEdge(ep[i], ep[i+1]))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func (ix edgeIndex) id(u, v int32) int {
	key := packEdge(u, v)
	lo, hi := 0, len(ix)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func legacyPartition(f *graph.Frozen, maxEdges int) []Region {
	n := int32(f.NumVertices())
	ix := newEdgeIndex(f)
	assigned := make([]bool, len(ix))

	seeds := make([]int32, n)
	for v := int32(0); v < n; v++ {
		seeds[v] = v
	}
	sort.Slice(seeds, func(i, j int) bool {
		di, dj := f.Degree(seeds[i]), f.Degree(seeds[j])
		if di != dj {
			return di > dj
		}
		return seeds[i] < seeds[j]
	})

	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	hasUnassigned := func(s int32) bool {
		for _, w := range f.Neighbors(s) {
			if !assigned[ix.id(s, w)] {
				return true
			}
		}
		return false
	}

	var regions []Region
	var queue []int32
	for _, s := range seeds {
		for hasUnassigned(s) {
			id := int32(len(regions))
			reg := Region{ID: int(id), Seed: s}
			queue = queue[:0]
			queue = append(queue, s)
			mark[s] = id
			reg.Vertices = 1
		grow:
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, w := range f.Neighbors(v) {
					eid := ix.id(v, w)
					if assigned[eid] {
						continue
					}
					assigned[eid] = true
					if v <= w {
						reg.Edges = append(reg.Edges, v, w)
					} else {
						reg.Edges = append(reg.Edges, w, v)
					}
					if mark[w] != id {
						mark[w] = id
						reg.Vertices++
						queue = append(queue, w)
					}
					if len(reg.Edges)/2 >= maxEdges {
						break grow
					}
				}
			}
			regions = append(regions, reg)
		}
	}
	return regions
}

func legacyRegionGraph(f *graph.Frozen, reg *Region, limit int) *graph.Graph {
	m := reg.NumEdges()
	if limit > 0 && limit < m {
		m = limit
	}
	local := make(map[int32]graph.VertexID, 2*m)
	g := graph.New(2*m, m)
	vertex := func(v int32) graph.VertexID {
		if lv, ok := local[v]; ok {
			return lv
		}
		lv := g.AddVertex(f.LabelString(v))
		local[v] = lv
		return lv
	}
	for i := 0; i < 2*m; i += 2 {
		u := vertex(reg.Edges[i])
		v := vertex(reg.Edges[i+1])
		g.MustAddEdge(u, v)
	}
	return g
}

func legacyRandomConnectedSubgraph(g *graph.Graph, size int, rng *rand.Rand) *graph.Graph {
	if size <= 0 || g.NumEdges() < size {
		return nil
	}
	start := g.Edges()[rng.Intn(g.NumEdges())]
	inV := map[graph.VertexID]struct{}{start.U: {}, start.V: {}}
	inE := map[graph.Edge]struct{}{start: {}}
	picked := []graph.Edge{start}
	for len(picked) < size {
		var frontier []graph.Edge
		for v := range inV {
			for _, w := range g.Neighbors(v) {
				e := graph.NewEdge(v, w)
				if _, ok := inE[e]; !ok {
					frontier = append(frontier, e)
				}
			}
		}
		if len(frontier) == 0 {
			return nil
		}
		sort.Slice(frontier, func(i, j int) bool {
			if frontier[i].U != frontier[j].U {
				return frontier[i].U < frontier[j].U
			}
			return frontier[i].V < frontier[j].V
		})
		e := frontier[rng.Intn(len(frontier))]
		inE[e] = struct{}{}
		inV[e.U] = struct{}{}
		inV[e.V] = struct{}{}
		picked = append(picked, e)
	}
	sub, _ := g.EdgeSubgraph(picked)
	return sub
}

// legacyDecompose is Decompose before slot numbering, sequential (the
// per-region RNGs make the order irrelevant).
func legacyDecompose(f *graph.Frozen, opts Options) *Decomposition {
	opts = opts.withDefaults()
	regions := legacyPartition(f, opts.MaxRegionEdges)
	var reps []*graph.Graph
	for i := range regions {
		reg := &regions[i]
		full := legacyRegionGraph(f, reg, 0)
		if reg.NumEdges() <= repMaxEdges {
			reps = append(reps, full)
			continue
		}
		rng := rand.New(rand.NewSource(mix(opts.Seed, reg.ID)))
		for r := 0; r < opts.Reps; r++ {
			size := repMinEdges + rng.Intn(repMaxEdges-repMinEdges+1)
			g := legacyRandomConnectedSubgraph(full, size, rng)
			if g == nil {
				g = legacyRegionGraph(f, reg, size)
			}
			reps = append(reps, g)
		}
	}
	return &Decomposition{Regions: regions, DB: graph.NewDB(opts.Name+"-regions", reps), Reps: len(reps)}
}

// freezeCopies returns two Freeze()-built copies of f: Thaw().Freeze(),
// whose edge pairs keep f's order, and one frozen from a graph with the
// edges inserted in reverse, whose edge pairs are in that insertion order
// rather than the loader's sorted one. Both have f's CSR rows, so both
// decompose as f does.
func freezeCopies(f *graph.Frozen) []*graph.Frozen {
	rev := graph.New(f.NumVertices(), f.NumEdges())
	for v := int32(0); v < int32(f.NumVertices()); v++ {
		rev.AddVertex(f.LabelString(v))
	}
	ep := f.EdgePairs()
	for i := len(ep) - 2; i >= 0; i -= 2 {
		rev.MustAddEdge(graph.VertexID(ep[i+1]), graph.VertexID(ep[i]))
	}
	return []*graph.Frozen{f.Thaw().Freeze(), rev.Freeze()}
}

func loadNetwork(t *testing.T, cfg dataset.NetworkConfig) *graph.Frozen {
	t.Helper()
	var text bytes.Buffer
	if err := dataset.WriteNetworkText(&text, cfg); err != nil {
		t.Fatal(err)
	}
	f, _, err := LoadEdgeListCtx(context.Background(), &text, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDecomposeMatchesLegacy pins Decompose to the oracle bit for bit:
// regions by reflect.DeepEqual, every representative by String (labels
// included). The networks are the network workload's R-MAT network at two
// dataset seeds with default options, a denser one at cap 300 and 5 reps,
// a small one at cap 37 and 3 reps, and one at cap 7, below the 10-edge
// cut, whose regions are all their own representatives; each is checked as
// loaded and as its two Freeze()-built copies. Together the cases reach
// regions on both sides of the cut.
func TestDecomposeMatchesLegacy(t *testing.T) {
	cases := []struct {
		net  dataset.NetworkConfig
		opts Options
	}{
		{dataset.NetworkConfig{Vertices: 1 << 14, Edges: 100_000, Labels: 8, Seed: 1}, Options{Seed: 42}},
		{dataset.NetworkConfig{Vertices: 1 << 14, Edges: 100_000, Labels: 8, Seed: 2}, Options{Seed: 42}},
		{dataset.NetworkConfig{Vertices: 1 << 12, Edges: 20_000, Labels: 5, Seed: 3}, Options{MaxRegionEdges: 300, Reps: 5, Seed: 7}},
		{dataset.NetworkConfig{Vertices: 1 << 10, Edges: 6_000, Labels: 4, Seed: 4}, Options{MaxRegionEdges: 37, Reps: 3, Seed: 11}},
		{dataset.NetworkConfig{Vertices: 1 << 10, Edges: 6_000, Labels: 4, Seed: 5}, Options{MaxRegionEdges: 7, Reps: 2, Seed: 13}},
	}
	whole, sampled := 0, 0
	for i, c := range cases {
		f := loadNetwork(t, c.net)
		want := legacyDecompose(f, c.opts)
		for _, reg := range want.Regions {
			if reg.NumEdges() > repMaxEdges {
				sampled++
			} else {
				whole++
			}
		}
		for j, g := range append([]*graph.Frozen{f}, freezeCopies(f)...) {
			got, err := Decompose(context.Background(), g, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameDecomposition(t, fmt.Sprintf("case %d copy %d", i, j), got, want)
		}
	}
	if whole == 0 || sampled == 0 {
		t.Fatalf("%d whole and %d sampled regions; the cases must reach both sides of the %d-edge cut",
			whole, sampled, repMaxEdges)
	}
}
