// Region summarization: random-walk sampling of representative
// subgraphs, the unit of coverage for large-network selection.
//
// A region is too big to be a pattern source directly (thousands of
// edges), so each region contributes a handful of pattern-sized
// connected subgraphs sampled by seeded edge-growth walks — the same
// primitive the query-workload generator uses. Small regions contribute
// themselves. The flattened representatives, in region order, become the
// synthetic DB.
//
// Determinism: regions are processed in parallel (par.ForCtx, one output
// slot per region), but each region derives its own RNG from
// mix(seed, regionID) and writes only its own slot — so the result is
// independent of scheduling and GOMAXPROCS, and identical across runs
// with the same seed. A walk cannot fail: a sampled region is connected
// (every claimed edge touches a vertex its region already reached) and
// has more edges than any representative, so growth always reaches the
// drawn size; a failed walk is a bug and panics with the region ID.
package bignet

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pipeline"
)

// mix derives a per-region RNG seed from the run seed, splitmix64-style,
// so neighboring region IDs get uncorrelated streams.
func mix(seed int64, region int) int64 {
	z := uint64(seed) + uint64(region)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// regionGraph materializes the interleaved network edge pairs as a
// mutable graph with dense local vertex IDs in first-seen order (each
// pair's first vertex before its second) and labels resolved through the
// network's interner.
func regionGraph(f *graph.Frozen, pairs []int32) *graph.Graph {
	m := len(pairs) / 2
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
		u := vertex(pairs[i])
		v := vertex(pairs[i+1])
		g.MustAddEdge(u, v)
	}
	return g
}

// regionCSR lays a region out for Frozen.RandomConnectedEdges, numbered as
// regionGraph numbers it: a frozen region-local CSR whose vertex IDs are
// first seen in claim order, the edges as canonical local pairs in claim
// order (the draw order; the CSR's own edge pairs are sorted), and orig
// mapping local IDs back to network vertices.
func regionCSR(f *graph.Frozen, reg *Region) (csr *graph.Frozen, edges, orig []int32) {
	local := make(map[int32]int32, reg.Vertices)
	b := graph.NewFrozenBuilder(reg.Vertices, reg.NumEdges())
	orig = make([]int32, 0, reg.Vertices)
	edges = make([]int32, len(reg.Edges))
	for i, v := range reg.Edges {
		lv, ok := local[v]
		if !ok {
			lv = b.AddVertexID(f.Label(v))
			local[v] = lv
			orig = append(orig, v)
		}
		edges[i] = lv
	}
	for i := 0; i < len(edges); i += 2 {
		if edges[i] > edges[i+1] {
			edges[i], edges[i+1] = edges[i+1], edges[i]
		}
		b.AddEdge(edges[i], edges[i+1])
	}
	return b.Build(reg.ID), edges, orig
}

// summarize samples representative subgraphs for every region, in
// parallel, and returns them flattened in (region, rep) order. A
// representative is numbered as graph.RandomConnectedSubgraph on
// regionGraph(f, reg.Edges) would number it: its picked local pairs,
// mapped back to network vertices in the same order, go through
// regionGraph, whose first-seen numbering is EdgeSubgraph's.
func summarize(ctx context.Context, f *graph.Frozen, regions []Region, opts Options) ([]*graph.Graph, error) {
	tr := pipeline.From(ctx)
	perRegion := make([][]*graph.Graph, len(regions))
	err := par.ForCtx(ctx, len(regions), func(i int) {
		reg := &regions[i]
		if reg.NumEdges() <= repMaxEdges {
			perRegion[i] = []*graph.Graph{regionGraph(f, reg.Edges)}
			return
		}
		csr, edges, orig := regionCSR(f, reg)
		rng := rand.New(rand.NewSource(mix(opts.Seed, reg.ID)))
		reps := make([]*graph.Graph, 0, opts.Reps)
		for r := 0; r < opts.Reps; r++ {
			size := repMinEdges + rng.Intn(repMaxEdges-repMinEdges+1)
			picked := csr.RandomConnectedEdges(edges, size, rng)
			if picked == nil {
				panic(fmt.Sprintf("bignet: region %d: no connected %d-edge sample of %d edges", reg.ID, size, reg.NumEdges()))
			}
			for j, lv := range picked {
				picked[j] = orig[lv]
			}
			reps = append(reps, regionGraph(f, picked))
		}
		perRegion[i] = reps
	})
	if err != nil {
		return nil, err
	}
	var out []*graph.Graph
	for _, reps := range perRegion {
		out = append(out, reps...)
	}
	tr.Add(pipeline.CounterNetRepsSampled, int64(len(out)))
	return out, nil
}
