// Deterministic edge partitioning: the big-graph replacement for coarse
// clustering.
//
// Coarse clustering groups whole small graphs; a single network has
// nothing to group, so we partition its edge set instead. Seeds are
// vertices in (degree desc, id asc) order — hubs first, so dense
// neighborhoods become coherent regions — and each region grows by BFS
// from its seed, claiming unassigned edges until the size cap. A seed is
// revisited until no unassigned edge remains incident to it (a capped
// region can strand edges at its own seed), which is what makes coverage
// total: when the seed loop passes vertex s, every edge incident to s is
// assigned, and every edge is incident to some vertex.
//
// The whole pass is sequential and iterates sorted CSR rows, so the
// partition is a pure function of the frozen network — bit-identical
// across GOMAXPROCS settings and runs, which the differential suite and
// FuzzPartitionInvariants pin (every edge in exactly one region, sizes
// within the cap, the same regions as the binary-search oracle in the
// test files).
package bignet

import (
	"context"

	"repro/internal/graph"
	"repro/internal/pipeline"
)

// Region is one element of the edge partition.
type Region struct {
	// ID is the region's index in Decomposition.Regions.
	ID int
	// Seed is the vertex the region was grown from.
	Seed int32
	// Edges holds the claimed edges as interleaved canonical (u <= v)
	// pairs in claim order. Claim order is a BFS order: every prefix of
	// the list is a connected subgraph.
	Edges []int32
	// Vertices is the number of distinct endpoints in Edges.
	Vertices int
}

// NumEdges returns the region's edge count.
func (r *Region) NumEdges() int { return len(r.Edges) / 2 }

// slotEdges numbers the network's edges by CSR slot: both slots of an
// edge hold its rank among the canonical (u < v) pairs in ascending order,
// the dense edge ID. One pass over the rows in ascending u numbers each
// slot (u, v) with v > u in that order. Its twin in row v is the next
// unfilled slot of row v's prefix of smaller neighbours, which fills in
// ascending u just as the pass does; so when the pass reaches row u, that
// prefix is exactly the slots before next[u]. The IDs come from the rows,
// not from EdgePairs, whose order depends on how the network was built.
func slotEdges(f *graph.Frozen) []int32 {
	off, nb := f.CSR()
	n := int32(f.NumVertices())
	edgeOf := make([]int32, len(nb))
	next := append([]int32(nil), off[:n]...)
	id := int32(0)
	for u := int32(0); u < n; u++ {
		for s := next[u]; s < off[u+1]; s++ {
			v := nb[s]
			edgeOf[s] = id
			edgeOf[next[v]] = id
			next[v]++
			id++
		}
	}
	return edgeOf
}

// seedOrder lists the vertices by degree desc, id asc: a stable counting
// sort on degree, filled in ascending id.
func seedOrder(f *graph.Frozen) []int32 {
	n := int32(f.NumVertices())
	top := f.MaxDegree()
	// first[k] is the next position for a vertex of degree top-k.
	first := make([]int32, top+2)
	for v := int32(0); v < n; v++ {
		first[top-f.Degree(v)+1]++
	}
	for k := 1; k < len(first); k++ {
		first[k] += first[k-1]
	}
	seeds := make([]int32, n)
	for v := int32(0); v < n; v++ {
		k := top - f.Degree(v)
		seeds[first[k]] = v
		first[k]++
	}
	return seeds
}

// partitionEdges splits the network's edges into BFS-grown regions of at
// most maxEdges edges each.
func partitionEdges(ctx context.Context, f *graph.Frozen, maxEdges int) ([]Region, error) {
	tr := pipeline.From(ctx)
	n := int32(f.NumVertices())
	off, nb := f.CSR()
	edgeOf := slotEdges(f)
	assigned := make([]bool, f.NumEdges())

	// mark[v] == region ID of the region currently visiting v; -1 never.
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}

	var regions []Region
	var queue []int32
	for _, s := range seedOrder(f) {
		for hasUnassigned(edgeOf[off[s]:off[s+1]], assigned) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
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
				for slot := off[v]; slot < off[v+1]; slot++ {
					eid := edgeOf[slot]
					if assigned[eid] {
						continue
					}
					assigned[eid] = true
					w := nb[slot]
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
	tr.Add(pipeline.CounterNetRegions, int64(len(regions)))
	return regions, nil
}

// hasUnassigned reports whether any of the edges in ids is unassigned.
func hasUnassigned(ids []int32, assigned []bool) bool {
	for _, eid := range ids {
		if !assigned[eid] {
			return true
		}
	}
	return false
}
