// Package bignet opens the large-network workload: canned-pattern
// selection over one big graph (social/citation/web networks, millions
// of edges) instead of a database of many small graphs.
//
// CATAPULT's pipeline assumes a graph DB whose units of coverage are
// whole small graphs. Its successor work (arXiv 2107.09952) moves
// canned-pattern selection onto a single large network; this package
// bridges the two by decomposing the network into a synthetic DB the
// existing cluster→CSG→select pipeline consumes unchanged:
//
//  1. Streaming loaders (LoadEdgeListCtx, LoadBinaryCtx) build a
//     graph.Frozen CSR directly from SNAP-style text or a compact binary
//     format — no mutable Graph intermediate, bounded memory, progress
//     counters on the pipeline Trace, context cancellation.
//  2. Decompose partitions the edge set into deterministic BFS-grown
//     regions with a size cap (every edge in exactly one region), then
//     samples per-region representative subgraphs by seeded random
//     walks. The representatives become a graph.DB of region summaries
//     — the unit of coverage, per TED (arXiv 2212.07612).
//
// Everything downstream — clustering, CSG closure, MWU selection,
// serving — works on the summary DB exactly as it does on a database of
// small graphs.
package bignet

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/pipeline"
)

// Options tunes network decomposition (facade: catapult.Config.Network).
type Options struct {
	// Name labels the synthetic summary DB ("<Name>-regions"). Default
	// "network".
	Name string
	// MaxRegionEdges caps the edge count of one region. Default 4096.
	MaxRegionEdges int
	// Reps is the number of representative subgraphs sampled per region
	// (regions at or below repMaxEdges contribute themselves once).
	// Default 2.
	Reps int
	// Seed drives representative sampling. The facade gives a zero Seed
	// the value of its Config.Seed.
	Seed int64
}

// repMinEdges and repMaxEdges bound the sampled representative sizes: a
// pattern-sized subgraph.
const (
	repMinEdges = 4
	repMaxEdges = 10
)

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "network"
	}
	if o.MaxRegionEdges <= 0 {
		o.MaxRegionEdges = 4096
	}
	if o.Reps <= 0 {
		o.Reps = 2
	}
	return o
}

// Decomposition is the result of decomposing one large network.
type Decomposition struct {
	// Regions is the edge partition, in creation order. Every network
	// edge appears in exactly one region; region edge counts respect
	// Options.MaxRegionEdges.
	Regions []Region
	// DB is the synthetic database of region representatives, ready for
	// the standard pipeline. Graph IDs are sequential in (region, rep)
	// order.
	DB *graph.DB
	// Reps is the total number of representative graphs in DB.
	Reps int
}

// Decompose partitions the frozen network into capped edge regions and
// samples per-region representative subgraphs into a synthetic DB. The
// output is a pure function of (f, opts) — independent of GOMAXPROCS and
// repeatable for a fixed seed — which the differential suite pins.
func Decompose(ctx context.Context, f *graph.Frozen, opts Options) (*Decomposition, error) {
	opts = opts.withDefaults()
	if f == nil {
		return nil, fmt.Errorf("bignet: nil network")
	}

	pctx, done := pipeline.Scope(ctx, pipeline.StageNetPartition)
	regions, err := partitionEdges(pctx, f, opts.MaxRegionEdges)
	done()
	if err != nil {
		return nil, err
	}

	sctx, done := pipeline.Scope(ctx, pipeline.StageNetSummarize)
	reps, err := summarize(sctx, f, regions, opts)
	done()
	if err != nil {
		return nil, err
	}

	return &Decomposition{
		Regions: regions,
		DB:      graph.NewDB(opts.Name+"-regions", reps),
		Reps:    len(reps),
	}, nil
}
