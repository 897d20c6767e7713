// Package csg builds cluster summary graphs (CSGs) by graph closure
// (Sec 4.2, after He & Singh's closure-tree [19]). A CSG integrates every
// data graph of a cluster into one labeled graph: vertices and edges carry
// the set of graph IDs that contain them (Fig 4), so coverage statistics,
// edge weights and the compactness measure ξ_t can be read directly off the
// summary.
//
// Merging a data graph into the growing closure uses a label-preserving
// greedy mapping that maximizes shared edges (an approximation of the
// extended-graph mapping of [19]; exact mapping is NP-hard). Unmapped
// vertices extend the closure — the counterpart of the paper's ε-dummy
// extension, with dummy labels dropped as in Fig 4(d).
package csg

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// IDSet is a set of data-graph indices.
type IDSet map[int]struct{}

// Add inserts id.
func (s IDSet) Add(id int) { s[id] = struct{}{} }

// Has reports membership.
func (s IDSet) Has(id int) bool { _, ok := s[id]; return ok }

// Len returns the cardinality.
func (s IDSet) Len() int { return len(s) }

// Sorted returns the members ascending.
func (s IDSet) Sorted() []int {
	out := make([]int, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// CSG is a cluster summary graph.
type CSG struct {
	// G is the closure structure: the union graph of the cluster.
	G *graph.Graph
	// VertexGraphs[v] is the set of data-graph IDs containing vertex v.
	VertexGraphs []IDSet
	// EdgeGraphs maps each closure edge to the data-graph IDs containing it.
	EdgeGraphs map[graph.Edge]IDSet
	// Members are the data-graph IDs summarized by this CSG.
	Members []int

	// labels holds the interned label of each closure vertex, parallel to
	// G's vertex set, so greedy mapping compares label IDs instead of
	// strings (the closure itself stays mutable while it grows, so it
	// cannot be frozen between merges).
	labels []graph.LabelID
}

// BuildCtx summarizes the given member graphs (indices into db) into a
// CSG. Members are merged in ascending-size order so the closure grows
// from the most typical small structure outward. Cancellation is checked
// before each member merge, and every merge is counted as
// CounterClosureMerges on the context's pipeline tracer.
//
// Under a resilience controller, a cancellation classed as salvageable
// (soft-budget expiry, hard-deadline backstop) after at least one merge
// returns the partially merged closure instead of an error: the summary
// covers a prefix of the smallest member graphs, Members still records the
// full cluster, and the phase is marked degraded with a csg_partial
// counter. Without a controller the legacy contract holds exactly — any
// cancellation returns (nil, err).
func BuildCtx(ctx context.Context, db *graph.DB, members []int) (*CSG, error) {
	ordered := append([]int(nil), members...)
	sort.Slice(ordered, func(i, j int) bool {
		a, b := db.Graph(ordered[i]), db.Graph(ordered[j])
		if a.NumEdges() != b.NumEdges() {
			return a.NumEdges() < b.NumEdges()
		}
		return ordered[i] < ordered[j]
	})

	tr := pipeline.From(ctx)
	anytime := resilience.From(ctx) != nil
	c := &CSG{
		G:          graph.New(16, 16),
		EdgeGraphs: make(map[graph.Edge]IDSet),
		Members:    append([]int(nil), members...),
	}
	for k, m := range ordered {
		if err := ctx.Err(); err != nil {
			if cause := context.Cause(ctx); cause != nil {
				err = cause
			}
			if anytime && k > 0 && resilience.Salvageable(err) {
				resilience.Count(ctx, "csg_partial", 1)
				resilience.Degraded(ctx, fmt.Sprintf("closure truncated at %d/%d members", k, len(ordered)))
				return c, nil
			}
			return nil, err
		}
		c.merge(db.Graph(m), m)
		tr.Add(pipeline.CounterClosureMerges, 1)
	}
	return c, nil
}

// merge integrates data graph g (with database index id) into the closure.
func (c *CSG) merge(g *graph.Graph, id int) {
	f := g.Freeze()
	mapping := c.greedyMapping(f)
	// Create closure vertices for unmapped data vertices.
	for v := 0; v < g.NumVertices(); v++ {
		if mapping[v] < 0 {
			nv := c.G.AddVertex(g.Label(graph.VertexID(v)))
			c.VertexGraphs = append(c.VertexGraphs, IDSet{})
			c.labels = append(c.labels, f.Label(int32(v)))
			mapping[v] = nv
		}
		c.VertexGraphs[mapping[v]].Add(id)
	}
	// Record edges.
	for _, e := range g.Edges() {
		su, sv := mapping[e.U], mapping[e.V]
		se := graph.NewEdge(su, sv)
		if !c.G.HasEdge(su, sv) {
			c.G.MustAddEdge(su, sv)
			c.EdgeGraphs[se] = IDSet{}
		}
		c.EdgeGraphs[se].Add(id)
	}
}

// greedyMapping maps vertices of f (a frozen member graph) onto existing
// closure vertices: pairs must agree on labels (compared as interned IDs),
// the mapping is injective, and pairs are chosen to maximize the number of
// shared edges. Returns -1 for unmapped vertices.
func (c *CSG) greedyMapping(f *graph.Frozen) []graph.VertexID {
	n := f.NumVertices()
	mapping := make([]graph.VertexID, n)
	for i := range mapping {
		mapping[i] = -1
	}
	if c.G.NumVertices() == 0 {
		return mapping
	}
	used := make([]bool, c.G.NumVertices())

	// Candidate pairs by label.
	type pair struct{ gv, sv graph.VertexID }
	var pairs []pair
	for gv := 0; gv < n; gv++ {
		for sv := 0; sv < c.G.NumVertices(); sv++ {
			if f.Label(int32(gv)) == c.labels[sv] {
				pairs = append(pairs, pair{graph.VertexID(gv), graph.VertexID(sv)})
			}
		}
	}
	if len(pairs) == 0 {
		return mapping
	}

	gain := func(p pair) int {
		t := 0
		for _, gw := range f.Neighbors(int32(p.gv)) {
			if img := mapping[gw]; img >= 0 && c.G.HasEdge(p.sv, img) {
				t++
			}
		}
		return t
	}

	// Seed: highest degree product, deterministic tie-break.
	best := pairs[0]
	bestScore := -1
	for _, p := range pairs {
		s := int(f.Degree(int32(p.gv))) * c.G.Degree(p.sv)
		if s > bestScore || (s == bestScore && (p.gv < best.gv || (p.gv == best.gv && p.sv < best.sv))) {
			best, bestScore = p, s
		}
	}
	mapping[best.gv] = best.sv
	used[best.sv] = true

	// Grow: repeatedly map the available pair with maximal positive gain.
	for {
		var pick pair
		pickGain := 0
		found := false
		for _, p := range pairs {
			if mapping[p.gv] >= 0 || used[p.sv] {
				continue
			}
			if gn := gain(p); gn > pickGain ||
				(gn == pickGain && gn > 0 && found && (p.gv < pick.gv || (p.gv == pick.gv && p.sv < pick.sv))) {
				pick, pickGain, found = p, gn, true
			}
		}
		if !found || pickGain == 0 {
			break
		}
		mapping[pick.gv] = pick.sv
		used[pick.sv] = true
	}
	return mapping
}

// Contains reports whether the CSG records data graph id as containing the
// given closure edge.
func (c *CSG) Contains(e graph.Edge, id int) bool {
	s, ok := c.EdgeGraphs[e]
	return ok && s.Has(id)
}

// EdgeSupport returns |{graphs in the cluster containing edge e}|.
func (c *CSG) EdgeSupport(e graph.Edge) int {
	return c.EdgeGraphs[e].Len()
}

// Compactness returns ξ_t = |E_t| / |E_S| where E_t is the set of closure
// edges contained in at least t × |C| member graphs (Sec 6.1, performance
// measure (c)). A CSG with no edges has compactness 0.
func (c *CSG) Compactness(t float64) float64 {
	total := len(c.EdgeGraphs)
	if total == 0 {
		return 0
	}
	threshold := t * float64(len(c.Members))
	count := 0
	for _, ids := range c.EdgeGraphs {
		if float64(ids.Len()) >= threshold {
			count++
		}
	}
	return float64(count) / float64(total)
}

// BuildAllCtx summarizes every cluster of a clustering into CSGs, building
// independent clusters in parallel, with cooperative cancellation and
// tracing: the parallel per-cluster loop stops claiming clusters once ctx
// is cancelled, in-flight closures abort at their next member merge, and
// the whole phase is reported as StageCSG. On cancellation it returns (nil, ctx.Err()).
//
// Under a resilience controller the phase degrades instead of failing:
// worker panics are contained per cluster (par.ForCtxRecover) and recorded
// as stage faults, salvageable cancellations keep whatever summaries were
// built, and the returned slice marks every faulted or unstarted cluster
// with a nil entry (counted as csg_skipped) for the caller to filter. Only
// a non-salvageable abort (explicit user cancel) still returns an error.
func BuildAllCtx(ctx context.Context, db *graph.DB, clusters [][]int) ([]*CSG, error) {
	ctx, done := pipeline.Scope(ctx, pipeline.StageCSG)
	defer done()
	out := make([]*CSG, len(clusters))
	ctrl := resilience.From(ctx)
	if ctrl == nil {
		errs := make([]error, len(clusters))
		err := par.ForCtx(ctx, len(clusters), func(i int) {
			out[i], errs[i] = BuildCtx(ctx, db, clusters[i])
		})
		if err != nil {
			return nil, err
		}
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return out, nil
	}

	errs := make([]error, len(clusters))
	faults, err := par.ForCtxRecover(ctx, len(clusters), func(i int) {
		out[i], errs[i] = BuildCtx(ctx, db, clusters[i])
	})
	for _, f := range faults {
		ctrl.RecordFault(f)
	}
	if err != nil && !resilience.Salvageable(err) {
		return nil, err
	}
	for i, e := range errs {
		if e != nil && !resilience.Salvageable(e) {
			return nil, e
		}
		if e != nil {
			out[i] = nil
		}
	}
	var skipped int64
	for _, c := range out {
		if c == nil {
			skipped++
		}
	}
	if skipped > 0 {
		ctrl.Count("csg_skipped", skipped)
		ctrl.MarkDegraded(fmt.Sprintf("%d/%d cluster summaries skipped", skipped, len(clusters)))
	}
	return out, nil
}
