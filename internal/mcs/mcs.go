// Package mcs computes maximum common (connected) subgraphs and the
// similarity measures the paper builds on them (Sec 2):
//
//	ωmcs(G1,G2)  = |Gmcs|  / min(|G1|,|G2|)
//	ωmccs(G1,G2) = |Gmccs| / min(|G1|,|G2|)
//
// where |G| = |E|. MCCS is computed with a McGregor-style backtracking
// search over vertex correspondences (McGregor 1982): the mapping is grown
// one label-compatible, adjacency-connected vertex pair at a time, and the
// objective is the number of common edges. Because the problem is
// NP-complete, the search takes a node budget; when the budget is exhausted
// the best mapping found so far is returned, which is sufficient for the
// similarity *rankings* that fine clustering needs.
//
// MCS (the unconnected variant) is computed as a greedy union of connected
// common subgraphs: repeatedly find an MCCS on the still-unmatched vertices
// and remove it, until no common edge remains. This matches how mcs-based
// fine clustering is evaluated as a baseline in Exp 1.
package mcs

import (
	"context"
	"fmt"

	"repro/internal/graph"
)

// Kind selects which of the two similarity measures a caller wants; it
// exists so engines that memoize similarities (internal/simcache) and the
// clustering strategies that consume them can carry the choice as a value
// instead of branching at every call site.
type Kind int

const (
	// KindMCCS is the connected measure ωmccs (the paper's default).
	KindMCCS Kind = iota
	// KindMCS is the unconnected measure ωmcs (the Exp 1 baseline).
	KindMCS
)

func (k Kind) String() string {
	switch k {
	case KindMCCS:
		return "mccs"
	case KindMCS:
		return "mcs"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// SimilarityKindCtx dispatches to SimilarityMCCSCtx or SimilarityMCSCtx
// according to k.
func SimilarityKindCtx(ctx context.Context, k Kind, g1, g2 *graph.Graph, budget int) (float64, error) {
	if k == KindMCS {
		return SimilarityMCSCtx(ctx, g1, g2, budget)
	}
	return SimilarityMCCSCtx(ctx, g1, g2, budget)
}

// Pair is a correspondence between a vertex of G1 and a vertex of G2.
type Pair struct {
	V1, V2 graph.VertexID
}

// Result describes a common subgraph found between two graphs.
type Result struct {
	Pairs []Pair // vertex correspondences
	Edges int    // number of common edges, |Gcommon|
	// Exhausted reports whether the search ran out of its node budget
	// before exploring the full space (the result may then be suboptimal).
	Exhausted bool
}

// DefaultBudget is the default number of search-tree nodes explored per
// MCCS computation. It bounds worst-case latency; it does not make the
// search exact. The search has no bound to prune with and revisits every
// mapping in every order, so on molecules of ~10-60 vertices it rarely
// finishes: all 657 MCCS searches of a quickstart mine stop at the 20000
// nodes fine clustering grants them (counted as mcs_budget_exhausted, and
// their 13.14M nodes as mcs_nodes), and the result is then the best
// mapping found in the budget.
const DefaultBudget = 200000

// ctxCheckMask throttles cancellation polling to once every 256 explored
// search nodes.
const ctxCheckMask = 0xff

// Subgraph materializes the common subgraph described by r as a standalone
// graph, using labels and edges from g1.
func (r Result) Subgraph(g1 *graph.Graph) *graph.Graph {
	vs := make([]graph.VertexID, 0, len(r.Pairs))
	for _, p := range r.Pairs {
		vs = append(vs, p.V1)
	}
	sub, _ := g1.InducedSubgraph(vs)
	return sub
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
