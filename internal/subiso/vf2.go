// Package subiso implements subgraph isomorphism testing with the VF2
// algorithm (Cordella et al., IEEE TPAMI 2004), the primitive the paper uses
// for cluster-coverage checks (Sec 5, "we use the vf2 algorithm [14]").
//
// The matcher finds (non-induced) subgraph isomorphisms: an injective
// mapping from pattern vertices to target vertices preserving vertex labels
// and mapping every pattern edge onto a target edge. This is the standard
// semantics for subgraph queries ("G contains a subgraph s isomorphic
// to p"). Every entry point runs the one Matcher on the frozen (CSR) forms
// of its graphs, which are built on first use and memoized on the graphs.
package subiso

import (
	"repro/internal/graph"
)

// Mapping maps pattern vertex IDs to target vertex IDs.
type Mapping []graph.VertexID

// Options tunes an embedding enumeration.
type Options struct {
	// MaxSolutions stops the search after this many embeddings have been
	// reported. Zero means unlimited.
	MaxSolutions int
}

// ctxCheckMask throttles cancellation polling: the context is consulted
// once every 256 expanded search nodes, keeping the overhead of a
// cancellable search negligible while bounding cancellation latency.
const ctxCheckMask = 0xff

// FindOne returns one embedding of p in t, or nil if none exists.
func FindOne(t, p *graph.Graph) Mapping {
	ms := FindAll(t, p, Options{MaxSolutions: 1})
	if len(ms) == 0 {
		return nil
	}
	return ms[0]
}

// FindAll returns up to opts.MaxSolutions embeddings of p in t (all of them
// if MaxSolutions is zero), in search order.
func FindAll(t, p *graph.Graph, opts Options) []Mapping {
	m := matcherPool.Get().(*Matcher)
	ms := m.FindAll(t.Freeze(), p.Freeze(), opts.MaxSolutions)
	matcherPool.Put(m)
	return ms
}
