package subiso

import (
	"context"
	"sync"

	"repro/internal/graph"
	"repro/internal/pipeline"
)

// Matcher is a reusable VF2 matcher over frozen (CSR) graphs. It owns the
// per-search scratch state — the pattern→target core array and the
// target-used bitmap — and grows it monotonically, so a warm Matcher runs
// a containment check with zero allocations: candidates are iterated
// directly off the frozen neighbor slices and boolean answers never
// materialize a Mapping. A Matcher is not safe for concurrent use; the
// package-level entry points draw from a sync.Pool.
//
// The search visits pattern vertices in graph.MatchingOrder (cached on the
// Frozen) and candidate target vertices in ascending order, so embeddings
// are enumerated in a deterministic order. The test suite checks answers,
// budget exhaustion and enumeration order against a VF2 oracle on the
// mutable graph representation.
type Matcher struct {
	t, p     *graph.Frozen
	order    []int32
	core     []int32 // pattern -> target, -1 if unmapped
	used     []bool  // target vertex already mapped
	nodes    int
	maxNodes int
	found    bool
	stopped  bool
	ctx      context.Context
	ctxErr   error

	// enumerate makes a complete embedding append to embeddings instead
	// of ending the search; limit caps them (zero = unlimited).
	enumerate  bool
	limit      int
	embeddings []Mapping
}

// NewMatcher returns an empty matcher ready for use.
func NewMatcher() *Matcher { return new(Matcher) }

var matcherPool = sync.Pool{New: func() any { return new(Matcher) }}

// reset prepares the scratch state for a search of pattern p in target t.
func (m *Matcher) reset(t, p *graph.Frozen) {
	m.t, m.p = t, p
	m.order = p.MatchingOrder()
	np, nt := p.NumVertices(), t.NumVertices()
	if cap(m.core) < np {
		m.core = make([]int32, np)
	}
	m.core = m.core[:np]
	for i := range m.core {
		m.core[i] = -1
	}
	if cap(m.used) < nt {
		m.used = make([]bool, nt)
	}
	m.used = m.used[:nt]
	for i := range m.used {
		m.used[i] = false
	}
	m.nodes = 0
	m.maxNodes = 0
	m.found = false
	m.stopped = false
	m.ctx = nil
	m.ctxErr = nil
	m.enumerate = false
	m.limit = 0
	m.embeddings = nil
}

// Contains reports whether pattern p is subgraph-isomorphic to target t.
// Zero allocations once the matcher's scratch buffers and the pattern's
// cached matching order are warm.
func (m *Matcher) Contains(t, p *graph.Frozen) bool {
	if quickRejectFrozen(t, p) {
		return false
	}
	m.reset(t, p)
	m.search(0)
	return m.found
}

// ContainsCtx is Contains with cooperative cancellation, polling ctx once
// every ctxCheckMask+1 expanded nodes.
func (m *Matcher) ContainsCtx(ctx context.Context, t, p *graph.Frozen) (bool, error) {
	if quickRejectFrozen(t, p) {
		return false, nil
	}
	m.reset(t, p)
	m.ctx = ctx
	m.search(0)
	if m.found {
		return true, nil
	}
	return false, m.ctxErr
}

// ContainsBudget is Contains with a bound on expanded search nodes,
// mirroring the package-level ContainsBudget contract.
func (m *Matcher) ContainsBudget(t, p *graph.Frozen, maxNodes int) (contained, definitive bool) {
	if quickRejectFrozen(t, p) {
		return false, true
	}
	m.reset(t, p)
	m.maxNodes = maxNodes
	m.search(0)
	if m.found {
		return true, true
	}
	return false, !m.stopped || m.nodes < maxNodes
}

// FindAll returns up to limit embeddings of p in t (all of them if limit
// is zero), in search order. Unlike the boolean checks it allocates one
// Mapping per embedding.
func (m *Matcher) FindAll(t, p *graph.Frozen, limit int) []Mapping {
	if quickRejectFrozen(t, p) {
		return nil
	}
	m.reset(t, p)
	m.enumerate = true
	m.limit = limit
	m.search(0)
	out := m.embeddings
	m.embeddings = nil
	return out
}

func (m *Matcher) search(depth int) {
	if m.stopped {
		return
	}
	if m.maxNodes > 0 && m.nodes >= m.maxNodes {
		m.stopped = true
		return
	}
	if m.ctx != nil && m.nodes&ctxCheckMask == ctxCheckMask {
		if err := m.ctx.Err(); err != nil {
			m.ctxErr = err
			m.stopped = true
			return
		}
	}
	m.nodes++
	if depth == len(m.order) {
		m.found = true
		if !m.enumerate {
			m.stopped = true
			return
		}
		var mp Mapping // stays nil for the empty pattern: FindOne reports no embedding
		if len(m.core) > 0 {
			mp = make(Mapping, len(m.core))
			for i, tv := range m.core {
				mp[i] = graph.VertexID(tv)
			}
		}
		m.embeddings = append(m.embeddings, mp)
		if m.limit > 0 && len(m.embeddings) >= m.limit {
			m.stopped = true
		}
		return
	}

	pv := m.order[depth]
	// Candidate enumeration: if pv has an already-mapped pattern neighbor,
	// candidates are the target neighbors of that neighbor's image;
	// otherwise every target vertex. Both are iterated in ascending order.
	for _, pn := range m.p.Neighbors(pv) {
		if m.core[pn] >= 0 {
			for _, tv := range m.t.Neighbors(m.core[pn]) {
				m.try(pv, tv, depth)
				if m.stopped {
					return
				}
			}
			return
		}
	}
	for tv := int32(0); int(tv) < m.t.NumVertices(); tv++ {
		m.try(pv, tv, depth)
		if m.stopped {
			return
		}
	}
}

// try maps pv -> tv if feasible and recurses.
func (m *Matcher) try(pv, tv int32, depth int) {
	if m.used[tv] {
		return
	}
	if m.p.Label(pv) != m.t.Label(tv) {
		return
	}
	if m.p.Degree(pv) > m.t.Degree(tv) {
		return
	}
	for _, pn := range m.p.Neighbors(pv) {
		if tn := m.core[pn]; tn >= 0 && !m.t.HasEdge(tv, tn) {
			return
		}
	}
	m.core[pv] = tv
	m.used[tv] = true
	m.search(depth + 1)
	m.core[pv] = -1
	m.used[tv] = false
}

// quickRejectFrozen applies cheap necessary conditions before running VF2,
// on precomputed frozen summaries: enough vertices, edges and vertices of
// every pattern label.
func quickRejectFrozen(t, p *graph.Frozen) bool {
	if p.NumVertices() == 0 {
		return false // empty pattern trivially embeds
	}
	if p.NumVertices() > t.NumVertices() || p.NumEdges() > t.NumEdges() {
		return true
	}
	tl := t.LabelCounts()
	for l, c := range p.LabelCounts() {
		if tl[l] < c {
			return true
		}
	}
	return false
}

// ContainsCtx reports whether pattern p is subgraph-isomorphic to target
// t, with cooperative cancellation: the search polls ctx at
// node-expansion boundaries and returns ctx.Err() when cancelled before
// an answer was established. Each call is counted on the context's
// pipeline tracer (CounterVF2Calls). Both graphs are frozen on first use
// (memoized on the graphs), and the search runs on the CSR form.
func ContainsCtx(ctx context.Context, t, p *graph.Graph) (bool, error) {
	pipeline.From(ctx).Add(pipeline.CounterVF2Calls, 1)
	m := matcherPool.Get().(*Matcher)
	ok, err := m.ContainsCtx(ctx, t.Freeze(), p.Freeze())
	matcherPool.Put(m)
	return ok, err
}

// Contains reports whether pattern p is subgraph-isomorphic to target t.
//
// Deprecated: use ContainsCtx. This wrapper predates PR 1's context plumbing:
// it runs uncancellable and reports to no pipeline trace.
func Contains(t, p *graph.Graph) bool {
	m := matcherPool.Get().(*Matcher)
	ok := m.Contains(t.Freeze(), p.Freeze())
	matcherPool.Put(m)
	return ok
}

// ContainsBudget is Contains with a bound on expanded search nodes. When
// the budget is exhausted before an embedding is found it returns
// (false, false): "no embedding found, answer not definitive". Callers that
// tolerate one-sided error (support estimation over many graphs) treat
// that as non-containment.
func ContainsBudget(t, p *graph.Graph, maxNodes int) (contained, definitive bool) {
	m := matcherPool.Get().(*Matcher)
	contained, definitive = m.ContainsBudget(t.Freeze(), p.Freeze(), maxNodes)
	matcherPool.Put(m)
	return contained, definitive
}
