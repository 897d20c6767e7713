// Package cover implements the coverage-evaluation engine behind the
// scoring hot path of pattern selection. Almost all of CATAPULT's selection
// time is spent re-deciding subgraph-isomorphism containment of candidate
// patterns against a fixed set of host graphs (cluster summary graphs, data
// graphs, logged queries) across multiplicative-weight iterations (Sec 5).
// The engine makes one batch verdict query cheap three ways:
//
//  1. Memoization: verdicts are cached in a concurrency-safe map keyed by
//     the canon canonical forms of (host, pattern). Canonical keys are
//     sound because label-preserving isomorphism preserves containment
//     both ways: if canon(p1) == canon(p2) then p1 and p2 embed into
//     exactly the same hosts, and likewise for isomorphic hosts.
//  2. Index pruning: a gindex path-feature index over the hosts is built
//     once per engine. Path features are anti-monotone under subgraph
//     isomorphism (every label path of a pattern occurs in any host
//     containing it), so the index's candidate set is a superset of the
//     true answer set and non-candidates are rejected without VF2.
//  3. Parallel verification: the surviving cache misses are verified with
//     VF2 via par.ForCtx, one search per canonically distinct host.
//
// Memoization also spans one predecessor engine. An engine built by
// NewSuccessor answers a memo miss from its predecessor's memo whenever
// the host is the very *graph.Graph the predecessor verified against, and
// copies each verdict it carries into its own memo. Host identity, not the
// host key, is the test: identity keys ("id:<index>") only mean something
// inside the engine that assigned them. Containment is a pure function of
// (host, pattern up to isomorphism) and hosts are never mutated, so a
// carried verdict is the verdict VF2 would establish. Detach cuts the
// link, so a chain of successors that detaches each engine once its
// successor exists keeps at most two generations of memo reachable.
//
// Results are deterministic: a verdict batch is a pure function of (hosts,
// pattern), independent of scheduling, cache state and pruning, which the
// differential tests in internal/core assert against a naive sequential
// oracle. Cache hits, misses and pruned pairs are reported through the
// pipeline counters carried in the context, and accumulated in Stats.
package cover

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/canon"
	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/subiso"
)

// Stats is a snapshot of engine activity.
type Stats struct {
	// Hits counts verdicts served from the memo cache.
	Hits int64
	// Misses counts verdicts that had to be established.
	Misses int64
	// Pruned counts (host, pattern) pairs rejected by the feature index.
	Pruned int64
	// VF2Calls counts VF2 searches run (one per canonically distinct
	// missing host per batch, so it can be below Misses).
	VF2Calls int64
	// Carried counts the hits served from the predecessor's memo
	// (included in Hits).
	Carried int64
}

// Engine evaluates containment of patterns against a fixed host set.
// It is safe for concurrent use.
type Engine struct {
	hosts    []*graph.Graph
	hostKeys []string
	idx      *gindex.Index

	mu   sync.RWMutex
	memo map[pairKey]bool
	// prev is the predecessor whose memo answers misses (nil when there
	// is none or after Detach); carry[i] is host i's key in prev, "" when
	// host i is none of prev's hosts. Both are guarded by mu.
	prev  *Engine
	carry []string

	hits, misses, pruned, vf2, carried atomic.Int64
}

// pairKey identifies a (host, pattern) containment question up to
// isomorphism on both sides.
type pairKey struct{ host, pattern string }

// New builds an engine over the given hosts. The host slice is copied; the
// host graphs themselves must not be mutated afterwards. Hosts above
// canon.MaxKeyVertices get identity keys, and patterns above it bypass the
// memo entirely (pruning and parallel verification still apply).
func New(hosts []*graph.Graph) *Engine {
	e := &Engine{
		hosts:    append([]*graph.Graph(nil), hosts...),
		hostKeys: make([]string, len(hosts)),
		memo:     make(map[pairKey]bool),
	}
	// The DB literal shares the host graphs without reassigning their IDs
	// (graph.NewDB would clobber g.ID, which String() and exporters use).
	e.idx = gindex.Build(&graph.DB{Name: "cover-hosts", Graphs: e.hosts})
	for i, h := range e.hosts {
		if h.NumVertices() <= canon.MaxKeyVertices {
			e.hostKeys[i] = canon.String(h)
		} else {
			// Identity key: unambiguous (canonical strings of non-empty
			// graphs always contain '|', this never does).
			e.hostKeys[i] = fmt.Sprintf("id:%d", i)
		}
	}
	return e
}

// NewSuccessor builds an engine over hosts, like New, whose memo misses
// are first answered from prev's memo for every host that is the same
// *graph.Graph as one of prev's hosts. An isomorphic copy of a prev host
// carries nothing. NewSuccessor(nil, hosts) is New(hosts). prev is only
// read, never written, so it keeps answering exactly what it did.
func NewSuccessor(prev *Engine, hosts []*graph.Graph) *Engine {
	e := New(hosts)
	if prev == nil {
		return e
	}
	at := make(map[*graph.Graph]int, len(prev.hosts))
	for j := len(prev.hosts) - 1; j >= 0; j-- {
		at[prev.hosts[j]] = j
	}
	carry := make([]string, len(e.hosts))
	shared := false
	for i, h := range e.hosts {
		if j, ok := at[h]; ok {
			carry[i] = prev.hostKeys[j]
			shared = true
		}
	}
	if shared {
		e.prev, e.carry = prev, carry
	}
	return e
}

// Detach cuts the engine's link to its predecessor; later misses are
// established by VF2. Verdicts already carried stay in the engine's own
// memo.
func (e *Engine) Detach() {
	e.mu.Lock()
	e.prev, e.carry = nil, nil
	e.mu.Unlock()
}

// NumHosts returns the number of hosts the engine evaluates against.
func (e *Engine) NumHosts() int { return len(e.hosts) }

// Candidates returns the host indices whose path features are compatible
// with containing p — the same superset-of-the-answer pruning Verdicts
// applies before VF2, exposed so callers with their own degradation
// ladder (the suggestion engine under a keystroke budget) can fall back
// to the pruned-but-unverified candidate set when full verification does
// not fit the budget. The returned slice is freshly allocated and sorted
// ascending.
func (e *Engine) Candidates(p *graph.Graph) []int {
	return e.idx.Candidates(p)
}

// Stats returns a snapshot of the accumulated counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Hits:     e.hits.Load(),
		Misses:   e.misses.Load(),
		Pruned:   e.pruned.Load(),
		VF2Calls: e.vf2.Load(),
		Carried:  e.carried.Load(),
	}
}

// Verdicts returns, for every host i, whether pattern p is subgraph-
// isomorphic to it. On cancellation it returns (nil, ctx.Err()) and leaves
// the memo untouched (no partially-established batch is cached). Cache
// activity is reported on the context's pipeline tracer; VF2 searches
// additionally count CounterVF2Calls inside subiso.
func (e *Engine) Verdicts(stdctx context.Context, p *graph.Graph) ([]bool, error) {
	if err := stdctx.Err(); err != nil {
		return nil, err
	}
	verdicts := make([]bool, len(e.hosts))
	if len(e.hosts) == 0 {
		return verdicts, nil
	}
	cands := e.idx.Candidates(p)
	prunedN := int64(len(e.hosts) - len(cands))

	var patKey string
	useMemo := p.NumVertices() <= canon.MaxKeyVertices
	if useMemo {
		patKey = canon.String(p)
	}

	// Memo lookup for the candidates; collect the misses. A miss on a
	// host the predecessor shares is answered from the predecessor's memo
	// when it holds the verdict.
	var missHosts, carriedHosts []int
	var hitsN int64
	if useMemo {
		e.mu.RLock()
		prev, carry := e.prev, e.carry
		for _, hi := range cands {
			if v, ok := e.memo[pairKey{e.hostKeys[hi], patKey}]; ok {
				verdicts[hi] = v
				hitsN++
			} else {
				missHosts = append(missHosts, hi)
			}
		}
		e.mu.RUnlock()
		if prev != nil && len(missHosts) > 0 {
			missHosts, carriedHosts = prev.carryInto(verdicts, missHosts, carry, patKey)
		}
	} else {
		missHosts = cands
	}

	// One VF2 search per canonically distinct missing host.
	repOf := make(map[string]int)
	var reps []int
	for _, hi := range missHosts {
		if _, ok := repOf[e.hostKeys[hi]]; !ok {
			repOf[e.hostKeys[hi]] = len(reps)
			reps = append(reps, hi)
		}
	}
	results := make([]bool, len(reps))
	errs := make([]error, len(reps))
	ferr := par.ForCtx(stdctx, len(reps), func(i int) {
		results[i], errs[i] = subiso.ContainsCtx(stdctx, e.hosts[reps[i]], p)
	})
	e.vf2.Add(int64(len(reps)))
	if ferr != nil {
		return nil, ferr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// The batch succeeded: cache its VF2 results and the verdicts it
	// carried, in one write.
	if useMemo && len(reps)+len(carriedHosts) > 0 {
		e.mu.Lock()
		for i, hi := range reps {
			e.memo[pairKey{e.hostKeys[hi], patKey}] = results[i]
		}
		for _, hi := range carriedHosts {
			e.memo[pairKey{e.hostKeys[hi], patKey}] = verdicts[hi]
		}
		e.mu.Unlock()
	}
	for _, hi := range missHosts {
		verdicts[hi] = results[repOf[e.hostKeys[hi]]]
	}

	hitsN += int64(len(carriedHosts))
	e.carried.Add(int64(len(carriedHosts)))
	e.hits.Add(hitsN)
	e.misses.Add(int64(len(missHosts)))
	e.pruned.Add(prunedN)
	tr := pipeline.From(stdctx)
	if hitsN > 0 {
		tr.Add(pipeline.CounterCoverHits, hitsN)
	}
	if len(missHosts) > 0 {
		tr.Add(pipeline.CounterCoverMisses, int64(len(missHosts)))
	}
	if prunedN > 0 {
		tr.Add(pipeline.CounterCoverPruned, prunedN)
	}
	return verdicts, nil
}

// carryInto answers the misses whose host key in e (carry[hi]) has a
// verdict for patKey in e's memo: each is written into verdicts and
// returned in carried, the rest are returned in missing.
func (e *Engine) carryInto(verdicts []bool, misses []int, carry []string, patKey string) (missing, carried []int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, hi := range misses {
		if k := carry[hi]; k != "" {
			if v, ok := e.memo[pairKey{k, patKey}]; ok {
				verdicts[hi] = v
				carried = append(carried, hi)
				continue
			}
		}
		missing = append(missing, hi)
	}
	return missing, carried
}

// Count returns the number of hosts containing p.
func (e *Engine) Count(stdctx context.Context, p *graph.Graph) (int, error) {
	verdicts, err := e.Verdicts(stdctx, p)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, ok := range verdicts {
		if ok {
			n++
		}
	}
	return n, nil
}
