// Package simcache implements the pairwise-similarity engine behind fine
// clustering. After the coverage engine (internal/cover) removed the
// redundancy from the scoring hot path, the pipeline's dominant cost became
// cluster.fine's McGregor-style MCCS comparisons (ωmccs, Sec 4.2): they run
// sequentially and are recomputed from scratch for isomorphic graph pairs,
// which real molecule repositories are full of. The engine makes one batch
// of pairwise similarities cheap three ways:
//
//  1. Canonical evaluation: a similarity is computed not on the graphs the
//     caller passed but on their canonical representatives — graphs decoded
//     from the canon canonical strings (canon.Reconstruct), with argument
//     order normalized by key. The budget-bounded MCCS search seldom
//     finishes (a quickstart mine stops every search at its node budget),
//     so its result depends on vertex numbering, and evaluating raw graphs
//     would make "the similarity of two isomorphism classes" ill-defined.
//     Evaluating reconstructed representatives makes
//     every similarity a pure function of the order-normalized canonical
//     key pair — the determinism the memo and the parallel fan-out rely on,
//     and an improvement over the raw path, where isomorphic inputs could
//     disagree.
//  2. Memoization: results are cached in a concurrency-safe map keyed by
//     the order-normalized canonical pair. Within one batch, members whose
//     key pair duplicates an earlier member's share a single search.
//  3. Parallel fan-out: the distinct cache misses of a batch are searched
//     concurrently via par.ForCtx.
//
// Determinism: by (1) each cached or computed value is a pure function of
// the key pair, so batch results are independent of worker count,
// scheduling and cache state — which this package's tests assert against
// a sequential, uncached oracle, and the golden selection suite asserts
// for full pipeline runs across GOMAXPROCS settings. Cache
// hits, misses and batch-deduplicated pairs are reported through the
// pipeline counters carried in the context and accumulated in Stats.
package simcache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/par"
	"repro/internal/pipeline"
)

// Options configures an Engine.
type Options struct {
	// Kind selects the similarity measure (default mcs.KindMCCS).
	Kind mcs.Kind
	// Budget bounds each MCS/MCCS search (default mcs.DefaultBudget).
	Budget int
}

// Stats is a snapshot of engine activity.
type Stats struct {
	// Hits counts similarities served from the memo cache.
	Hits int64
	// Misses counts similarities that had to be established.
	Misses int64
	// Pruned counts pairs that shared an in-batch search with an earlier
	// isomorphic pair instead of running their own.
	Pruned int64
	// Searches counts MCS/MCCS searches actually run (Misses - Pruned).
	Searches int64
}

// Engine evaluates pairwise similarities over a fixed graph universe,
// addressed by index. It is safe for concurrent use.
type Engine struct {
	graphs []*graph.Graph
	kind   mcs.Kind
	budget int

	// keyMu guards keys and reps; both are filled lazily per index and are
	// written at most once (the computed values are deterministic, so a
	// racing duplicate computation writes the same thing).
	keyMu sync.RWMutex
	keys  []string
	reps  []*graph.Graph

	mu   sync.RWMutex
	memo map[pairKey]float64

	hits, misses, pruned, searches atomic.Int64
}

// pairKey identifies an unordered pair of isomorphism classes: the two
// canonical (or identity) keys in lexicographic order.
type pairKey struct{ lo, hi string }

// New builds an engine over the given graphs. The slice is copied; the
// graphs themselves must not be mutated afterwards. Canonical keys and
// representatives are computed lazily, on first touch of each index, so
// building an engine over a large database costs nothing for the graphs
// fine clustering never compares.
func New(graphs []*graph.Graph, opts Options) *Engine {
	budget := opts.Budget
	if budget <= 0 {
		budget = mcs.DefaultBudget
	}
	return &Engine{
		graphs: append([]*graph.Graph(nil), graphs...),
		kind:   opts.Kind,
		budget: budget,
		keys:   make([]string, len(graphs)),
		reps:   make([]*graph.Graph, len(graphs)),
		memo:   make(map[pairKey]float64),
	}
}

// NumGraphs returns the size of the engine's graph universe.
func (e *Engine) NumGraphs() int { return len(e.graphs) }

// Stats returns a snapshot of the accumulated counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Hits:     e.hits.Load(),
		Misses:   e.misses.Load(),
		Pruned:   e.pruned.Load(),
		Searches: e.searches.Load(),
	}
}

// keyOf returns the cache key and representative graph of index i,
// computing and caching them on first use. Graphs that are empty, exceed
// canon.MaxKeyVertices, or carry labels the canonical encoding cannot
// round-trip get an identity key and represent themselves, which stays
// deterministic (the same concrete graph is evaluated every time); it only
// forgoes sharing with isomorphic twins.
func (e *Engine) keyOf(i int) (string, *graph.Graph) {
	e.keyMu.RLock()
	k, r := e.keys[i], e.reps[i]
	e.keyMu.RUnlock()
	if k != "" {
		return k, r
	}
	g := e.graphs[i]
	if g.NumVertices() == 0 || g.NumVertices() > canon.MaxKeyVertices || !canon.Reconstructible(g) {
		k, r = fmt.Sprintf("id:%d", i), g
	} else {
		k = canon.String(g)
		rec, err := canon.Reconstruct(k)
		if err != nil {
			// Unreachable for Reconstructible graphs; identity keys are the
			// sound fallback either way.
			k, r = fmt.Sprintf("id:%d", i), g
		} else {
			r = rec
		}
	}
	e.keyMu.Lock()
	if e.keys[i] == "" {
		e.keys[i], e.reps[i] = k, r
	} else {
		// A racer filled the slot first; adopt its (identical key,
		// equivalent representative) so all callers share one rep graph.
		k, r = e.keys[i], e.reps[i]
	}
	e.keyMu.Unlock()
	return k, r
}

// pairOf resolves indices i and j to their order-normalized key pair and
// the concrete (representative) graphs to evaluate, lo-key graph first.
func (e *Engine) pairOf(i, j int) (pairKey, *graph.Graph, *graph.Graph) {
	ki, ri := e.keyOf(i)
	kj, rj := e.keyOf(j)
	if kj < ki {
		ki, kj, ri, rj = kj, ki, rj, ri
	}
	return pairKey{ki, kj}, ri, rj
}

// BatchCtx returns the similarity of (members[k], target) for every k, in
// member order. Distinct cache misses are searched in parallel; the work
// is scheduled in deterministic (first-occurrence) order and every value
// is a pure function of its canonical key pair, so results are
// bit-identical to a sequential, uncached evaluation for any worker
// count. On cancellation it returns (nil, ctx.Err()) and caches nothing —
// a batch is memoized only once all of its searches have completed, so no
// partially established pair is ever visible. Cache activity is reported on the
// context's pipeline tracer.
func (e *Engine) BatchCtx(ctx context.Context, members []int, target int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]float64, len(members))
	if len(members) == 0 {
		return out, nil
	}

	type slot struct {
		key    pairKey
		lo, hi *graph.Graph
	}
	slots := make([]slot, len(members))
	for idx, m := range members {
		k, lo, hi := e.pairOf(m, target)
		slots[idx] = slot{k, lo, hi}
	}

	// Memo lookup; collect the misses in member order.
	var missIdx []int
	var hitsN int64
	e.mu.RLock()
	for idx := range slots {
		if v, ok := e.memo[slots[idx].key]; ok {
			out[idx] = v
			hitsN++
		} else {
			missIdx = append(missIdx, idx)
		}
	}
	e.mu.RUnlock()

	// One search per canonically distinct missing pair, first occurrence
	// claiming the slot so the work list is deterministic.
	searchOf := make(map[pairKey]int)
	var searches []int
	for _, idx := range missIdx {
		if _, ok := searchOf[slots[idx].key]; !ok {
			searchOf[slots[idx].key] = len(searches)
			searches = append(searches, idx)
		}
	}
	results := make([]float64, len(searches))
	errs := make([]error, len(searches))
	ferr := par.ForCtx(ctx, len(searches), func(si int) {
		s := slots[searches[si]]
		results[si], errs[si] = mcs.SimilarityKindCtx(ctx, e.kind, s.lo, s.hi, e.budget)
	})
	if ferr != nil {
		return nil, ferr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	if len(searches) > 0 {
		e.mu.Lock()
		for si, idx := range searches {
			e.memo[slots[idx].key] = results[si]
		}
		e.mu.Unlock()
	}
	for _, idx := range missIdx {
		out[idx] = results[searchOf[slots[idx].key]]
	}

	missesN := int64(len(missIdx))
	prunedN := missesN - int64(len(searches))
	e.hits.Add(hitsN)
	e.misses.Add(missesN)
	e.pruned.Add(prunedN)
	e.searches.Add(int64(len(searches)))
	tr := pipeline.From(ctx)
	if hitsN > 0 {
		tr.Add(pipeline.CounterSimHits, hitsN)
	}
	if missesN > 0 {
		tr.Add(pipeline.CounterSimMisses, missesN)
	}
	if prunedN > 0 {
		tr.Add(pipeline.CounterClusterPairsPruned, prunedN)
	}
	return out, nil
}
