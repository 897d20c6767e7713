// Package suggest is the online query-autocompletion engine: given a
// user's partial visual query and the canned pattern set a snapshot
// currently serves, it returns the top-k patterns ranked as completions —
// the interactive scenario CATAPULT's selection exists to feed (the GUIDE
// workload in SNIPPETS.md #2: per-keystroke suggestions with no offline
// preprocessing beyond the pattern set itself).
//
// One call runs three phases over the engine's fixed pattern set:
//
//  1. Prune: the cover engine's gindex path-feature filter drops patterns
//     that cannot contain the partial (features are anti-monotone under
//     subgraph isomorphism, so the survivor set is a superset of the true
//     containers).
//  2. Verify: the surviving candidates' containment of the partial is
//     decided through the cover engine — memoized on canonical forms, so
//     a keystroke replayed by any user on the same snapshot is a cache
//     hit — and survivors split into true completions (partial ⊆ pattern)
//     and near-misses.
//  3. Rank: completions are ranked by closeness — for a verified
//     container the graph edit distance is exactly the completion delta
//     |Vp|-|Vq| + |Ep|-|Eq|; for a near-miss it is the A*/bipartite GED —
//     weighted by the pattern's selection score (Eq 2), so a high-value
//     pattern outranks an equally close low-value one.
//
// Everything runs under a per-keystroke soft budget (~100ms) carried by a
// resilience.Controller. The engine degrades instead of blocking or
// failing: verification that blows the budget falls back to the pruned
// but unverified candidate set, exact GED downgrades to the bipartite
// approximation at half budget (the controller's existing ladder), and a
// ranking loop cut off mid-way returns the prefix ranked so far. Worker
// panics inside verification are contained as typed *resilience.StageFault
// values on the Result, never crashes. With a non-positive budget
// (Options.Budget < 0) the call is unbudgeted and fully deterministic: the
// result is a pure function of (patterns, query, options), independent of
// GOMAXPROCS and wall clock, which the differential suite pins.
package suggest

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/ged"
	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// DefaultTopK is the suggestion count returned when Options.TopK is zero.
const DefaultTopK = 5

// DefaultBudget is the per-keystroke soft budget when Options.Budget is
// zero: at 100ms a suggestion fits inside one perceptual moment, the bar
// interactive query interfaces aim for.
const DefaultBudget = 100 * time.Millisecond

// maxCandidates caps the candidates entering the ranking loop, highest-
// scored first. The cap bounds worst-case ranking work before the budget's
// dynamic prefix cut even starts.
const maxCandidates = 64

// Options configures one SuggestCtx call. The zero value asks for the
// defaults; fields are independent knobs, so a caller can e.g. raise TopK
// without touching the budget.
type Options struct {
	// TopK is the maximum number of suggestions returned
	// (default DefaultTopK).
	TopK int
	// Budget is the per-keystroke soft budget. Zero means DefaultBudget;
	// negative disables budgeting entirely — the call then never degrades
	// and its ranking is deterministic (the differential-test mode).
	Budget time.Duration
}

func (o *Options) defaults() {
	if o.TopK == 0 {
		o.TopK = DefaultTopK
	}
	if o.Budget == 0 {
		o.Budget = DefaultBudget
	}
}

// Suggestion is one ranked completion of the partial query.
type Suggestion struct {
	// Pattern indexes the engine's pattern set (and the serving
	// snapshot's GET /v1/patterns array).
	Pattern int `json:"pattern"`
	// Score is the pattern's selection score (Eq 2), the ranking weight.
	Score float64 `json:"score"`
	// Contained reports that the partial query was verified subgraph-
	// isomorphic to the pattern — accepting it is a pure extension.
	Contained bool `json:"contained"`
	// Distance is the graph edit distance from the partial to the
	// pattern: exact (the completion delta) when Contained, otherwise the
	// A* estimate or its bipartite approximation.
	Distance int `json:"distance"`
	// Approx marks Distance as the bipartite approximation (the budget
	// ladder's GED downgrade).
	Approx bool `json:"approx"`
	// Overlap is the shared fraction of combined pattern elements in
	// [0,1]: exact for a verified container and a distance-derived
	// estimate otherwise.
	Overlap float64 `json:"overlap"`
	// Rank is the final ordering weight (higher first): closeness
	// weighted by the selection score. Contained suggestions always sort
	// before near-misses regardless of Rank.
	Rank float64 `json:"rank"`
	// AddVertices and AddEdges are the elements accepting the suggestion
	// would add beyond the partial (meaningful when Contained).
	AddVertices int `json:"add_vertices"`
	AddEdges    int `json:"add_edges"`
}

// Stats summarizes one suggestion call: how far the prune → verify → rank
// ladder got and what the budget cut.
type Stats struct {
	// Patterns is the engine's pattern-set size.
	Patterns int `json:"patterns"`
	// Candidates survived gindex pruning.
	Candidates int `json:"candidates"`
	// Capped counts candidates dropped by the ranking loop's cap of 64.
	Capped int `json:"capped"`
	// Verified reports that containment verification completed; false
	// means the budget (or a contained fault) degraded the call to the
	// pruned-but-unverified candidate set.
	Verified bool `json:"verified"`
	// Contained counts verified containers among the ranked candidates.
	Contained int `json:"contained"`
	// Ranked counts candidates whose closeness ranking ran; under budget
	// pressure this is a prefix of the candidate list.
	Ranked int `json:"ranked"`
	// ApproxRanked counts rankings that used the bipartite GED downgrade.
	ApproxRanked int `json:"approx_ranked"`
	// Degraded reports that any rung of the ladder was cut short;
	// DegradeReason names the first cut.
	Degraded      bool   `json:"degraded"`
	DegradeReason string `json:"degrade_reason,omitempty"`
	// Faults counts worker panics contained during this call.
	Faults int `json:"faults"`
	// Elapsed is the wall-clock time of the call.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Result is one suggestion call's outcome. A budget-exhausted call is not
// an error: it returns the (possibly empty) ranked prefix with
// Stats.Degraded set.
type Result struct {
	Suggestions []Suggestion `json:"suggestions"`
	Stats       Stats        `json:"stats"`
	// Faults holds worker panics contained during the call (typed, with
	// the panicking goroutine's stack), for callers that surface health.
	Faults []*resilience.StageFault `json:"-"`
}

// Engine answers suggestion calls against a fixed pattern set. It wraps a
// cover engine whose hosts are the pattern graphs, so containment
// verdicts are memoized across keystrokes, users and coalesced requests
// on the same snapshot. Safe for concurrent use; build one per snapshot.
type Engine struct {
	patterns []*core.Pattern
	cov      *cover.Engine
}

// NewEngine builds a suggestion engine over patterns. The slice is
// copied; the patterns themselves must be immutable (they are, by the
// serving layer's copy-and-swap discipline).
func NewEngine(patterns []*core.Pattern) *Engine {
	ps := append([]*core.Pattern(nil), patterns...)
	gs := make([]*graph.Graph, len(ps))
	for i, p := range ps {
		gs[i] = p.Graph
	}
	return &Engine{patterns: ps, cov: cover.New(gs)}
}

// NumPatterns returns the size of the engine's pattern set.
func (e *Engine) NumPatterns() int { return len(e.patterns) }

// Pattern returns the i-th pattern of the engine's set.
func (e *Engine) Pattern(i int) *core.Pattern { return e.patterns[i] }

// CoverStats returns the wrapped containment engine's memo statistics.
func (e *Engine) CoverStats() cover.Stats { return e.cov.Stats() }

// SuggestCtx ranks the engine's patterns as completions of the partial
// query q. With a positive budget (the default) the call degrades under
// pressure and returns a valid ranked prefix instead of an error; the
// only error causes are a nil/oversized query, cancellation of a parent
// ctx in unbudgeted mode, and non-salvageable internal failures. An empty
// partial (no vertices) is the cold-start case: the top-k patterns by
// selection score, the panel a fresh query canvas shows.
func (e *Engine) SuggestCtx(ctx context.Context, q *graph.Graph, opts Options) (*Result, error) {
	if q == nil {
		return nil, fmt.Errorf("suggest: nil query")
	}
	opts.defaults()
	start := time.Now()
	res := &Result{Stats: Stats{Patterns: len(e.patterns)}}

	// Arm the per-keystroke controller: the whole call is one sole phase,
	// so the controller's existing ladder (Overrun, the half-budget GED
	// downgrade) applies without pipeline phase weights.
	if opts.Budget > 0 {
		ctrl := resilience.NewController(start, start.Add(opts.Budget))
		ctrl.Observe(pipeline.From(ctx))
		ctrl.BeginSolePhase(pipeline.StageSuggest)
		defer ctrl.EndPhase()
		ctx = resilience.WithController(ctx, ctrl)
		if dl, ok := ctrl.PhaseDeadline(); ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadlineCause(ctx, dl, resilience.ErrBudgetExhausted)
			defer cancel()
		}
	}
	ctrl := resilience.From(ctx)

	if q.NumVertices() == 0 {
		e.coldStart(res, opts.TopK)
		res.Stats.Elapsed = time.Since(start)
		return res, nil
	}

	// Prune: the index narrows which patterns can possibly contain the
	// partial — only those need VF2 verification. Patterns the index
	// rejects are known non-containers; they stay in the ranking pool as
	// near-misses (a close pattern the user almost drew is still a good
	// suggestion), just never verified.
	cands := e.cov.Candidates(q)
	res.Stats.Candidates = len(cands)
	tr := pipeline.From(ctx)
	tr.Add(pipeline.CounterSuggestCandidates, int64(len(cands)))

	// Verify containment of the partial inside each candidate, guarded:
	// a worker panic or a budget-exhausted verification degrades to the
	// unverified candidate set instead of failing the keystroke.
	var verdicts []bool
	if len(cands) > 0 {
		var verr error
		fault := resilience.Guard(ctx, pipeline.StageSuggest,
			func() { verdicts, verr = e.cov.Verdicts(ctx, q) })
		switch {
		case fault != nil:
			res.Faults = append(res.Faults, fault)
			res.Stats.Faults++
			verdicts = nil
			e.degrade(ctrl, &res.Stats, "suggest_verify_fault")
		case ctrl != nil && resilience.Salvageable(context.Cause(ctx)):
			// Verification that returns after the keystroke deadline —
			// a stalled search that never polled the context — is as late
			// as one the deadline cut short: its verdicts do not count.
			verdicts = nil
			e.degrade(ctrl, &res.Stats, "suggest_verify_budget")
		case verr == nil:
			res.Stats.Verified = true
		case ctrl != nil && resilience.Salvageable(verr):
			verdicts = nil
			e.degrade(ctrl, &res.Stats, "suggest_verify_budget")
		default:
			return nil, verr
		}
	}

	// Candidate order entering the ranking loop: verified containers
	// first, then by selection score descending, pattern index as the
	// total tie-break — so both the static cap and a budget prefix cut
	// keep the most valuable candidates.
	type cand struct {
		idx       int
		contained bool
	}
	list := make([]cand, len(e.patterns))
	for i := range e.patterns {
		list[i] = cand{idx: i, contained: verdicts != nil && verdicts[i]}
	}
	sort.Slice(list, func(i, j int) bool {
		a, b := list[i], list[j]
		if a.contained != b.contained {
			return a.contained
		}
		sa, sb := e.patterns[a.idx].Score, e.patterns[b.idx].Score
		if sa != sb {
			return sa > sb
		}
		return a.idx < b.idx
	})
	if len(list) > maxCandidates {
		res.Stats.Capped = len(list) - maxCandidates
		list = list[:maxCandidates]
	}

	// Rank. The loop polls the budget between candidates; an overrun
	// keeps the prefix ranked so far ("fewer candidates" is the ladder's
	// last rung before returning nothing at all).
	qa := q.NumVertices() + q.NumEdges()
	for _, c := range list {
		if ctrl != nil && (ctrl.Overrun() || ctx.Err() != nil) {
			e.degrade(ctrl, &res.Stats, "suggest_rank_prefix")
			ctrl.Count("suggest_rank_dropped", int64(len(list)-res.Stats.Ranked))
			break
		}
		tr.Add(pipeline.CounterSuggestRanked, 1)
		res.Suggestions = append(res.Suggestions, e.rank(ctx, ctrl, res, q, qa, c.idx, c.contained))
		res.Stats.Ranked++
		if c.contained {
			res.Stats.Contained++
		}
	}

	sort.Slice(res.Suggestions, func(i, j int) bool {
		a, b := res.Suggestions[i], res.Suggestions[j]
		if a.Contained != b.Contained {
			return a.Contained
		}
		if a.Rank != b.Rank {
			return a.Rank > b.Rank
		}
		return a.Pattern < b.Pattern
	})
	if len(res.Suggestions) > opts.TopK {
		res.Suggestions = res.Suggestions[:opts.TopK]
	}
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// rank scores one candidate. It never blocks on the context: past half
// the budget it downgrades exact GED to the bipartite approximation.
func (e *Engine) rank(ctx context.Context, ctrl *resilience.Controller, res *Result,
	q *graph.Graph, qa int, idx int, contained bool) Suggestion {
	p := e.patterns[idx]
	pa := p.Graph.NumVertices() + p.Graph.NumEdges()
	s := Suggestion{Pattern: idx, Score: p.Score, Contained: contained}
	switch {
	case contained:
		// The partial embeds into the pattern, so the cheapest edit path
		// is pure insertion: GED and overlap are exact and free.
		s.AddVertices = p.Graph.NumVertices() - q.NumVertices()
		s.AddEdges = p.Graph.NumEdges() - q.NumEdges()
		s.Distance = s.AddVertices + s.AddEdges
		if pa > 0 {
			s.Overlap = float64(qa) / float64(pa)
		}
	default:
		if resilience.GEDApprox(ctx) {
			s.Distance = ged.Approx(q, p.Graph)
			s.Approx = true
			res.Stats.ApproxRanked++
			e.degrade(ctrl, &res.Stats, "suggest_ged_approx")
		} else {
			s.Distance = ged.Distance(q, p.Graph)
		}
		if qa+pa > 0 {
			s.Overlap = 1 - float64(s.Distance)/float64(qa+pa)
			if s.Overlap < 0 {
				s.Overlap = 0
			}
		}
	}
	closeness := 1 / (1 + float64(s.Distance))
	s.Rank = closeness * (1 + s.Score)
	return s
}

// coldStart fills res with the top-k patterns by selection score — the
// suggestion set for an empty canvas.
func (e *Engine) coldStart(res *Result, topK int) {
	order := make([]int, len(e.patterns))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		si, sj := e.patterns[order[i]].Score, e.patterns[order[j]].Score
		if si != sj {
			return si > sj
		}
		return order[i] < order[j]
	})
	if len(order) > topK {
		order = order[:topK]
	}
	res.Stats.Candidates = len(e.patterns)
	for _, idx := range order {
		p := e.patterns[idx]
		res.Suggestions = append(res.Suggestions, Suggestion{
			Pattern:     idx,
			Score:       p.Score,
			Contained:   true, // the empty query embeds in every pattern
			Distance:    p.Graph.NumVertices() + p.Graph.NumEdges(),
			AddVertices: p.Graph.NumVertices(),
			AddEdges:    p.Graph.NumEdges(),
			Rank:        p.Score,
		})
		res.Stats.Ranked++
		res.Stats.Contained++
	}
}

// degrade records the first degradation reason on the stats and mirrors
// it onto the controller's health ledger.
func (e *Engine) degrade(ctrl *resilience.Controller, st *Stats, reason string) {
	if !st.Degraded {
		st.Degraded = true
		st.DegradeReason = reason
	}
	if ctrl != nil {
		ctrl.MarkDegraded(reason)
		ctrl.Count(reason, 1)
	}
}
