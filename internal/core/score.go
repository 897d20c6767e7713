package core

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/cover"
	"repro/internal/ged"
	"repro/internal/graph"
)

// ccovCtx computes ccov(p, cw, C) = Σ_i cw_i · I[CSG_i contains p] (Sec 5)
// with cooperative cancellation. Containment runs through
// the coverage engine (memoized, index-pruned, parallel); verdicts are
// accumulated in ascending CSG order, so the sum is deterministic.
func (sc *Context) ccovCtx(stdctx context.Context, p *graph.Graph) (float64, error) {
	verdicts, err := sc.CoverEngine().Verdicts(stdctx, p)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i, ok := range verdicts {
		if ok && sc.cw[i] > 0 {
			total += sc.cw[i]
		}
	}
	return total, nil
}

// LCov returns the label coverage of a single pattern:
// lcov(p, D) = |L(E_p, D)| / |D|, the fraction of data graphs containing at
// least one edge label of p.
func (ctx *Context) LCov(p *graph.Graph) float64 {
	if ctx.DB.Len() == 0 {
		return 0
	}
	var union *bitset.Set
	for _, e := range p.Edges() {
		l := p.EdgeLabel(e.U, e.V)
		if s := ctx.labelGraphs[l]; s != nil {
			if union == nil {
				union = s.Clone()
			} else {
				union.UnionWith(s)
			}
		}
	}
	if union == nil {
		return 0
	}
	return float64(union.Count()) / float64(ctx.DB.Len())
}

// terms are the factors of a candidate's Eq-2 score that need no GED.
type terms struct {
	ccov, lcov, cog float64
	qf              float64 // query-log frequency; 0 without a log
	// zero marks cog == 0: the score is 0 whatever the diversity, and the
	// query log is not consulted.
	zero bool
}

// termsCtx computes ccov (through the coverage engine), lcov, cog and the
// query-log frequency of p. The query log is consulted exactly where the
// score needs it, so its engine sees the same containment tests whether a
// candidate is later scored exactly or skipped by a bound.
func (sc *Context) termsCtx(stdctx context.Context, p *graph.Graph, opts Options) (terms, error) {
	ccov, err := sc.ccovCtx(stdctx, p)
	if err != nil {
		return terms{}, err
	}
	t := terms{ccov: ccov, lcov: sc.LCov(p), cog: p.CognitiveLoad()}
	if t.cog == 0 {
		t.zero = true
		return t, nil
	}
	if len(opts.QueryLog) > 0 {
		if t.qf, err = sc.queryLogFrequencyCtx(stdctx, p, opts.QueryLog); err != nil {
			return terms{}, err
		}
	}
	return t, nil
}

// score is Eq 2 for the given diversity value, under the query-log
// option. Its float operations run in one fixed order (ccov·lcov·div, then
// /cog, then ×(1+qf) with a query log), so for the same terms a larger div
// never gives a smaller score: IEEE rounding is monotone and every factor
// is non-negative. Bound-ordered selection relies on this to bound a score
// from above by scoring an upper bound of div.
func (t terms) score(div float64, opts Options) float64 {
	if t.zero {
		return 0
	}
	score := t.ccov * t.lcov * div / t.cog
	if len(opts.QueryLog) > 0 {
		score *= 1 + t.qf
	}
	return score
}

// queryLogFrequencyCtx returns the fraction of logged queries containing p,
// through a coverage engine over the log.
func (sc *Context) queryLogFrequencyCtx(stdctx context.Context, p *graph.Graph, log []*graph.Graph) (float64, error) {
	hits, err := sc.queryLogEngine(log).Count(stdctx, p)
	if err != nil {
		return 0, err
	}
	return float64(hits) / float64(len(log)), nil
}

// updateWeightsCtx applies the multiplicative weights update (Sec 5,
// n = 0.5) after pattern p is selected: cluster weights of CSGs containing
// p are halved, and so are the weights of edge labels occurring in p.
// Cancellation is threaded into the coverage engine. The containment
// verdicts for the just-selected pattern are memo hits (scoring
// established them), so the update costs no VF2 at all.
func (sc *Context) updateWeightsCtx(stdctx context.Context, p *graph.Graph) error {
	const n = 0.5
	verdicts, err := sc.CoverEngine().Verdicts(stdctx, p)
	if err != nil {
		return err
	}
	for i, ok := range verdicts {
		if ok && sc.cw[i] > 0 {
			sc.cw[i] *= 1 - n
		}
	}
	seen := make(map[string]struct{})
	for _, e := range p.Edges() {
		l := p.EdgeLabel(e.U, e.V)
		if _, dup := seen[l]; dup {
			continue
		}
		seen[l] = struct{}{}
		if _, ok := sc.elw[l]; ok {
			sc.elw[l] *= 1 - n
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Exact pattern-set coverage measures (Sec 3.2), used for evaluation.

// Scov computes the exact subgraph coverage of a pattern set:
// scov(P, D) = |∪_p G_p| / |D| with VF2 containment per data graph.
func Scov(db *graph.DB, patterns []*graph.Graph) float64 {
	// context.Background is never cancelled, so ScovCtx cannot fail here.
	v, _ := ScovCtx(context.Background(), db, patterns)
	return v
}

// ScovCtx is Scov with cooperative cancellation. Containment runs through a
// per-call coverage engine over the data graphs (index-pruned, memoized,
// parallel), stopping early once every graph is covered; the covered set is
// identical to the naive graph-major VF2 scan.
func ScovCtx(stdctx context.Context, db *graph.DB, patterns []*graph.Graph) (float64, error) {
	if err := stdctx.Err(); err != nil {
		return 0, err
	}
	if db.Len() == 0 {
		return 0, nil
	}
	eng := cover.New(db.Graphs)
	covered := bitset.New(db.Len())
	for _, p := range patterns {
		verdicts, err := eng.Verdicts(stdctx, p)
		if err != nil {
			return 0, err
		}
		for gi, ok := range verdicts {
			if ok {
				covered.Add(gi)
			}
		}
		if covered.Count() == db.Len() {
			break
		}
	}
	return float64(covered.Count()) / float64(db.Len()), nil
}

// Lcov computes the exact label coverage of a pattern set:
// lcov(P, D) = |L(E_P, D)| / |D|.
func Lcov(db *graph.DB, patterns []*graph.Graph) float64 {
	// context.Background is never cancelled, so LcovCtx cannot fail here.
	v, _ := LcovCtx(context.Background(), db, patterns)
	return v
}

// LcovCtx is Lcov with cooperative cancellation, checked at each data-graph
// boundary (label coverage needs no containment search, so there is no
// engine to route through).
func LcovCtx(stdctx context.Context, db *graph.DB, patterns []*graph.Graph) (float64, error) {
	if err := stdctx.Err(); err != nil {
		return 0, err
	}
	if db.Len() == 0 {
		return 0, nil
	}
	labels := make(map[string]struct{})
	for _, p := range patterns {
		for _, e := range p.Edges() {
			labels[p.EdgeLabel(e.U, e.V)] = struct{}{}
		}
	}
	covered := bitset.New(db.Len())
	for gi, g := range db.Graphs {
		if err := stdctx.Err(); err != nil {
			return 0, err
		}
		for _, e := range g.Edges() {
			if _, ok := labels[g.EdgeLabel(e.U, e.V)]; ok {
				covered.Add(gi)
				break
			}
		}
	}
	return float64(covered.Count()) / float64(db.Len()), nil
}

// AvgDiversity returns the average over patterns of min-GED to the rest of
// the set (the div statistic reported in Exp 3 and Exp 8).
func AvgDiversity(patterns []*graph.Graph) float64 {
	if len(patterns) < 2 {
		return 0
	}
	total := 0.0
	for i, p := range patterns {
		rest := make([]*graph.Graph, 0, len(patterns)-1)
		rest = append(rest, patterns[:i]...)
		rest = append(rest, patterns[i+1:]...)
		d, _, _ := ged.MinDistanceCtx(context.Background(), p, rest)
		total += float64(d)
	}
	return total / float64(len(patterns))
}

// AvgCognitiveLoad returns the average cog over a pattern set.
func AvgCognitiveLoad(patterns []*graph.Graph) float64 {
	if len(patterns) == 0 {
		return 0
	}
	total := 0.0
	for _, p := range patterns {
		total += p.CognitiveLoad()
	}
	return total / float64(len(patterns))
}
