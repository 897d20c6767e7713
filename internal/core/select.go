package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/canon"
	"repro/internal/ged"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// SelectCtx runs Algorithm 4 — greedy, one canned pattern per iteration,
// until the budget γ is met or no scoring candidate remains — with
// cooperative cancellation and tracing. The greedy
// loop checks stdctx at every iteration boundary, and cancellation also
// propagates into candidate generation (between walks), scoring (VF2 /
// pruned-GED searches) and the weight update. The whole phase is reported
// to the context's pipeline tracer as StageSelect, with candidates counted
// as generated (every non-nil proposal), rejected (isomorphic duplicates)
// and accepted (patterns added to the result). On cancellation it returns
// (nil, stdctx.Err()) — no partial pattern set.
//
// Under a resilience controller, selection is an anytime algorithm: a
// soft-budget overrun or salvageable cancellation stops the MWU rounds
// early and returns the patterns selected so far (every completed round
// leaves a valid, budget-respecting prefix), and a panic inside a round is
// contained as a stage fault that likewise ends selection with the current
// prefix. The first round is exempt from deadlines and soft budgets, so the
// prefix is empty only when no candidate scores. Only explicit user
// cancellation and validation errors still return an error.
func SelectCtx(stdctx context.Context, ctx *Context, b Budget, opts Options) (*Result, error) {
	return selectWith(stdctx, ctx, b, opts, (*Context).bestCandidate)
}

// pickFunc picks a round's winner among its candidates.
type pickFunc func(sc *Context, stdctx context.Context, cands []candidate, selected []*graph.Graph, opts Options) (*Pattern, error)

// selectWith is SelectCtx with the round's winner picked by pick.
func selectWith(stdctx context.Context, ctx *Context, b Budget, opts Options, pick pickFunc) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	opts.defaults()
	stdctx, endStage := pipeline.Scope(stdctx, pipeline.StageSelect)
	defer endStage()
	tr := pipeline.From(stdctx)
	anytime := resilience.From(stdctx) != nil
	rng := rand.New(rand.NewSource(opts.Seed))

	res := &Result{}
	sizeCount := make(map[int]int)
	var selectedGraphs []*graph.Graph
	selectedSeen := make(map[string]struct{}) // canonical forms of selected patterns
	gen := newGenerator(ctx)

	stopEarly := func(why string) {
		resilience.Count(stdctx, "select_rounds", int64(res.Iterations))
		resilience.Degraded(stdctx, fmt.Sprintf("selection stopped after %d/%d patterns (%s)", len(res.Patterns), b.Gamma, why))
	}

	for len(res.Patterns) < b.Gamma {
		// Under a resilience controller the first round runs detached from
		// cancellation (trace and controller kept) and skips the
		// soft-budget check, so an anytime selection returns at least one
		// pattern however little of the deadline the earlier phases left:
		// an empty prefix is no answer at all.
		first := anytime && res.Iterations == 0
		if err := stdctx.Err(); err != nil {
			if cause := context.Cause(stdctx); cause != nil {
				err = cause
			}
			if !anytime || !resilience.Salvageable(err) {
				return nil, err
			}
			if !first {
				stopEarly("deadline")
				break
			}
		}
		rctx := stdctx // the round's context
		if first {
			rctx = context.WithoutCancel(stdctx)
		} else if anytime && resilience.Overrun(stdctx) {
			stopEarly("soft budget")
			break
		}

		// One greedy MWU round. It appends at most one pattern and runs
		// under a panic guard so a poisoned candidate degrades selection to
		// the prefix built so far instead of crashing the process; roundErr
		// carries cancellation out of generation/scoring, exhausted marks
		// true candidate exhaustion.
		var roundErr error
		exhausted := false
		fault := resilience.Guard(stdctx, pipeline.StageSelect, func() {
			res.Iterations++

			sizes := openSizes(b, sizeCount)
			if len(sizes) == 0 {
				exhausted = true
				return
			}

			// Candidate generation: each (CSG, size) proposes one candidate,
			// the random-walk FCP of Algorithm 4, generated in parallel over
			// CSGs. Candidates isomorphic to an earlier candidate or to an
			// already-selected pattern are dropped via canonical forms.
			cands, err := gen.candidates(rctx, ctx.proposingCSGs(opts.TopCSGs), sizes, opts.Walks, rng, selectedSeen)
			if err != nil {
				roundErr = err
				return
			}
			if len(cands) == 0 {
				exhausted = true
				return
			}

			bestPattern, err := pick(ctx, rctx, cands, selectedGraphs, opts)
			if err != nil {
				roundErr = err
				return
			}
			if bestPattern == nil {
				exhausted = true
				return
			}

			res.Patterns = append(res.Patterns, bestPattern)
			tr.Add(pipeline.CounterCandidatesAccepted, 1)
			selectedGraphs = append(selectedGraphs, bestPattern.Graph)
			selectedSeen[canon.String(bestPattern.Graph)] = struct{}{}
			sizeCount[bestPattern.Size()]++
			if err := ctx.updateWeightsCtx(rctx, bestPattern.Graph); err != nil {
				roundErr = err
				return
			}
		})
		if fault != nil {
			stopEarly("contained panic")
			break
		}
		if roundErr != nil {
			if anytime && resilience.Salvageable(roundErr) {
				stopEarly("deadline")
				break
			}
			return nil, roundErr
		}
		if exhausted {
			res.Exhausted = true
			break
		}
	}
	return res, nil
}

// candidate is one proposal of a selection round.
type candidate struct {
	p      *graph.Graph
	source int // index of the proposing CSG
	t      terms
	bound  float64 // upper bound of the Eq-2 score
}

// bestCandidate returns the round's winner: the first candidate, in
// proposal order, with the largest positive Eq-2 score, or nil when no
// candidate scores above zero.
//
// Only the diversity term needs GED, and its exact value (the pruned
// min-GED of Sec 5) is the expensive part of a score. So every candidate
// first gets its cheap terms and an upper bound of its score, which puts
// the bipartite Approx against a single selected pattern in place of div.
// Approx is an upper bound of the GED of that pair and MinDistanceCtx
// never returns more than the GED estimate of any pattern of the set (it
// takes a minimum over them, and an estimate is exact A*, or Approx where
// A* is skipped or runs out of budget), so the bound holds; terms.score
// keeps it a bound after rounding. Candidates are then scored exactly in
// descending bound order, ties by proposal order, and scoring stops at the
// first candidate whose bound is below the best score so far, or equal to
// it at a later proposal index: neither it nor any candidate after it can
// win. The winner, its terms and every VF2 search are those of scoring
// all candidates in proposal order; only the skipped GED searches are
// saved, counted as CounterSelectBoundSkipped.
//
// The terms and bounds are computed in parallel, each candidate writing
// only its own entry, and the first error in proposal order is returned.
// A round's candidates are pairwise non-isomorphic, so no two of them
// share a coverage memo entry, and the memo answers and counts the same
// in any order. Exact scoring stays serial.
func (sc *Context) bestCandidate(stdctx context.Context, cands []candidate, selected []*graph.Graph, opts Options) (*Pattern, error) {
	needDiv := len(selected) > 0
	order := make([]int, len(cands))
	errs := make([]error, len(cands))
	ferr := par.ForCtx(stdctx, len(cands), func(i int) {
		order[i] = i
		c := &cands[i]
		if c.t, errs[i] = sc.termsCtx(stdctx, c.p, opts); errs[i] != nil {
			return
		}
		divBound := 1.0
		if needDiv && !c.t.zero {
			divBound = float64(ged.Approx(c.p, nearestSelected(c.p, selected)))
		}
		c.bound = c.t.score(divBound, opts)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if ferr != nil {
		return nil, ferr
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := &cands[order[a]], &cands[order[b]]
		if ca.bound != cb.bound {
			return ca.bound > cb.bound
		}
		return order[a] < order[b]
	})

	best := -1
	var bestScore, bestDiv float64
	for k, i := range order {
		c := &cands[i]
		if c.bound <= 0 || best >= 0 && (c.bound < bestScore || c.bound == bestScore && i > best) {
			if needDiv {
				pipeline.From(stdctx).Add(pipeline.CounterSelectBoundSkipped, int64(len(order)-k))
			}
			break
		}
		div := 1.0
		if needDiv {
			d, _, err := ged.MinDistanceCtx(stdctx, c.p, selected)
			if err != nil {
				return nil, err
			}
			div = float64(d)
		}
		score := c.t.score(div, opts)
		if score <= 0 {
			continue
		}
		if best < 0 || score > bestScore || score == bestScore && i < best {
			best, bestScore, bestDiv = i, score, div
		}
	}
	if best < 0 {
		return nil, nil
	}
	c := &cands[best]
	return &Pattern{
		Graph: c.p, Score: bestScore,
		Ccov: c.t.ccov, Lcov: c.t.lcov, Div: bestDiv, Cog: c.t.cog,
		SourceCSG: c.source,
	}, nil
}

// nearestSelected returns the selected pattern with the lowest GED lower
// bound to p, the first one on ties: the likeliest to be near p, so its
// Approx makes the tightest single-pair bound of p's diversity.
func nearestSelected(p *graph.Graph, selected []*graph.Graph) *graph.Graph {
	best, bestLB := selected[0], ged.LowerBound(p, selected[0])
	for _, q := range selected[1:] {
		if lb := ged.LowerBound(p, q); lb < bestLB {
			best, bestLB = q, lb
		}
	}
	return best
}

// openSizes returns the pattern sizes whose quota is not yet exhausted
// (GetPatternSizeRange in Algorithm 4).
func openSizes(b Budget, counts map[int]int) []int {
	var out []int
	for k := b.EtaMin; k <= b.EtaMax; k++ {
		if counts[k] < b.quota(k) {
			out = append(out, k)
		}
	}
	return out
}

// proposingCSGs returns the CSG indices allowed to propose candidates this
// iteration: all of them, or the top-k by current cluster weight.
func (ctx *Context) proposingCSGs(top int) []int {
	idx := make([]int, len(ctx.CSGs))
	for i := range idx {
		idx[i] = i
	}
	if top <= 0 || top >= len(idx) {
		return idx
	}
	sort.Slice(idx, func(a, b int) bool {
		if ctx.cw[idx[a]] != ctx.cw[idx[b]] {
			return ctx.cw[idx[a]] > ctx.cw[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := idx[:top]
	sort.Ints(out)
	return out
}
