package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bignet"
	"repro/internal/cluster"
	"repro/internal/csg"
	"repro/internal/dataset"
	"repro/internal/ged"
	"repro/internal/graph"
	"repro/internal/pipeline"
)

// scoreWith computes the pattern score under the selection options, which
// add the query-log factor to Eq 2 when a log is given.
func (ctx *Context) scoreWith(p *graph.Graph, selected []*graph.Graph, opts Options) (score, ccov, lcov, div, cog float64) {
	score, ccov, lcov, div, cog, _ = ctx.scoreWithCtx(context.Background(), p, selected, opts)
	return score, ccov, lcov, div, cog
}

// scoreWithCtx is scoreWith with cooperative cancellation, threaded into
// the VF2 coverage checks and the pruned min-GED diversity loop.
func (sc *Context) scoreWithCtx(stdctx context.Context, p *graph.Graph, selected []*graph.Graph, opts Options) (score, ccov, lcov, div, cog float64, err error) {
	t, err := sc.termsCtx(stdctx, p, opts)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	div = 1
	if len(selected) > 0 {
		d, _, derr := ged.MinDistanceCtx(stdctx, p, selected)
		if derr != nil {
			return 0, 0, 0, 0, 0, derr
		}
		div = float64(d)
	}
	return t.score(div, opts), t.ccov, t.lcov, div, t.cog, nil
}

// exhaustiveBest is the oracle for bestCandidate: every candidate is
// scored exactly, exact min-GED included, in proposal order, and the first
// largest positive score wins.
func exhaustiveBest(sc *Context, stdctx context.Context, cands []candidate, selected []*graph.Graph, opts Options) (*Pattern, error) {
	var best *Pattern
	for _, c := range cands {
		score, ccov, lcov, div, cog, err := sc.scoreWithCtx(stdctx, c.p, selected, opts)
		if err != nil {
			return nil, err
		}
		if score <= 0 {
			continue
		}
		if best == nil || score > best.Score {
			best = &Pattern{Graph: c.p, Score: score, Ccov: ccov, Lcov: lcov, Div: div, Cog: cog, SourceCSG: c.source}
		}
	}
	return best, nil
}

// samePattern reports whether two winners agree on the graph and on the
// float bits of every Eq-2 term.
func samePattern(a, b *Pattern) bool {
	if a == nil || b == nil {
		return a == b
	}
	bits := math.Float64bits
	return a.Graph.String() == b.Graph.String() && a.SourceCSG == b.SourceCSG &&
		bits(a.Score) == bits(b.Score) && bits(a.Ccov) == bits(b.Ccov) &&
		bits(a.Lcov) == bits(b.Lcov) && bits(a.Div) == bits(b.Div) && bits(a.Cog) == bits(b.Cog)
}

// oracleInput is one selection input of the bound-ordered differential.
type oracleInput struct {
	name  string
	db    *graph.DB
	csgs  []*csg.CSG
	sizes []float64
	b     Budget
	opts  Options
}

func (in oracleInput) context() *Context { return NewContextSized(in.db, in.csgs, in.sizes) }

// clusteredInput clusters db the way the facade does and summarizes the
// clusters into CSGs weighted by cluster size.
func clusteredInput(t *testing.T, name string, db *graph.DB, cfg cluster.Config, b Budget, opts Options) oracleInput {
	t.Helper()
	res, err := cluster.RunCtx(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	members := make([][]int, len(res.Clusters))
	sizes := make([]float64, len(res.Clusters))
	for i, c := range res.Clusters {
		members[i] = c.Members
		sizes[i] = float64(c.Len())
	}
	csgs, err := csg.BuildAllCtx(context.Background(), db, members)
	if err != nil {
		t.Fatal(err)
	}
	return oracleInput{name: name, db: db, csgs: csgs, sizes: sizes, b: b, opts: opts}
}

// redundantOracleDB is the golden suite's redundant database: each
// AIDS-like molecule next to a vertex-permuted copy of itself.
func redundantOracleDB(seed int64) *graph.DB {
	base := dataset.AIDSLike(10, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x7ca))
	var gs []*graph.Graph
	for _, g := range base.Graphs {
		gs = append(gs, g, permuted(g, rng))
	}
	return graph.NewDB("redundant", gs)
}

// permuted returns an isomorphic copy of g with shuffled vertex IDs.
func permuted(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	perm := rng.Perm(g.NumVertices())
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	out := graph.New(g.NumVertices(), g.NumEdges())
	for _, old := range inv {
		out.AddVertex(g.Label(graph.VertexID(old)))
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(graph.VertexID(perm[e.U]), graph.VertexID(perm[e.V]))
	}
	return out
}

// networkSummaryDB decomposes a small generated R-MAT network into the
// region-summary database the large-network path selects over.
func networkSummaryDB(t *testing.T, seed int64) *graph.DB {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteNetworkText(&buf, dataset.NetworkConfig{
		Name: "oracle-net", Vertices: 512, Edges: 4000, Labels: 6, Seed: seed,
	}); err != nil {
		t.Fatal(err)
	}
	f, _, err := bignet.LoadEdgeListCtx(context.Background(), &buf, bignet.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := bignet.Decompose(context.Background(), f, bignet.Options{MaxRegionEdges: 64, Reps: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return dec.DB
}

func oracleInputs(t *testing.T) []oracleInput {
	var ins []oracleInput
	for seed := int64(1); seed <= 3; seed++ {
		ins = append(ins, clusteredInput(t, fmt.Sprintf("redundant seed %d", seed), redundantOracleDB(seed),
			cluster.Config{Strategy: cluster.HybridMCCS, N: 6, MinSupport: 0.2, MCSBudget: 1500, Seed: seed},
			Budget{EtaMin: 3, EtaMax: 5, Gamma: 4}, Options{Walks: 6, Seed: seed}))
	}
	quick := clusteredInput(t, "quickstart", dataset.AIDSLike(200, 1),
		cluster.Config{Strategy: cluster.HybridMCCS, N: 20, MinSupport: 0.1, Seed: 42},
		Budget{EtaMin: 3, EtaMax: 8, Gamma: 10}, Options{Seed: 42})
	ins = append(ins, quick)
	ins = append(ins, clusteredInput(t, "bignet summary", networkSummaryDB(t, 2),
		cluster.Config{Strategy: cluster.HybridMCCS, N: 8, MinSupport: 0.2, MCSBudget: 1500, Seed: 2},
		Budget{EtaMin: 3, EtaMax: 6, Gamma: 5}, Options{Walks: 6, Seed: 2}))

	db, csgs, _, _, _ := diffSetup(5)
	sizes := make([]float64, len(csgs))
	for i, c := range csgs {
		sizes[i] = float64(len(c.Members))
	}
	base := oracleInput{db: db, csgs: csgs, sizes: sizes, b: Budget{EtaMin: 3, EtaMax: 5, Gamma: 6}}
	variants := []struct {
		name string
		opts Options
	}{
		{"query log", Options{Walks: 8, Seed: 5, QueryLog: diffPatterns(db, 6, rand.New(rand.NewSource(5^0x5eed)))}},
		{"top CSGs", Options{Walks: 8, Seed: 5, TopCSGs: 2}},
	}
	for _, v := range variants {
		in := base
		in.name, in.opts = v.name, v.opts
		ins = append(ins, in)
	}
	return ins
}

// TestDifferentialBoundOrderedSelect checks bound-ordered scoring against
// exhaustive scoring: in every round of every input both pick the same
// winner with the same Eq-2 bits, and whole runs agree on the patterns and
// on every VF2 search, walk and candidate, while the bound-ordered run
// makes no more GED computations.
func TestDifferentialBoundOrderedSelect(t *testing.T) {
	skippedTotal := int64(0)
	for _, in := range oracleInputs(t) {
		rounds := 0
		checking := func(sc *Context, stdctx context.Context, cands []candidate, selected []*graph.Graph, opts Options) (*Pattern, error) {
			want, err := exhaustiveBest(sc, stdctx, cands, selected, opts)
			if err != nil {
				return nil, err
			}
			got, err := sc.bestCandidate(stdctx, append([]candidate(nil), cands...), selected, opts)
			if err != nil {
				return nil, err
			}
			rounds++
			if !samePattern(got, want) {
				t.Errorf("%s round %d: bound-ordered winner differs:\n got:  %+v\n want: %+v", in.name, rounds, got, want)
			}
			return want, nil
		}
		if _, err := selectWith(context.Background(), in.context(), in.b, in.opts, checking); err != nil {
			t.Fatal(err)
		}
		if rounds < 2 {
			t.Errorf("%s: only %d rounds compared", in.name, rounds)
		}

		run := func(pick pickFunc) (*Result, *pipeline.Recorder) {
			rec := pipeline.NewRecorder()
			res, err := selectWith(pipeline.WithTrace(context.Background(), rec), in.context(), in.b, in.opts, pick)
			if err != nil {
				t.Fatal(err)
			}
			return res, rec
		}
		got, grec := run((*Context).bestCandidate)
		want, wrec := run(exhaustiveBest)
		if got.Iterations != want.Iterations || got.Exhausted != want.Exhausted || len(got.Patterns) != len(want.Patterns) {
			t.Fatalf("%s: run shape differs: %d/%v/%d vs %d/%v/%d", in.name,
				got.Iterations, got.Exhausted, len(got.Patterns), want.Iterations, want.Exhausted, len(want.Patterns))
		}
		for i := range got.Patterns {
			if !samePattern(got.Patterns[i], want.Patterns[i]) {
				t.Errorf("%s: pattern %d differs:\n got:  %+v\n want: %+v", in.name, i, *got.Patterns[i], *want.Patterns[i])
			}
		}
		for _, c := range []pipeline.Counter{pipeline.CounterVF2Calls, pipeline.CounterWalks,
			pipeline.CounterCandidatesGenerated, pipeline.CounterCandidatesRejected, pipeline.CounterCandidatesAccepted} {
			if g, w := grec.Total(c), wrec.Total(c); g != w {
				t.Errorf("%s: %s = %d, exhaustive scoring %d", in.name, c, g, w)
			}
		}
		if g, w := grec.Total(pipeline.CounterGEDCalls), wrec.Total(pipeline.CounterGEDCalls); g > w {
			t.Errorf("%s: bound-ordered scoring made %d GED computations, exhaustive %d", in.name, g, w)
		}
		skippedTotal += grec.Total(pipeline.CounterSelectBoundSkipped)
	}
	if skippedTotal == 0 {
		t.Error("the bound skipped no exact min-GED on any input")
	}
}

// TestDifferentialBoundOrderedExactTie feeds bestCandidate rounds whose
// candidates are vertex-permuted copies of one pattern: the exact scores
// tie, while Approx, which depends on vertex numbering, can give a later
// copy a higher bound. The first copy must win, as under exhaustive
// scoring, and the test insists that such an out-of-order tie occurs.
func TestDifferentialBoundOrderedExactTie(t *testing.T) {
	db, csgs, _, _, rng := diffSetup(3)
	patterns := diffPatterns(db, 12, rng)
	outOfOrder := 0
	for pi, p := range patterns {
		sc := NewContext(db, csgs)
		selected := []*graph.Graph{patterns[(pi+1)%len(patterns)], patterns[(pi+5)%len(patterns)]}
		q := nearestSelected(p, selected)
		for trial := 0; trial < 8; trial++ {
			var cands []candidate
			for i := 0; i < 5; i++ {
				cands = append(cands, candidate{p: permuted(p, rng), source: i})
			}
			want, err := exhaustiveBest(sc, context.Background(), cands, selected, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.bestCandidate(context.Background(), cands, selected, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !samePattern(got, want) {
				t.Fatalf("pattern %d trial %d: tie broken differently:\n got:  %+v\n want: %+v", pi, trial, got, want)
			}
			if want != nil && want.SourceCSG != 0 {
				t.Fatalf("pattern %d trial %d: exact tie won by copy %d, want 0", pi, trial, want.SourceCSG)
			}
			if ged.Approx(cands[0].p, q) < ged.Approx(cands[len(cands)-1].p, q) {
				outOfOrder++
			}
		}
	}
	if outOfOrder == 0 {
		t.Error("no trial gave a later copy a higher bound; the tie rule went unexercised")
	}
}
