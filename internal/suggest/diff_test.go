package suggest

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
)

// diffFixture derives a pattern set and partial queries from the seeded
// synthetic dataset: patterns are the first graphs with seeded scores,
// queries are connected edge-prefixes of later graphs — the shapes a user
// grows keystroke by keystroke.
func diffFixture(seed int64) ([]*core.Pattern, []*graph.Graph) {
	db := dataset.AIDSLike(40, seed)
	rng := rand.New(rand.NewSource(seed))
	var ps []*core.Pattern
	for i := 0; i < 12 && i < db.Len(); i++ {
		ps = append(ps, &core.Pattern{Graph: db.Graph(i), Score: rng.Float64()})
	}
	var qs []*graph.Graph
	for i := 12; i < 24 && i < db.Len(); i++ {
		g := db.Graph(i)
		es := g.Edges()
		if len(es) == 0 {
			continue
		}
		n := 1 + rng.Intn(len(es))
		q, _ := g.EdgeSubgraph(es[:n])
		qs = append(qs, q)
	}
	return ps, qs
}

// stripElapsed zeroes the only wall-clock-dependent field so results can
// be compared bit-for-bit.
func stripElapsed(res *Result) *Result {
	res.Stats.Elapsed = 0
	return res
}

// TestDifferentialSuggestDeterministicAcrossGOMAXPROCS pins that an
// unbudgeted suggestion ranking is a pure function of (patterns, query,
// options): bit-identical across GOMAXPROCS values (the cover engine
// verifies candidates in parallel) and across repeated runs on a fresh
// engine (memo state must not leak into results).
func TestDifferentialSuggestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []int64{1, 7, 42} {
		ps, qs := diffFixture(seed)
		opts := Options{Budget: -1, TopK: 6}

		var baseline []*Result
		for _, procs := range []int{1, 2, runtime.NumCPU()} {
			runtime.GOMAXPROCS(procs)
			eng := NewEngine(ps)
			var got []*Result
			for _, q := range qs {
				res, err := eng.SuggestCtx(context.Background(), q, opts)
				if err != nil {
					t.Fatalf("seed %d procs %d: %v", seed, procs, err)
				}
				got = append(got, stripElapsed(res))
			}
			if baseline == nil {
				baseline = got
				continue
			}
			for i := range got {
				if !reflect.DeepEqual(baseline[i], got[i]) {
					t.Fatalf("seed %d procs %d query %d: ranking diverged\nwant %+v\ngot  %+v",
						seed, procs, i, baseline[i], got[i])
				}
			}
		}
	}
}

// TestDifferentialSuggestMemoInvariant pins that replaying keystrokes on a
// warm engine (memoized verdicts) returns exactly what a cold engine
// returns — the cache may only change speed, never results.
func TestDifferentialSuggestMemoInvariant(t *testing.T) {
	ps, qs := diffFixture(21)
	opts := Options{Budget: -1, TopK: 6}
	warm := NewEngine(ps)
	for round := 0; round < 2; round++ {
		for i, q := range qs {
			cold := NewEngine(ps)
			want, err := cold.SuggestCtx(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := warm.SuggestCtx(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripElapsed(want), stripElapsed(got)) {
				t.Fatalf("round %d query %d: warm engine diverged from cold\nwant %+v\ngot  %+v",
					round, i, want, got)
			}
		}
	}
}
