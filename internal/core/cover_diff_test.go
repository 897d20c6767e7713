package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/csg"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/subiso"
)

// Differential property tests: every scoring quantity computed through the
// coverage engine must be byte-identical to the sequential subiso.Contains
// oracles below — the engine is an exact accelerator, not an
// approximation. Randomized databases, clusterings and patterns; failures
// print the offending seed.

// naiveCCov is the oracle for CCov: every CSG of positive weight is tested
// with VF2, in ascending order.
func naiveCCov(sc *Context, p *graph.Graph) float64 {
	total := 0.0
	for i, c := range sc.CSGs {
		if sc.cw[i] > 0 && subiso.Contains(c.G, p) {
			total += sc.cw[i]
		}
	}
	return total
}

// naiveUpdateWeights is the oracle for UpdateWeights: the multiplicative
// update with sequential VF2 containment per CSG.
func naiveUpdateWeights(sc *Context, p *graph.Graph) {
	const n = 0.5
	for i, c := range sc.CSGs {
		if sc.cw[i] > 0 && subiso.Contains(c.G, p) {
			sc.cw[i] *= 1 - n
		}
	}
	seen := make(map[string]bool)
	for _, e := range p.Edges() {
		l := p.EdgeLabel(e.U, e.V)
		if seen[l] {
			continue
		}
		seen[l] = true
		if _, ok := sc.elw[l]; ok {
			sc.elw[l] *= 1 - n
		}
	}
}

// naiveQueryLogFrequency is the oracle for queryLogFrequencyCtx: the
// fraction of logged queries containing p, by a sequential scan.
func naiveQueryLogFrequency(p *graph.Graph, log []*graph.Graph) float64 {
	hits := 0
	for _, q := range log {
		if subiso.Contains(q, p) {
			hits++
		}
	}
	return float64(hits) / float64(len(log))
}

// diffSetup builds a randomized database, a random chunked clustering and
// two identical contexts — one scored through the engine, one through the
// oracles.
func diffSetup(seed int64) (*graph.DB, []*csg.CSG, *Context, *Context, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	db := dataset.AIDSLike(24+rng.Intn(16), seed)
	var clusters [][]int
	for i := 0; i < db.Len(); {
		n := 3 + rng.Intn(6)
		if i+n > db.Len() {
			n = db.Len() - i
		}
		members := make([]int, n)
		for j := range members {
			members[j] = i + j
		}
		clusters = append(clusters, members)
		i += n
	}
	csgs, _ := csg.BuildAllCtx(context.Background(), db, clusters) // never cancelled
	return db, csgs, NewContext(db, csgs), NewContext(db, csgs), rng
}

// diffPatterns draws patterns that are subgraphs of some data graph plus
// label-scrambled variants that usually are not.
func diffPatterns(db *graph.DB, n int, rng *rand.Rand) []*graph.Graph {
	labels := []string{"C", "N", "O", "S", "Cl"}
	var out []*graph.Graph
	for len(out) < n {
		g := db.Graph(rng.Intn(db.Len()))
		p := graph.RandomConnectedSubgraph(g, 3+rng.Intn(4), rng)
		if p == nil {
			continue
		}
		out = append(out, p)
		if len(out) < n {
			q := p.Clone()
			q.SetLabel(graph.VertexID(rng.Intn(q.NumVertices())), labels[rng.Intn(len(labels))])
			out = append(out, q)
		}
	}
	return out
}

func TestDifferentialCCov(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		db, _, engCtx, naiveCtx, rng := diffSetup(seed)
		for _, p := range diffPatterns(db, 30, rng) {
			if a, b := engCtx.CCov(p), naiveCCov(naiveCtx, p); a != b {
				t.Errorf("seed %d: engine CCov = %v, naive = %v for %v", seed, a, b, p)
			}
		}
	}
}

func TestDifferentialUpdateWeights(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		db, csgs, engCtx, naiveCtx, rng := diffSetup(seed)
		for _, p := range diffPatterns(db, 10, rng) {
			engCtx.UpdateWeights(p)
			naiveUpdateWeights(naiveCtx, p)
			for i := range csgs {
				if a, b := engCtx.ClusterWeight(i), naiveCtx.ClusterWeight(i); a != b {
					t.Fatalf("seed %d: cluster %d weight diverged: engine %v, naive %v",
						seed, i, a, b)
				}
			}
			if !reflect.DeepEqual(engCtx.elw, naiveCtx.elw) {
				t.Fatalf("seed %d: edge label weights diverged", seed)
			}
		}
	}
}

func TestDifferentialScovLcov(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		db, _, _, _, rng := diffSetup(seed)
		patterns := diffPatterns(db, 8, rng)

		got, err := ScovCtx(context.Background(), db, patterns)
		if err != nil {
			t.Fatal(err)
		}
		// Naive graph-major oracle, exactly the pre-engine implementation.
		covered := bitset.New(db.Len())
		for gi, g := range db.Graphs {
			for _, p := range patterns {
				if subiso.Contains(g, p) {
					covered.Add(gi)
					break
				}
			}
		}
		if want := float64(covered.Count()) / float64(db.Len()); got != want {
			t.Errorf("seed %d: engine Scov = %v, naive = %v", seed, got, want)
		}

		gotL, err := LcovCtx(context.Background(), db, patterns)
		if err != nil {
			t.Fatal(err)
		}
		if wantL := Lcov(db, patterns); gotL != wantL {
			t.Errorf("seed %d: LcovCtx = %v, Lcov = %v", seed, gotL, wantL)
		}
	}
}

func TestDifferentialQueryLogFrequency(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		db, _, engCtx, _, rng := diffSetup(seed)
		log := diffPatterns(db, 12, rng) // stand-in logged queries
		for _, p := range diffPatterns(db, 10, rng) {
			a, err := engCtx.queryLogFrequencyCtx(context.Background(), p, log)
			if err != nil {
				t.Fatal(err)
			}
			if b := naiveQueryLogFrequency(p, log); a != b {
				t.Errorf("seed %d: engine qfreq = %v, naive = %v for %v", seed, a, b, p)
			}
		}
	}
}

// TestDifferentialSelect runs the full greedy selection, query log
// included, on fresh contexts under GOMAXPROCS 1, 2 and 4: byte-identical
// pattern sets, score breakdowns and termination behavior, with the
// coverage engine's memo exercised. The golden suite pins the facade's
// output; this covers the query-log scoring path it does not take.
func TestDifferentialSelect(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for seed := int64(1); seed <= 3; seed++ {
		db, csgs, _, _, _ := diffSetup(seed)
		b := Budget{EtaMin: 3, EtaMax: 5, Gamma: 6}
		opts := Options{Walks: 8, Seed: seed,
			QueryLog: diffPatterns(db, 6, rand.New(rand.NewSource(seed^0x5eed)))}

		var want *Result
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			sc := NewContext(db, csgs)
			got, err := SelectCtx(context.Background(), sc, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			if s := sc.CoverEngine().Stats(); s.Hits == 0 || s.Misses == 0 {
				t.Errorf("seed %d GOMAXPROCS %d: engine run had no cache activity: %+v", seed, procs, s)
			}
			if want == nil {
				want = got
				continue
			}
			if got.Iterations != want.Iterations || got.Exhausted != want.Exhausted {
				t.Fatalf("seed %d GOMAXPROCS %d: run shape differs: (%d, %v) vs (%d, %v)",
					seed, procs, got.Iterations, got.Exhausted, want.Iterations, want.Exhausted)
			}
			if len(got.Patterns) != len(want.Patterns) {
				t.Fatalf("seed %d GOMAXPROCS %d: pattern counts differ: %d vs %d",
					seed, procs, len(got.Patterns), len(want.Patterns))
			}
			for i := range got.Patterns {
				pa, pb := got.Patterns[i], want.Patterns[i]
				if pa.Graph.String() != pb.Graph.String() ||
					pa.Score != pb.Score || pa.Ccov != pb.Ccov || pa.Lcov != pb.Lcov ||
					pa.Div != pb.Div || pa.Cog != pb.Cog || pa.SourceCSG != pb.SourceCSG {
					t.Errorf("seed %d GOMAXPROCS %d: pattern %d differs:\n got:  %+v\n want: %+v",
						seed, procs, i, *pa, *pb)
				}
			}
		}
	}
}

// TestScovLcovCtxCancelled is the regression test for the PR-1 gap: Scov
// and Lcov used to ignore context entirely; their Ctx variants must return
// ctx.Err() when cancelled.
func TestScovLcovCtxCancelled(t *testing.T) {
	db, _, _, _, rng := diffSetup(1)
	patterns := diffPatterns(db, 4, rng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ScovCtx(ctx, db, patterns); !errors.Is(err, context.Canceled) {
		t.Errorf("ScovCtx err = %v, want context.Canceled", err)
	}
	if _, err := LcovCtx(ctx, db, patterns); !errors.Is(err, context.Canceled) {
		t.Errorf("LcovCtx err = %v, want context.Canceled", err)
	}
	// The uncancellable wrappers still work and agree with each other.
	if v := Scov(db, patterns); v < 0 || v > 1 {
		t.Errorf("Scov = %v, want within [0, 1]", v)
	}
	if v := Lcov(db, patterns); v < 0 || v > 1 {
		t.Errorf("Lcov = %v, want within [0, 1]", v)
	}
}
