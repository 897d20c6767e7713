package catapult_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/pipeline"
)

// The golden suite pins the full output of SelectCtx — clusters, effective
// sizes, CSGs, patterns with their Eq-2 score breakdowns as exact float64
// bits, and Exhausted — for fixed inputs. Every input is selected under
// GOMAXPROCS 1, 2 and 4 on the same database objects, so one run also
// proves the output does not depend on the worker count or on per-graph
// state memoized by an earlier run (frozen forms, canonical labels).
//
// Regenerate with `go test -run TestGoldenSelect -update-golden .` only
// when a change is meant to alter selection output, and say why in the
// commit.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/select.golden from the current code")

const goldenPath = "testdata/select.golden"

// permutedCopy returns an isomorphic copy of g with vertices renumbered by
// a random permutation.
func permutedCopy(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	vs := make([]graph.VertexID, g.NumVertices())
	for i := range vs {
		vs[i] = graph.VertexID(i)
	}
	rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	sub, _ := g.InducedSubgraph(vs)
	return sub
}

// redundantDB builds a database with isomorphic redundancy — each base
// molecule plus a permuted twin — the regime where budget-bounded searches
// are most order-sensitive, so any change in exploration order surfaces.
func redundantDB(seed int64) *graph.DB {
	base := dataset.AIDSLike(10, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x7ca))
	var gs []*graph.Graph
	for _, g := range base.Graphs {
		gs = append(gs, g, permutedCopy(g, rng))
	}
	return graph.NewDB("frozen-diff", gs)
}

type goldenInput struct {
	name string
	db   *graph.DB
	cfg  catapult.Config
}

// goldenQuickstart is the quickstart configuration the benchmark's mine
// workload runs.
var goldenQuickstart = catapult.Config{
	Budget:     core.Budget{EtaMin: 3, EtaMax: 8, Gamma: 10},
	Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 20, MinSupport: 0.1},
	Seed:       42,
}

// goldenNetworkDB is the region-summary database of a small generated
// R-MAT network, the input the large-network path selects over.
func goldenNetworkDB(t *testing.T) *graph.DB {
	t.Helper()
	f := dataset.NetworkFrozen(dataset.NetworkConfig{
		Name: "golden-net", Vertices: 4096, Edges: 20000, Labels: 8, Seed: 1,
	})
	dec, err := catapult.DecomposeNetworkCtx(context.Background(), f, goldenQuickstart)
	if err != nil {
		t.Fatal(err)
	}
	return dec.DB
}

// goldenInputs are the three redundant databases of the differential
// suites, whose tight MCS budget makes any change in exploration order
// visible, the quickstart configuration the benchmark's mine workload
// runs, and that configuration over a network's region summaries, whose
// small CSGs are the ones too small to reach the largest pattern size.
func goldenInputs(t *testing.T) []goldenInput {
	var in []goldenInput
	for seed := int64(1); seed <= 3; seed++ {
		in = append(in, goldenInput{
			name: fmt.Sprintf("redundant seed %d", seed),
			db:   redundantDB(seed),
			cfg:  redundantConfig(seed, 4),
		})
	}
	in = append(in, goldenInput{
		name: "quickstart",
		db:   dataset.AIDSLike(200, 1),
		cfg:  goldenQuickstart,
	})
	in = append(in, goldenInput{
		name: "network",
		db:   goldenNetworkDB(t),
		cfg:  goldenQuickstart,
	})
	return in
}

// bits renders a float64 exactly, with its decimal value for the reader.
func bits(v float64) string { return fmt.Sprintf("%016x (%v)", math.Float64bits(v), v) }

// renderGolden writes one selection result in the golden text format. The
// MCS counters pin how many search nodes fine clustering expanded, so a
// kernel change that keeps every result but explores differently shows.
func renderGolden(b *bytes.Buffer, name string, res *catapult.Result) {
	fmt.Fprintf(b, "== %s\n", name)
	fmt.Fprintf(b, "exhausted %v\n", res.Exhausted)
	fmt.Fprintf(b, "mcs_calls %d mcs_nodes %d mcs_budget_exhausted %d\n",
		res.Counters[pipeline.CounterMCSCalls], res.Counters[pipeline.CounterMCSNodes],
		res.Counters[pipeline.CounterMCSBudgetExhausted])
	fmt.Fprintf(b, "clusters %d\n", len(res.Clusters))
	for i, c := range res.Clusters {
		fmt.Fprintf(b, "cluster %d size %s members %v\n", i, bits(res.EffectiveSizes[i]), c)
	}
	fmt.Fprintf(b, "csgs %d\n", len(res.CSGs))
	for i, c := range res.CSGs {
		fmt.Fprintf(b, "csg %d members %v\n  %v\n", i, c.Members, c.G)
	}
	fmt.Fprintf(b, "patterns %d\n", len(res.Patterns))
	for i, p := range res.Patterns {
		fmt.Fprintf(b, "pattern %d csg %d\n  %v\n", i, p.SourceCSG, p.Graph)
		fmt.Fprintf(b, "  score %s\n  ccov %s\n  lcov %s\n  div %s\n  cog %s\n",
			bits(p.Score), bits(p.Ccov), bits(p.Lcov), bits(p.Div), bits(p.Cog))
	}
}

// firstDiff returns the first differing line of two renderings.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got:  %q\n want: %q", i+1, gl, wl)
		}
	}
	return "identical"
}

// checkSpansEtaMax demands CSGs both below and at or above etaMax edges, so
// the input keeps proposing sizes that some CSGs are too small to reach.
func checkSpansEtaMax(t *testing.T, res *catapult.Result, etaMax int) {
	t.Helper()
	below, above := 0, 0
	for _, c := range res.CSGs {
		if c.G.NumEdges() < etaMax {
			below++
		} else {
			above++
		}
	}
	if below == 0 || above == 0 {
		t.Errorf("network input has %d CSGs below and %d at or above ηmax = %d edges; want both",
			below, above, etaMax)
	}
}

// TestGoldenSelect selects every golden input under GOMAXPROCS 1, 2 and 4
// and demands each rendering equal testdata/select.golden byte for byte.
func TestGoldenSelect(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	want, err := os.ReadFile(goldenPath)
	if err != nil && !*updateGolden {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	inputs := goldenInputs(t)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var got bytes.Buffer
		for _, in := range inputs {
			res, err := catapult.SelectCtx(context.Background(), in.db, in.cfg)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, %s: %v", procs, in.name, err)
			}
			renderGolden(&got, in.name, res)
			if in.name == "network" && procs == 1 {
				checkSpansEtaMax(t, res, in.cfg.Budget.EtaMax)
			}
		}
		if *updateGolden && procs == 1 {
			if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			want = got.Bytes()
			continue
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("GOMAXPROCS %d: selection output differs from %s at %s",
				procs, goldenPath, firstDiff(got.Bytes(), want))
		}
	}
}
