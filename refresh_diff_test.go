package catapult

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/csg"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/pipeline"
)

// csgText renders a summary as its graph text, member list and sorted
// vertex and edge supports, so two summaries render equal exactly when
// they are equal.
func csgText(c *csg.CSG) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nmembers %v\n", c.G, c.Members)
	for v, ids := range c.VertexGraphs {
		fmt.Fprintf(&b, "v %d %v\n", v, ids.Sorted())
	}
	edges := make([]graph.Edge, 0, len(c.EdgeGraphs))
	for e := range c.EdgeGraphs {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "e %d %d %v\n", e.U, e.V, c.EdgeGraphs[e].Sorted())
	}
	return b.String()
}

// patternText renders a selected pattern bit for bit: graph text, the
// Float64bits of every Eq-2 term, and the proposing CSG.
func patternText(p *core.Pattern) string {
	return fmt.Sprintf("%s score=%x ccov=%x lcov=%x div=%x cog=%x csg=%d",
		p.Graph, math.Float64bits(p.Score), math.Float64bits(p.Ccov), math.Float64bits(p.Lcov),
		math.Float64bits(p.Div), math.Float64bits(p.Cog), p.SourceCSG)
}

// TestDifferentialRefreshReuse drives the quickstart Maintainer through
// split and no-split refreshes, and a refresh cancelled mid-reselection
// followed by its retry. After every committed refresh the kept and built
// summaries must equal the rebuild-everything oracle (every CSG built
// afresh from the committed clusters), and the patterns must equal a cold
// selection over those rebuilt summaries with no carried verdicts, bit for
// bit.
func TestDifferentialRefreshReuse(t *testing.T) {
	ctx := context.Background()
	m, err := NewMaintainerCtx(ctx, dataset.AIDSLike(200, 1), Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 8, Gamma: 10},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 20, MinSupport: 0.1},
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}

	check := func(step string) {
		t.Helper()
		oracle, err := csg.BuildAllCtx(ctx, m.db, m.clusters)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.csgs) != len(oracle) {
			t.Fatalf("%s: %d summaries, oracle %d", step, len(m.csgs), len(oracle))
		}
		for i := range oracle {
			if got, want := csgText(m.csgs[i]), csgText(oracle[i]); got != want {
				t.Fatalf("%s: CSG %d differs from its rebuild\n got %.300s\nwant %.300s", step, i, got, want)
			}
		}
		cold, err := core.SelectCtx(ctx, core.NewContext(m.db, oracle), m.cfg.Budget, m.cfg.Selection)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.patterns) != len(cold.Patterns) {
			t.Fatalf("%s: %d patterns, cold selection %d", step, len(m.patterns), len(cold.Patterns))
		}
		for i, p := range cold.Patterns {
			if got, want := patternText(m.patterns[i]), patternText(p); got != want {
				t.Fatalf("%s: pattern %d\n got %s\nwant %s", step, i, got, want)
			}
		}
	}

	// refresh runs one batch and reports how many clusters it split and
	// how many committed summaries it kept from before.
	refresh := func(step string, gs []*graph.Graph) (splits int64, kept int) {
		t.Helper()
		before := make(map[*csg.CSG]bool, len(m.csgs))
		for _, c := range m.csgs {
			before[c] = true
		}
		rec := pipeline.NewRecorder()
		if _, err := m.AddGraphsCtx(pipeline.WithTrace(ctx, rec), gs); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		for _, c := range m.csgs {
			if before[c] {
				kept++
			}
		}
		check(step)
		return rec.Counters()[pipeline.CounterClustersSplit], kept
	}

	var splitRefreshes, plainRefreshes, keptAfterSplit int
	var carried int64
	batch := 0
	for i, size := range []int{5, 1, 5, 8, 2, 5, 1, 6, 5, 3, 5, 4} {
		if i == 6 {
			// Cancel a refresh at its 20th VF2 call, mid-reselection; it
			// must leave the committed state and engine as they were, and
			// its retry must absorb the queued batch.
			eng, stats, version := m.cover, m.cover.Stats(), m.version
			inj := faultinject.New()
			cctx, cancel := context.WithCancel(ctx)
			inj.Do(pipeline.CounterVF2Calls, 20, "cancel-mid-reselect", cancel)
			if _, err := m.AddGraphsCtx(pipeline.WithTrace(cctx, inj), dataset.AIDSLike(4, int64(1000+batch)).Graphs); err == nil {
				t.Fatal("cancelled refresh committed")
			}
			cancel()
			batch++
			if len(inj.Fired()) == 0 {
				t.Fatal("the cancellation never fired")
			}
			if m.cover != eng || m.cover.Stats() != stats || m.version != version || m.Pending() != 4 {
				t.Fatalf("failed refresh moved the committed state: engine kept %v, stats %+v -> %+v, version %d -> %d, pending %d",
					m.cover == eng, stats, m.cover.Stats(), version, m.version, m.Pending())
			}
			splits, kept := refresh("retry", nil)
			if splits > 0 {
				splitRefreshes++
				keptAfterSplit += kept
			} else {
				plainRefreshes++
			}
			carried += m.cover.Stats().Carried
		}
		step := fmt.Sprintf("batch %d (%d graphs)", batch, size)
		splits, kept := refresh(step, dataset.AIDSLike(size, int64(1000+batch)).Graphs)
		batch++
		if splits > 0 {
			splitRefreshes++
			keptAfterSplit += kept
		} else {
			plainRefreshes++
		}
		carried += m.cover.Stats().Carried
	}
	t.Logf("%d split and %d plain refreshes, %d summaries kept across splits, %d verdicts carried",
		splitRefreshes, plainRefreshes, keptAfterSplit, carried)
	if splitRefreshes == 0 || plainRefreshes == 0 {
		t.Errorf("want both split and plain refreshes, got %d and %d", splitRefreshes, plainRefreshes)
	}
	if keptAfterSplit == 0 {
		t.Error("no summary was kept across a split: the reuse path never ran")
	}
	if carried == 0 {
		t.Error("no containment verdict was carried: the successor path never ran")
	}
}

// A committed refresh keeps its own coverage engine, detached from the
// engine it succeeded, so no chain of predecessors stays reachable.
func TestMaintainerKeepsDetachedEngine(t *testing.T) {
	m := testMaintainer(t)
	if m.cover != nil {
		t.Fatal("a new maintainer holds a coverage engine; its first refresh must be cold")
	}
	var engines []*cover.Engine
	for i := 0; i < 3; i++ {
		if _, err := m.AddGraphsCtx(context.Background(), dataset.AIDSLike(2, int64(40+i)).Graphs); err != nil {
			t.Fatal(err)
		}
		if prev := reflect.ValueOf(m.cover).Elem().FieldByName("prev"); !prev.IsNil() {
			t.Fatalf("refresh %d: the committed engine still references its predecessor", i)
		}
		engines = append(engines, m.cover)
	}
	if engines[0] == engines[1] || engines[1] == engines[2] {
		t.Error("a committed refresh did not keep its own engine")
	}
}
