// Command extconsumer is the external-consumer compile smoke for the
// catapult facade: it lives outside the repro module (wired in via a
// replace directive) and therefore cannot import any repro/internal/...
// package. Everything it touches — configuration, selection, results,
// health, incremental maintenance, metrics — must compile using only
// catapult.* names. Built (not run) by TestExternalConsumerCompiles.
package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	catapult "repro"
)

func main() {
	// Build a tiny database from scratch through the public constructors.
	var gs []*catapult.Graph
	for i := 0; i < 8; i++ {
		g := catapult.NewGraph(4, 4)
		vs := []catapult.VertexID{
			g.AddVertex("C"), g.AddVertex("N"), g.AddVertex("O"), g.AddVertex("C"),
		}
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
			_ = g.AddEdge(vs[e[0]], vs[e[1]])
		}
		gs = append(gs, g)
	}
	db := catapult.NewDB("ext", gs)

	// The frozen-graph surface: freeze the database up front, inspect the
	// shared interner and the flat-array footprint.
	var stats catapult.FrozenStats = db.Freeze()
	var in *catapult.Interner = catapult.SharedInterner()
	var f *catapult.Frozen = gs[0].Freeze()
	var lid catapult.LabelID = f.Label(0)
	fmt.Println(stats.Graphs, stats.Labels, stats.Bytes, in.Len(), in.LabelString(lid))

	// Full public configuration, observability included.
	m := catapult.NewMetrics()
	cfg := catapult.Config{
		Budget:     catapult.Budget{EtaMin: 3, EtaMax: 4, Gamma: 2},
		Clustering: catapult.ClusterConfig{Strategy: catapult.HybridMCCS, N: 4, MinSupport: 0.2},
		Selection:  catapult.SelectionOptions{Walks: 5},
		Degradation: catapult.DegradationConfig{
			Enabled:  true,
			Deadline: 30 * time.Second,
		},
		Observer: catapult.MetricsObserver(m),
		Seed:     1,
	}

	res, err := catapult.SelectCtx(context.Background(), db, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Consume the full Result through public names.
	var patterns []*catapult.Pattern = res.Patterns
	for _, p := range patterns {
		fmt.Println(p.Size(), p.Score, p.Ccov, p.Lcov)
	}
	var csgs []*catapult.CSG = res.CSGs
	fmt.Println(len(csgs), len(res.Clusters), res.ClusteringTime, res.PatternTime)
	var counters map[catapult.Counter]int64 = res.Counters
	fmt.Println(counters[catapult.Counter("vf2_calls")])
	var health *catapult.Health = res.Health
	if health != nil {
		var reports []catapult.StageReport = health.Stages
		var faults []*catapult.StageFault = health.Faults
		fmt.Println(res.Degraded(), len(reports), len(faults))
	}

	// Per-keystroke autocompletion against the selected pattern set:
	// the Suggester surface plus the one-shot SuggestCtx convenience,
	// consumed entirely through catapult.* names.
	var eng *catapult.Suggester = catapult.NewSuggester(res.Patterns)
	sopts := catapult.SuggestOptions{TopK: 3, Budget: 50 * time.Millisecond}
	partial := catapult.NewGraph(2, 1)
	pu, pv := partial.AddVertex("C"), partial.AddVertex("N")
	_ = partial.AddEdge(pu, pv)
	var sres *catapult.SuggestResult
	sres, err = eng.SuggestCtx(context.Background(), partial, sopts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var sstats catapult.SuggestStats = sres.Stats
	fmt.Println(sstats.Patterns, sstats.Candidates, sstats.Degraded, eng.NumPatterns())
	for _, s := range sres.Suggestions {
		var sg catapult.Suggestion = s
		fmt.Println(sg.Pattern, sg.Contained, sg.Distance, sg.Rank)
	}
	if sres2, err := catapult.SuggestCtx(context.Background(), res, partial, sopts); err == nil {
		fmt.Println(len(sres2.Suggestions))
	}
	// The HTTP response shape of POST /v1/suggest stays decodable too.
	var sresp catapult.ServeSuggestResponse
	var sview catapult.ServeSuggestionView
	_ = sresp
	_ = sview

	// Incremental maintenance plus operational gauges.
	mt, err := catapult.NewMaintainerCtx(context.Background(), db, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mt.EnableMetrics(m)
	if _, err := mt.AddGraphsCtx(context.Background(), gs[:1]); err != nil {
		fmt.Println("refresh queued:", mt.Pending(), mt.NextRetry(), mt.LastErr())
	}

	// The scrape surface.
	http.Handle("/metrics", m.Handler())
	if err := catapult.WriteDB(os.Stdout, catapult.NewDB("patterns", res.PatternGraphs())); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
