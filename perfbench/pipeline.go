package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	catapult "repro"
	"repro/internal/canon"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/csg"
	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/queryform"
	"repro/internal/treemine"
)

// Nominal op lengths on a 2-core host, used only to size the op lists.
const (
	mineOpSeconds    = 3.2
	networkOpSeconds = 1.0
	minBatchOps      = 3
)

// The clustering defaults catapult.SelectCtx runs with, which the traced
// composition has to pass to treemine itself.
const (
	maxTreeEdges = 3
	maxFeatures  = 40
)

// selection is what one pipeline op produced.
type selection struct {
	patterns []*core.Pattern
	working  *graph.DB // the database selection ran on
	// facade, set by traced ops, reruns the op's input through the facade
	// the traced composition stands in for.
	facade func(context.Context) ([]*core.Pattern, error)
	net    netOp // what a traced network op loaded and decomposed
}

// runMine is the cold offline selection of Algorithm 1: one
// catapult.SelectCtx per op, back to back from one caller, each over a
// fresh copy of the quickstart database. Every op does the same work, so
// the median op is not a rank among databases of different cost.
func runMine(ctx context.Context, b *bench) error {
	n := opsFor(b.opts.seconds, mineOpSeconds, minBatchOps)
	dbs, teardown, err := setup(b, func(int) ([]*graph.DB, func(), error) {
		dbs := make([]*graph.DB, n)
		for i := range dbs {
			dbs[i] = aidsDB(quickstartDB)
		}
		// The first selection of a process runs markedly slower than the
		// same work later, so setup pays it on a database of its own.
		if _, err := catapult.SelectCtx(ctx, aidsDB(warmupData), quickstartConfig()); err != nil {
			return nil, nil, fmt.Errorf("warm-up selection: %w", err)
		}
		return dbs, func() {}, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	b.runPipelineOps(ctx, n, func(ctx context.Context, op int64) (selection, error) {
		db := dbs[op-1]
		if b.tr == nil {
			res, err := catapult.SelectCtx(ctx, db, quickstartConfig())
			if err != nil {
				return selection{}, err
			}
			return selection{patterns: res.Patterns, working: res.WorkingDB}, nil
		}
		root, end := b.tr.start("op", 0, op)
		ps, err := b.composeSelect(ctx, op, root, db)
		end()
		return selection{patterns: ps, working: db, facade: func(ctx context.Context) ([]*core.Pattern, error) {
			res, err := catapult.SelectCtx(ctx, db, quickstartConfig())
			if err != nil {
				return nil, err
			}
			return res.Patterns, nil
		}}, err
	})
	return nil
}

// runNetwork is large-network ingest: an R-MAT network, rendered as SNAP
// text in setup, is streamed through catapult.LoadNetworkCtx and run
// through catapult.SelectNetworkCtx, once per op. Each op loads its own
// frozen network from the text, so every op is cold and does the same
// work.
func runNetwork(ctx context.Context, b *bench) error {
	n := opsFor(b.opts.seconds, networkOpSeconds, minBatchOps)
	text, teardown, err := setup(b, func(int) ([]byte, func(), error) {
		text, err := networkText(networkData)
		if err != nil {
			return nil, nil, err
		}
		warm, err := networkText(warmupData)
		if err != nil {
			return nil, nil, err
		}
		if _, err := loadAndSelect(ctx, warm); err != nil {
			return nil, nil, fmt.Errorf("warm-up op: %w", err)
		}
		return text, func() {}, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	b.runPipelineOps(ctx, n, func(ctx context.Context, op int64) (selection, error) {
		if b.tr == nil {
			nr, err := loadAndSelect(ctx, text)
			if err != nil {
				return selection{}, err
			}
			return selection{patterns: nr.Patterns, working: nr.WorkingDB}, nil
		}
		root, end := b.tr.start("op", 0, op)
		var f *catapult.Frozen
		var st *catapult.NetworkLoadStats
		err := b.layer(op, root, "bignet.load", func() (err error) {
			f, st, err = catapult.LoadNetworkCtx(ctx, bytes.NewReader(text), networkLoadOptions())
			return err
		})
		var dec *catapult.NetworkDecomposition
		if err == nil {
			err = b.layer(op, root, "bignet.decompose", func() (err error) {
				dec, err = catapult.DecomposeNetworkCtx(ctx, f, quickstartConfig())
				return err
			})
		}
		var ps []*core.Pattern
		if err == nil {
			ps, err = b.composeSelect(ctx, op, root, dec.DB)
		}
		end()
		if err != nil {
			return selection{}, err
		}
		return selection{patterns: ps, working: dec.DB, facade: func(ctx context.Context) ([]*core.Pattern, error) {
			nr, err := catapult.SelectNetworkCtx(ctx, f, quickstartConfig())
			if err != nil {
				return nil, err
			}
			return nr.Patterns, nil
		}, net: netOp{edges: st.Edges, regions: int64(len(dec.Regions)), reps: int64(dec.DB.Len())}}, nil
	})
	return nil
}

func networkLoadOptions() catapult.NetworkLoadOptions {
	return catapult.NetworkLoadOptions{VertexHint: networkVertices, EdgeHint: networkEdges}
}

// loadAndSelect is one untraced network op.
func loadAndSelect(ctx context.Context, text []byte) (*catapult.NetworkResult, error) {
	f, _, err := catapult.LoadNetworkCtx(ctx, bytes.NewReader(text), networkLoadOptions())
	if err != nil {
		return nil, err
	}
	return catapult.SelectNetworkCtx(ctx, f, quickstartConfig())
}

// netOp is what a traced network op loaded and decomposed.
type netOp struct {
	edges, regions, reps int64
}

// runPipelineOps runs n ops of a batch workload back to back as the timed
// phase, then checks every op's patterns and measures their quality. In a
// traced run each op also runs under its own pipeline.Recorder for the
// program's counters, and each traced composition is compared with the
// facade after the timed phase, so the facade's work stays out of it.
func (b *bench) runPipelineOps(ctx context.Context, n int, do func(context.Context, int64) (selection, error)) {
	sels := make([]selection, n)
	var ms []float64
	counters := make(map[pipeline.Counter]int64)
	var net netOp
	b.timed(func() {
		for i := range sels {
			runtime.GC()
			opCtx := ctx
			var rec *pipeline.Recorder
			if b.tr != nil {
				rec = pipeline.NewRecorder()
				opCtx = pipeline.WithTrace(ctx, rec)
			}
			b.attempted++
			start := time.Now()
			sel, err := do(opCtx, int64(i+1))
			elapsed := time.Since(start)
			if err != nil {
				b.check(false, "op %d: %v", i+1, err)
				continue
			}
			ms = append(ms, float64(elapsed.Nanoseconds())/1e6)
			sels[i] = sel
			net.edges, net.regions, net.reps = net.edges+sel.net.edges, net.regions+sel.net.regions, net.reps+sel.net.reps
			if rec != nil {
				for c, v := range rec.Counters() {
					counters[c] += v
				}
			}
		}
	})
	b.opTimes(ms)
	b.set("wait_ms", median(ms)) // the operator waits for the whole op

	qualityStart := time.Now()
	var mus, scovs []float64
	first := ""
	for i, sel := range sels {
		if sel.working == nil {
			continue
		}
		b.checkPatterns(fmt.Sprintf("op %d", i+1), sel.patterns)
		// Every op selects from the same data, cold, so every op must
		// select the same patterns.
		key := patternsKey(sel.patterns)
		if first == "" {
			first = key
		}
		b.check(key == first, "op %d selected other patterns than the run's first op", i+1)
		if sel.facade != nil {
			want, err := sel.facade(ctx)
			b.check(err == nil && key == patternsKey(want),
				"op %d: traced composition selected other patterns than the facade (facade error: %v)", i+1, err)
		}
		gs := patternGraphs(sel.patterns)
		mus = append(mus, muOf(sel.working, gs, b.opts.seed, i))
		scovs = append(scovs, core.Scov(sel.working, gs))
	}
	b.set("mu", mean(mus))
	b.set("scov", mean(scovs))
	b.logf("quality mu=%v scov=%v (%.2fs)", mus, scovs, time.Since(qualityStart).Seconds())
	if b.tr != nil {
		b.pipelineLayers(len(ms), counters, net)
	}
}

// composeSelect runs the layers catapult.SelectCtx composes, one call at
// a time with a span around each, on the quickstart configuration.
func (b *bench) composeSelect(ctx context.Context, op, parent int64, db *graph.DB) ([]*core.Pattern, error) {
	ccfg := cluster.Config{Strategy: cluster.HybridMCCS, N: clusterN, MinSupport: minSupport, Seed: configSeed}
	var feats []*treemine.FrequentTree
	err := b.layer(op, parent, "treemine", func() error {
		all, err := treemine.MineCtx(ctx, db, treemine.MineOptions{MinSupport: minSupport, MaxEdges: maxTreeEdges})
		if err != nil {
			return err
		}
		feats = treemine.SelectFeatures(all, maxFeatures)
		return nil
	})
	var cs []*cluster.Cluster
	if err == nil {
		err = b.layer(op, parent, "cluster.coarse", func() (err error) {
			cs, err = cluster.CoarseWithFeaturesCtx(ctx, db, feats, ccfg)
			return err
		})
	}
	if err == nil {
		err = b.layer(op, parent, "cluster.fine", func() (err error) {
			cs, err = cluster.FineCtx(ctx, db, cs, ccfg)
			return err
		})
	}
	members := make([][]int, len(cs))
	sizes := make([]float64, len(cs))
	for i, c := range cs {
		members[i] = c.Members
		sizes[i] = float64(c.Len())
	}
	var csgs []*csg.CSG
	if err == nil {
		err = b.layer(op, parent, "csg", func() (err error) {
			csgs, err = csg.BuildAllCtx(ctx, db, members)
			return err
		})
	}
	var res *core.Result
	if err == nil {
		err = b.layer(op, parent, "core.select", func() (err error) {
			res, err = core.SelectCtx(ctx, core.NewContextSized(db, csgs, sizes), budget, core.Options{Seed: configSeed})
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	return res.Patterns, nil
}

// layer runs one call into a layer inside a span.
func (b *bench) layer(op, parent int64, name string, call func() error) error {
	_, end := b.tr.start(name, parent, op)
	defer end()
	if err := call(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// patternsKey encodes a pattern set bit for bit: each pattern's graph in
// transaction format and the exact bits of its score breakdown.
func patternsKey(ps []*core.Pattern) string {
	var buf bytes.Buffer
	for _, p := range ps {
		_ = graph.WriteGraph(&buf, p.Graph) // writes to a bytes.Buffer cannot fail
		fmt.Fprintf(&buf, "%x %x %x %x %x %d\n", math.Float64bits(p.Score), math.Float64bits(p.Ccov),
			math.Float64bits(p.Lcov), math.Float64bits(p.Div), math.Float64bits(p.Cog), p.SourceCSG)
	}
	return buf.String()
}

// checkPatterns checks a selected set against the budget b = (ηmin, ηmax,
// γ): between 1 and γ patterns, each of ηmin to ηmax edges, no two
// isomorphic.
func (b *bench) checkPatterns(what string, ps []*core.Pattern) {
	b.check(len(ps) > 0 && len(ps) <= budget.Gamma, "%s: %d patterns, want 1 to %d", what, len(ps), budget.Gamma)
	seen := make(map[string]int, len(ps))
	for i, p := range ps {
		e := p.Graph.NumEdges()
		b.check(e >= budget.EtaMin && e <= budget.EtaMax,
			"%s: pattern %d has %d edges, outside [%d, %d]", what, i, e, budget.EtaMin, budget.EtaMax)
		c := canon.String(p.Graph)
		if j, dup := seen[c]; dup {
			b.check(false, "%s: patterns %d and %d are isomorphic", what, j, i)
		}
		seen[c] = i
	}
}

// muOf is the average steps-saved ratio μ of a pattern set over the i-th
// seeded query workload drawn from db (queryform.Evaluate).
func muOf(db *graph.DB, patterns []*graph.Graph, seed int64, i int) float64 {
	return queryform.Evaluate(muQuerySet(db, seed, i), patterns, false).AvgMu
}

func patternGraphs(ps []*core.Pattern) []*graph.Graph {
	gs := make([]*graph.Graph, len(ps))
	for i, p := range ps {
		gs[i] = p.Graph
	}
	return gs
}

// pipelineLayers derives the per-layer metrics of a traced batch workload
// from its spans, counters and network totals, per op.
func (b *bench) pipelineLayers(ops int, counters map[pipeline.Counter]int64, net netOp) {
	spans := b.tr.snapshot()
	n := float64(max(ops, 1))
	self := selfByName(spans)
	for name, metric := range map[string]string{
		"treemine":         "treemine.busy_ms",
		"cluster.coarse":   "cluster.coarse.busy_ms",
		"cluster.fine":     "cluster.fine.busy_ms",
		"csg":              "csg.busy_ms",
		"core.select":      "core.select.busy_ms",
		"bignet.load":      "bignet.load_ms",
		"bignet.decompose": "bignet.decompose_ms",
	} {
		b.set(metric, self[name]/n)
	}
	b.setCounters(counters, ops)
	opMs := durations(spans, "op")
	b.set("trace.op_p50_ms", median(opMs))
	// The share of the ops' wall time that the layer calls cover: what is
	// left is the benchmark's own glue between calls.
	total := sum(opMs)
	b.set("trace.layer_share", ratio(total-self["op"], total))

	b.set("bignet.load_edges_per_s", ratio(float64(net.edges), self["bignet.load"]/1e3))
	b.set("bignet.regions", float64(net.regions)/n)
	b.set("bignet.reps", float64(net.reps)/n)
}

// setCounters reports the program's own counters of the timed phase, per
// op, and the hit and acceptance ratios derived from them.
func (b *bench) setCounters(c map[pipeline.Counter]int64, ops int) {
	n := float64(max(ops, 1))
	per := func(k pipeline.Counter) float64 { return float64(c[k]) / n }
	f := func(k pipeline.Counter) float64 { return float64(c[k]) }
	b.set("cluster.splits", per(pipeline.CounterClustersSplit))
	b.set("mcs.calls", per(pipeline.CounterMCSCalls))
	b.set("simcache.hit_ratio", ratio(f(pipeline.CounterSimHits), f(pipeline.CounterSimHits)+f(pipeline.CounterSimMisses)))
	b.set("csg.merges", per(pipeline.CounterClosureMerges))
	b.set("core.walks", per(pipeline.CounterWalks))
	b.set("core.candidates", per(pipeline.CounterCandidatesGenerated))
	b.set("core.accept_ratio", ratio(f(pipeline.CounterCandidatesAccepted), f(pipeline.CounterCandidatesGenerated)))
	b.set("ged.calls", per(pipeline.CounterGEDCalls))
	b.set("subiso.vf2_calls", per(pipeline.CounterVF2Calls))
	hits, misses, pruned := f(pipeline.CounterCoverHits), f(pipeline.CounterCoverMisses), f(pipeline.CounterCoverPruned)
	b.set("cover.hit_ratio", ratio(hits, hits+misses))
	b.set("cover.pruned_ratio", ratio(pruned, hits+misses+pruned))
}
