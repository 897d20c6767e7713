// Package catapult is the public facade of this reproduction of
// "CATAPULT: Data-driven Selection of Canned Patterns for Efficient Visual
// Graph Query Formulation" (Huang, Chua, Bhowmick, Choi, Zhou — SIGMOD
// 2019). Given a database of small/medium labeled graphs and a pattern
// budget, it automatically selects a set of canned patterns maximizing
// subgraph and label coverage and diversity while minimizing cognitive
// load.
//
// The end-to-end pipeline (Algorithm 1):
//
//  1. mine frequent-subtree features — on an eager sample at a lowered
//     support threshold when sampling is enabled (Sec 4.3) — and refine
//     them by facility-location selection,
//  2. cluster every graph of the database: k-means over the subtree
//     feature vectors, then MCCS-based fine splitting of oversize
//     clusters (Sec 4.1), with lazy stratified sampling of large clusters
//     between the phases when sampling is enabled,
//  3. summarize each cluster into a closure-based cluster summary graph
//     (Sec 4.2),
//  4. greedily select canned patterns from the weighted CSGs with random
//     walks and the coverage × diversity / cognitive-load score (Sec 5).
//
// The package is consumable from outside this module using only catapult.*
// names: the configuration and result types of the internal packages are
// re-exported as root-package aliases (Budget, Pattern, Health, Counter,
// ClusterConfig, ...; see api.go), and an api-lock test keeps the exported
// surface free of unaliased internal types.
//
// Minimal use:
//
//	db, err := catapult.ReadDB(f, "mydb") // or catapult.NewDB(...)
//	if err != nil { ... }
//	res, err := catapult.SelectCtx(ctx, db, catapult.Config{
//	    Budget: catapult.Budget{EtaMin: 3, EtaMax: 12, Gamma: 30},
//	})
//
// Observability: install an Observer (e.g. the metrics adapter) to stream
// stage spans and counters into a scrapeable registry:
//
//	m := catapult.NewMetrics()
//	http.Handle("/metrics", m.Handler())
//	res, err := catapult.SelectCtx(ctx, db, catapult.Config{
//	    Budget:   catapult.Budget{EtaMin: 3, EtaMax: 12, Gamma: 30},
//	    Observer: catapult.MetricsObserver(m),
//	})
package catapult

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bignet"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/csg"
	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/resilience"
	"repro/internal/sampling"
	"repro/internal/suggest"
	"repro/internal/treemine"
)

// SamplingConfig enables the two-level sampling of Sec 4.3.
type SamplingConfig struct {
	// Eager sampling: error bound ε and failure probability ρ determine
	// the sample size via Toivonen's bound. The paper uses ε=0.02, ρ=0.01.
	Epsilon float64
	Rho     float64
	// Lazy sampling parameters (Cochran): Z abscissa, proportion p,
	// precision e. The paper uses Z=1.65, p=0.5, e=0.03.
	Z float64
	P float64
	E float64
}

// DefaultSampling returns the paper's sampling parameters.
func DefaultSampling() *SamplingConfig {
	return &SamplingConfig{Epsilon: 0.02, Rho: 0.01, Z: sampling.Z95, P: 0.5, E: 0.03}
}

// Config assembles the full pipeline configuration.
type Config struct {
	// Budget is the pattern budget b = (ηmin, ηmax, γ).
	Budget core.Budget
	// Clustering configures small graph clustering; zero value uses the
	// paper's defaults (hybrid MCCS, N=20).
	Clustering cluster.Config
	// Selection tunes the pattern selector.
	Selection core.Options
	// Sampling, when non-nil, enables eager + lazy sampling.
	Sampling *SamplingConfig
	// Seed drives all randomized stages unless overridden in the
	// sub-configurations.
	Seed int64
	// Degradation configures anytime, deadline-aware graceful degradation
	// (internal/resilience). When Enabled, the overall deadline —
	// Degradation.Deadline and/or the context deadline, whichever is
	// sooner — is split into per-phase soft budgets; an overrunning phase
	// returns its best partial result instead of an error, worker panics
	// are contained as stage faults, and Result.Health reports per-stage
	// status. When Enabled with no deadline at all, only panic containment
	// and health reporting are active and output is bit-identical to a
	// disabled run. The zero value (disabled) preserves the legacy
	// all-or-nothing contract exactly.
	Degradation resilience.Config
	// Observer, when non-nil, receives every pipeline stage event and
	// counter delta of the run, teed with any tracer already installed on
	// the context via pipeline.WithTrace. Install MetricsObserver(m) to
	// stream the run into a scrapeable metrics registry. Observers see
	// events concurrently from parallel workers and must be safe for
	// concurrent use. Observation never changes selection output.
	Observer Observer
	// Network tunes the large-network decomposition performed by
	// SelectNetworkCtx (region size cap, representatives per region,
	// sampling seed). Ignored by SelectCtx. The zero value uses the
	// bignet defaults with Seed inherited from Config.Seed.
	Network bignet.Options
}

func (c *Config) defaults() {
	if c.Budget.Gamma == 0 {
		c.Budget = core.Budget{EtaMin: 3, EtaMax: 12, Gamma: 30}
	}
	if c.Clustering.Strategy == cluster.CoarseOnly && c.Clustering.N == 0 {
		// Zero value: adopt the paper's recommended hybrid strategy.
		c.Clustering.Strategy = cluster.HybridMCCS
	}
	// Propagate the top-level seed only into sub-seeds that were never
	// configured: SeedSet distinguishes a deliberate Seed of 0 (keep it)
	// from the zero value (inherit c.Seed).
	if c.Clustering.Seed == 0 && !c.Clustering.SeedSet {
		c.Clustering.Seed = c.Seed
	}
	if c.Selection.Seed == 0 && !c.Selection.SeedSet {
		c.Selection.Seed = c.Seed
	}
	if c.Network.Seed == 0 && !c.Network.SeedSet {
		c.Network.Seed = c.Seed
	}
}

// Result is the pipeline output.
type Result struct {
	// Patterns are the selected canned patterns with score breakdowns.
	Patterns []*core.Pattern
	// Clusters holds the member indices (into the working database) of
	// each cluster.
	Clusters [][]int
	// CSGs are the cluster summary graphs.
	CSGs []*csg.CSG
	// EffectiveSizes are the per-cluster effective sizes used for cluster
	// weights: actual member counts, or inflated counts when lazy sampling
	// shrank the clusters (Sec 4.3).
	EffectiveSizes []float64
	// WorkingDB is the database the selector actually ran on (the eager
	// sample when sampling is enabled, otherwise the input database).
	WorkingDB *graph.DB
	// ClusteringTime and PatternTime are the phase durations (the paper's
	// "clustering time" and PGT measures).
	ClusteringTime time.Duration
	PatternTime    time.Duration
	// Counters holds the pipeline counter totals of this run (VF2/MCS/GED
	// calls, candidate statistics, and the coverage engine's cache
	// hits/misses/pruned pairs) as recorded by the facade's internal
	// pipeline.Recorder.
	Counters map[pipeline.Counter]int64
	// Exhausted is true when fewer than γ patterns could be selected.
	Exhausted bool
	// Health is the degradation report when Config.Degradation.Enabled:
	// per-phase status (complete / degraded / skipped), contained faults,
	// and degradation counters. Nil when degradation is disabled.
	Health *resilience.Health
}

// Degraded reports whether any phase of this run degraded or skipped, or
// any fault was contained. Always false when degradation was not enabled.
func (r *Result) Degraded() bool {
	return r.Health != nil && r.Health.Degraded
}

// PatternGraphs returns the bare selected pattern graphs.
func (r *Result) PatternGraphs() []*graph.Graph {
	out := make([]*graph.Graph, len(r.Patterns))
	for i, p := range r.Patterns {
		out[i] = p.Graph
	}
	return out
}

// Select runs the full CATAPULT pipeline on db.
//
// Deprecated: use SelectCtx, which adds cooperative cancellation and
// deadline support. Select is equivalent to SelectCtx with
// context.Background().
func Select(db *graph.DB, cfg Config) (*Result, error) {
	return SelectCtx(context.Background(), db, cfg)
}

// SelectCtx runs the full CATAPULT pipeline under a context: every stage —
// mining, clustering, CSG construction and pattern selection — checks
// cancellation at its iteration boundaries, so a cancelled or timed-out ctx
// aborts the run promptly with (nil, ctx.Err()) and no partial result.
//
// Progress is observable by installing a pipeline.Trace on the context with
// pipeline.WithTrace before the call: the facade tees the caller's tracer
// with an internal recorder, so external observers see every stage event and
// counter while Result.ClusteringTime / PatternTime are populated from the
// recorded stage durations (the umbrella StageClustering span and the
// StageSelect span, matching the paper's clustering-time and PGT measures).
func SelectCtx(stdctx context.Context, db *graph.DB, cfg Config) (*Result, error) {
	cfg.defaults()
	if db.Len() == 0 {
		return nil, fmt.Errorf("catapult: empty database")
	}
	rec := pipeline.NewRecorder()
	stdctx = pipeline.WithTrace(stdctx, pipeline.Tee(rec, cfg.Observer, pipeline.From(stdctx)))
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Degradation controller: split the overall budget — Degradation.
	// Deadline and/or the context deadline, whichever is sooner — into
	// per-phase soft budgets. The hard deadline is armed as a context
	// deadline with ErrBudgetExhausted as cause, so its expiry is
	// distinguishable from an explicit user cancel and classed salvageable.
	var ctrl *resilience.Controller
	if cfg.Degradation.Enabled {
		now := time.Now()
		var hard time.Time
		if cfg.Degradation.Deadline > 0 {
			hard = now.Add(cfg.Degradation.Deadline)
		}
		if d, ok := stdctx.Deadline(); ok && (hard.IsZero() || d.Before(hard)) {
			hard = d
		}
		ctrl = resilience.NewController(cfg.Degradation, now, hard)
		ctrl.Observe(pipeline.From(stdctx))
		stdctx = resilience.WithController(stdctx, ctrl)
		if !hard.IsZero() {
			var cancel context.CancelFunc
			stdctx, cancel = context.WithDeadlineCause(stdctx, hard, resilience.ErrBudgetExhausted)
			defer cancel()
		}
	}
	// phaseCtx opens phase s on the controller and bounds it with its soft
	// deadline; a no-op pass-through when degradation is disabled or
	// unbounded.
	phaseCtx := func(s pipeline.Stage) (context.Context, context.CancelFunc) {
		if ctrl == nil {
			return stdctx, func() {}
		}
		ctrl.BeginPhase(s)
		if dl, ok := ctrl.PhaseDeadline(); ok {
			return context.WithDeadlineCause(stdctx, dl, resilience.ErrBudgetExhausted)
		}
		return stdctx, func() {}
	}
	endPhase := func(cancel context.CancelFunc) {
		cancel()
		if ctrl != nil {
			ctrl.EndPhase()
		}
	}

	// Phase 1: clustering. Under degradation, a salvageable failure
	// (deadline, contained fault that escaped the per-stage fallbacks)
	// degrades to structure-blind uniform chunk clusters.
	cctx, cancelCluster := phaseCtx(pipeline.StageClustering)
	var clusters []*cluster.Cluster
	var effSizes []float64
	err := func() error {
		done := pipeline.StartStage(cctx, pipeline.StageClustering)
		defer done()
		if cfg.Sampling != nil {
			var err error
			clusters, effSizes, err = clusterWithSampling(cctx, db, cfg, rng)
			return err
		}
		res, err := cluster.RunCtx(cctx, db, cfg.Clustering)
		if err != nil {
			return err
		}
		clusters = res.Clusters
		effSizes = make([]float64, len(clusters))
		for i, c := range clusters {
			effSizes[i] = float64(c.Len())
		}
		return nil
	}()
	if err != nil {
		if ctrl == nil || !resilience.Salvageable(err) {
			endPhase(cancelCluster)
			return nil, err
		}
		ctrl.MarkSkipped("clustering salvaged to uniform chunks: " + err.Error())
		ctrl.Count("coarse_fallback", 1)
		clusters = cluster.Chunks(db.Len(), cfg.Clustering.N)
		effSizes = make([]float64, len(clusters))
		for i, c := range clusters {
			effSizes[i] = float64(c.Len())
		}
	}
	endPhase(cancelCluster)

	memberLists := make([][]int, len(clusters))
	for i, c := range clusters {
		memberLists[i] = c.Members
	}

	// Phase 2: CSG construction. Under degradation, BuildAllCtx returns
	// nil entries for skipped/faulted clusters; drop those clusters (and
	// their effective sizes) and guarantee at least one summary survives so
	// selection always has a CSG to walk.
	gctx, cancelCSG := phaseCtx(pipeline.StageCSG)
	csgs, err := csg.BuildAllCtx(gctx, db, memberLists)
	if err != nil {
		if ctrl == nil || !resilience.Salvageable(err) {
			endPhase(cancelCSG)
			return nil, err
		}
		ctrl.MarkSkipped("csg construction salvaged: " + err.Error())
		csgs = make([]*csg.CSG, len(memberLists))
	}
	if ctrl != nil {
		memberLists, effSizes, csgs = dropSkippedCSGs(memberLists, effSizes, csgs)
		if len(csgs) == 0 {
			// Nothing survived: build the smallest cluster's summary on a
			// detached context (cancellation stripped, trace/controller
			// kept) so selection has at least one CSG. Bounded by the
			// cluster-size cap N.
			mi := smallestCluster(clusters)
			fallback, ferr := csg.BuildCtx(context.WithoutCancel(gctx), db, clusters[mi].Members)
			if ferr == nil && fallback != nil {
				memberLists = [][]int{clusters[mi].Members}
				effSizes = []float64{float64(clusters[mi].Len())}
				csgs = []*csg.CSG{fallback}
				ctrl.Count("csg_fallback_build", 1)
			}
		}
	}
	endPhase(cancelCSG)
	if len(csgs) == 0 {
		return nil, fmt.Errorf("catapult: no cluster summary could be built within budget")
	}

	// Phase 3: pattern selection (anytime under degradation: returns the
	// patterns selected so far on overrun or contained fault).
	sctx, cancelSelect := phaseCtx(pipeline.StageSelect)
	sel, err := core.SelectCtx(sctx, core.NewContextSized(db, csgs, effSizes), cfg.Budget, cfg.Selection)
	endPhase(cancelSelect)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Patterns:       sel.Patterns,
		Clusters:       memberLists,
		CSGs:           csgs,
		EffectiveSizes: effSizes,
		WorkingDB:      db,
		ClusteringTime: rec.Duration(pipeline.StageClustering),
		PatternTime:    rec.Duration(pipeline.StageSelect),
		Counters:       rec.Counters(),
		Exhausted:      sel.Exhausted,
	}
	if ctrl != nil {
		res.Health = ctrl.Health()
	}
	return res, nil
}

// dropSkippedCSGs removes nil summaries (skipped or faulted clusters) from
// the csgs slice, dropping the matching clusters and effective sizes in
// lockstep so cluster weights stay aligned.
func dropSkippedCSGs(memberLists [][]int, effSizes []float64, csgs []*csg.CSG) ([][]int, []float64, []*csg.CSG) {
	outM := memberLists[:0]
	outS := effSizes[:0]
	outC := csgs[:0]
	for i, c := range csgs {
		if c == nil {
			continue
		}
		outM = append(outM, memberLists[i])
		outS = append(outS, effSizes[i])
		outC = append(outC, c)
	}
	return outM, outS, outC
}

// smallestCluster returns the index of the cluster with the fewest members
// (lowest index on ties).
func smallestCluster(cs []*cluster.Cluster) int {
	best := 0
	for i, c := range cs {
		if c.Len() < cs[best].Len() {
			best = i
		}
	}
	return best
}

// clusterWithSampling implements the two-level sampling pipeline of
// Sec 4.3:
//
//  1. Eager: frequent subtrees are mined on a uniform sample at a lowered
//     threshold low_fr (Lemma 4.4), then recounted against the full
//     database at the original threshold — clustering features without
//     scanning every graph during candidate generation.
//  2. Every graph of the full database is then clustered (feature vectors
//     plus k-means), as in the paper where clustering time still grows
//     with |D|.
//  3. Lazy: oversize coarse clusters are shrunk by stratified sampling
//     (Lemma 4.5) before fine clustering and CSG generation; each final
//     cluster carries the effective (pre-sampling) size so cluster
//     weights still reflect true coverage.
func clusterWithSampling(stdctx context.Context, db *graph.DB, cfg Config, rng *rand.Rand) ([]*cluster.Cluster, []float64, error) {
	ccfg := cfg.Clustering
	if ccfg.N <= 0 {
		ccfg.N = 20
	}
	if ccfg.MinSupport <= 0 {
		ccfg.MinSupport = 0.1
	}
	if ccfg.MaxTreeEdges <= 0 {
		ccfg.MaxTreeEdges = 3
	}
	if ccfg.MaxFeatures == 0 {
		ccfg.MaxFeatures = 40
	}

	// Eager sampling for feature mining.
	size := sampling.EagerSize(cfg.Sampling.Epsilon, cfg.Sampling.Rho)
	features, err := func() ([]*treemine.FrequentTree, error) {
		done := pipeline.StartStage(stdctx, pipeline.StageEagerSample)
		defer done()
		if size >= db.Len() {
			mined, err := treemine.MineCtx(stdctx, db, treemine.MineOptions{
				MinSupport: ccfg.MinSupport, MaxEdges: ccfg.MaxTreeEdges,
			})
			if err != nil {
				return nil, err
			}
			return treemine.SelectFeatures(mined, ccfg.MaxFeatures), nil
		}
		idx := sampling.Eager(db.Len(), size, rng)
		sampleDB := graph.NewDB(db.Name+"-eager", cloneAll(db.Subset("", idx).Graphs))
		lowFr := sampling.LowSupport(ccfg.MinSupport, 0.01, size)
		if lowFr <= 0 {
			lowFr = ccfg.MinSupport / 2
		}
		mined, err := treemine.MineCtx(stdctx, sampleDB, treemine.MineOptions{
			MinSupport: lowFr, MaxEdges: ccfg.MaxTreeEdges,
		})
		if err != nil {
			return nil, err
		}
		verified, err := treemine.RecountCtx(stdctx, db, mined, ccfg.MinSupport)
		if err != nil {
			return nil, err
		}
		return treemine.SelectFeatures(verified, ccfg.MaxFeatures), nil
	}()
	if err != nil {
		return nil, nil, err
	}

	coarse, err := cluster.CoarseWithFeaturesCtx(stdctx, db, features, ccfg)
	if err != nil {
		return nil, nil, err
	}

	// Lazy sampling of oversize clusters, tracking inflation factors so
	// fine sub-clusters inherit proportional effective sizes.
	type lazied struct {
		c       *cluster.Cluster
		inflate float64
	}
	var ls []lazied
	endLazy := pipeline.StartStage(stdctx, pipeline.StageLazySample)
	for _, c := range coarse {
		sampled := sampling.Lazy(c.Members, db.Len(), cfg.Sampling.Z, cfg.Sampling.P, cfg.Sampling.E, rng)
		inflate := 1.0
		if len(sampled) > 0 {
			inflate = float64(c.Len()) / float64(len(sampled))
		}
		ls = append(ls, lazied{&cluster.Cluster{Members: sampled}, inflate})
	}
	endLazy()

	var out []*cluster.Cluster
	var sizes []float64
	for _, l := range ls {
		fcs, err := cluster.FineCtx(stdctx, db, []*cluster.Cluster{l.c}, ccfg)
		if err != nil {
			return nil, nil, err
		}
		for _, fc := range fcs {
			out = append(out, fc)
			sizes = append(sizes, float64(fc.Len())*l.inflate)
		}
	}
	return out, sizes, nil
}

func cloneAll(gs []*graph.Graph) []*graph.Graph {
	out := make([]*graph.Graph, len(gs))
	for i, g := range gs {
		out[i] = g.Clone()
	}
	return out
}

// NewSuggester builds an online autocompletion engine over a selected
// pattern set — typically Result.Patterns. The engine memoizes pattern-
// containment verdicts across calls, so one Suggester should serve a whole
// editing session (or all concurrent sessions of a snapshot): keystroke k+1
// re-verifies only what keystroke k did not already establish.
func NewSuggester(patterns []*Pattern) *Suggester { return suggest.NewEngine(patterns) }

// SuggestCtx ranks res's selected patterns as completions of the partial
// query q, under the per-keystroke anytime budget in opts (zero value:
// ~100ms, top 5; the engine degrades to a ranked prefix rather than
// erroring when the budget expires). This is the one-shot convenience
// form; per-keystroke loops should hold a NewSuggester engine so
// containment verdicts memoize across keystrokes.
func SuggestCtx(ctx context.Context, res *Result, q *graph.Graph, opts SuggestOptions) (*SuggestResult, error) {
	if res == nil {
		return nil, fmt.Errorf("catapult: SuggestCtx on nil result")
	}
	return suggest.NewEngine(res.Patterns).SuggestCtx(ctx, q, opts)
}
