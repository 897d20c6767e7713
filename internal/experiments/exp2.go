package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/csg"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/queryform"
	"repro/internal/stats"

	catapult "repro"
)

// scaledSampling returns sampling parameters matched to the scaled dataset
// sizes (the paper's ε=0.02, ρ=0.01 gives a 6623-graph sample, larger than
// the scaled datasets; ε=0.08, ρ=0.05 keeps the sample a strict subset).
func scaledSampling() *catapult.SamplingConfig {
	s := catapult.DefaultSampling()
	s.Epsilon = 0.08
	s.Rho = 0.05
	return s
}

// clusteredDB caches the clustering + CSGs of a database so parameter
// sweeps (Exps 5-8) pay the clustering cost once per dataset, matching the
// paper's note that small graph clustering is a one-time cost per dataset.
type clusteredDB struct {
	memberLists [][]int
	effSizes    []float64
	csgs        []*csg.CSG
	duration    time.Duration
}

var clusterCache = map[string]*clusteredDB{}

func clusterOnce(stdctx context.Context, db *graph.DB, sampled bool, seed int64) (*clusteredDB, error) {
	key := fmt.Sprintf("%s|%v|%d", db.Name, sampled, seed)
	if c, ok := clusterCache[key]; ok {
		return c, nil
	}
	var s *catapult.SamplingConfig
	if sampled {
		s = scaledSampling()
	}
	// Run the facade once with a trivial budget to capture the clustering
	// artifacts and timing; the pattern phase at γ=1 is negligible.
	res, err := catapult.SelectCtx(stdctx, db, catapult.Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 3, Gamma: 1},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 20, MinSupport: 0.1, MCSBudget: 5000},
		Sampling:   s,
		Seed:       seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: clustering %s: %w", db.Name, err)
	}
	c := &clusteredDB{
		memberLists: res.Clusters,
		effSizes:    res.EffectiveSizes,
		csgs:        res.CSGs,
		duration:    res.ClusteringTime,
	}
	clusterCache[key] = c
	return c, nil
}

// runPipeline runs the pipeline — clustering cached per dataset, pattern
// selection fresh per budget — and evaluates the patterns on a workload.
// stdctx bounds every stage; a cancelled or expired context aborts with its
// error and no partial result.
func runPipeline(stdctx context.Context, db *graph.DB, queries []*graph.Graph, budget core.Budget, samplingCfg *catapult.SamplingConfig, seed int64) (*catapult.Result, queryform.SetMetrics, error) {
	cd, err := clusterOnce(stdctx, db, samplingCfg != nil, seed)
	if err != nil {
		return nil, queryform.SetMetrics{}, err
	}
	ctx := core.NewContextSized(db, cd.csgs, cd.effSizes)
	start := time.Now()
	sel, err := core.SelectCtx(stdctx, ctx, budget, core.Options{Walks: 20, TopCSGs: 40, Seed: seed})
	if err != nil {
		return nil, queryform.SetMetrics{}, err
	}
	res := &catapult.Result{
		Patterns:       sel.Patterns,
		Clusters:       cd.memberLists,
		CSGs:           cd.csgs,
		WorkingDB:      db,
		ClusteringTime: cd.duration,
		PatternTime:    time.Since(start),
		Exhausted:      sel.Exhausted,
	}
	m := queryform.Evaluate(queries, res.PatternGraphs(), false)
	return res, m, nil
}

// Exp2 reproduces Fig 8 and Fig 9 (sampling vs no sampling): PGT, MP and
// max/avg μ, plus CSG compactness and clustering time, on the AIDS
// analogs.
func Exp2(ctx context.Context, cfg Config) *Report {
	cfg.defaults()
	rep := &Report{
		ID:     "Exp2 (Fig 8+9)",
		Title:  "effect of sampling",
		Header: []string{"run", "PGT", "cluster-time", "MP", "maxMu", "avgMu", "xi0.4", "xi0.5", "xi0.6"},
	}
	budget := core.Budget{EtaMin: 3, EtaMax: 12, Gamma: 30}
	sets := []struct {
		name string
		db   *graph.DB
	}{
		{"10k", aidsDB(cfg.scaled(10000), cfg.Seed)},
		{"40k", aidsDB(cfg.scaled(40000), cfg.Seed+1)},
	}
	for _, s := range sets {
		queries := dataset.Queries(s.db, cfg.Queries, 4, 20, cfg.Seed+7)
		for _, mode := range []struct {
			suffix   string
			sampling *catapult.SamplingConfig
		}{
			{"S", scaledSampling()},
			{"noS", nil},
		} {
			res, m, err := runPipeline(ctx, s.db, queries, budget, mode.sampling, cfg.Seed)
			if err != nil {
				rep.AddNote("%s%s failed: %v", s.name, mode.suffix, err)
				continue
			}
			x4, x5, x6 := csgCompactness(res.WorkingDB, res.Clusters)
			rep.AddRow(s.name+mode.suffix, dur(res.PatternTime), dur(res.ClusteringTime),
				pct(m.MP), pct(m.MaxMu*100), pct(m.AvgMu*100), f3(x4), f3(x5), f3(x6))
		}
	}
	rep.AddNote("paper shape: sampling cuts PGT by up to 2 orders of magnitude with little change in MP, mu and compactness")
	return rep
}

func csgCompactness(db *graph.DB, clusters [][]int) (x4, x5, x6 float64) {
	var v4, v5, v6 []float64
	for _, members := range clusters {
		s, _ := csg.BuildCtx(context.Background(), db, members) // never cancelled
		v4 = append(v4, s.Compactness(0.4))
		v5 = append(v5, s.Compactness(0.5))
		v6 = append(v6, s.Compactness(0.6))
	}
	return stats.Mean(v4), stats.Mean(v5), stats.Mean(v6)
}
