package experiments

import (
	"context"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/csg"
	"repro/internal/graph"
	"repro/internal/stats"
)

// Exp1 reproduces Fig 7 (small graph clustering): clustering time and CSG
// compactness ξ0.4/ξ0.5/ξ0.6 for the five strategies CC, mccsFC, mcsFC,
// mccsH, mcsH on the AIDS10K and AIDS40K analogs.
func Exp1(ctx context.Context, cfg Config) *Report {
	cfg.defaults()
	rep := &Report{
		ID:     "Exp1 (Fig 7)",
		Title:  "small graph clustering: time and CSG compactness",
		Header: []string{"dataset", "strategy", "time", "xi0.4", "xi0.5", "xi0.6", "clusters"},
	}
	sets := []struct {
		name string
		db   *graph.DB
	}{
		{"AIDS10K", aidsDB(cfg.scaled(10000), cfg.Seed)},
		{"AIDS40K", aidsDB(cfg.scaled(40000), cfg.Seed+1)},
	}
	strategies := []cluster.Strategy{
		cluster.CoarseOnly, cluster.FineOnlyMCCS, cluster.FineOnlyMCS,
		cluster.HybridMCCS, cluster.HybridMCS,
	}
	for _, s := range sets {
		for _, strat := range strategies {
			start := time.Now()
			res, err := cluster.RunCtx(ctx, s.db, cluster.Config{
				Strategy: strat, N: 20, MinSupport: 0.1, Seed: cfg.Seed,
				MCSBudget: 5000,
			})
			if err != nil {
				rep.AddNote("%s/%s failed: %v", s.name, strat.String(), err)
				continue
			}
			elapsed := time.Since(start)
			x4, x5, x6 := compactness(s.db, res.Clusters)
			rep.AddRow(s.name, strat.String(), dur(elapsed), f3(x4), f3(x5), f3(x6),
				itoa(len(res.Clusters)))
		}
	}
	rep.AddNote("paper shape: CC fastest but least compact; mccsFC most compact but slow; mccsH compact at reasonable time")
	return rep
}

// compactness builds CSGs for every cluster and averages ξt at t = 0.4,
// 0.5, 0.6.
func compactness(db *graph.DB, clusters []*cluster.Cluster) (x4, x5, x6 float64) {
	var v4, v5, v6 []float64
	for _, c := range clusters {
		s, _ := csg.BuildCtx(context.Background(), db, c.Members) // never cancelled
		v4 = append(v4, s.Compactness(0.4))
		v5 = append(v5, s.Compactness(0.5))
		v6 = append(v6, s.Compactness(0.6))
	}
	return stats.Mean(v4), stats.Mean(v5), stats.Mean(v6)
}

func itoa(n int) string { return strconv.Itoa(n) }
