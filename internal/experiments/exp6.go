package experiments

import (
	"context"

	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/queryform"
)

// Exp6 reproduces Fig 12 (scalability): clustering time, PGT, μDS and MP
// as the PubChem analog grows through {23K, 250K, 500K, 1M}/Scale graphs.
// μDS compares step counts of patterns mined at size DS against patterns
// mined at the 23K baseline, on a common query workload.
func Exp6(ctx context.Context, cfg Config) *Report {
	cfg.defaults()
	rep := &Report{
		ID:     "Exp6 (Fig 12)",
		Title:  "scalability on growing PubChem analogs",
		Header: []string{"|D|", "cluster-time", "PGT", "MP", "muDS"},
	}
	sizes := []int{23238, 250000, 500000, 1000000}
	budget := core.Budget{EtaMin: 3, EtaMax: 8, Gamma: 12}

	// All sizes draw from the same molecule universe (fixed scaffold
	// families and generator seed) so growing |D| means more graphs of
	// the same population, as when a real repository accumulates
	// compounds. The common query workload comes from the base dataset.
	gen := func(n int) *graph.DB {
		return cachedDB(fmt.Sprintf("exp6-%d-%d", n, cfg.Seed), func() *graph.DB {
			return dataset.Generate(dataset.Config{
				Name: fmt.Sprintf("pubchem-exp6-%d", n), NumGraphs: n,
				MinVertices: 18, MaxVertices: 45, Families: 12, Seed: cfg.Seed,
			})
		})
	}
	base := gen(cfg.scaled(23238))
	queries := dataset.Queries(base, cfg.Queries, 4, 40, cfg.Seed+13)

	var baseSteps []queryform.StepResult
	for i, n := range sizes {
		db := gen(cfg.scaled(n))
		res, m, err := runPipeline(ctx, db, queries, budget, scaledSampling(), cfg.Seed)
		if err != nil {
			rep.AddNote("size %d failed: %v", n, err)
			continue
		}
		label := fmt.Sprintf("%d (analog of %d)", db.Len(), n)
		muDS := "0.00"
		if i == 0 {
			baseSteps = m.Steps
		} else if len(baseSteps) == len(m.Steps) {
			// μDS = (stepP(DS) - stepP(23K)) / stepP(DS): negative means the
			// larger dataset's patterns need fewer steps.
			_, avg := queryform.RelativeReduction(m.Steps, baseSteps)
			muDS = f3(avg)
		}
		rep.AddRow(label, dur(res.ClusteringTime), dur(res.PatternTime), pct(m.MP), muDS)
	}
	rep.AddNote("paper shape: times grow ~an order of magnitude from smallest to largest; MP drops then flattens; muDS negative (quality improves) with an anti-monotonic best point")
	return rep
}
