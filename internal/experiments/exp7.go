package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
)

// expDatasets returns the four datasets used by the parameter sweeps of
// Exps 7 and 8 (AIDS10K, AIDS40K, PubChem, eMol analogs).
func expDatasets(cfg Config) []struct {
	name string
	db   *graph.DB
} {
	return []struct {
		name string
		db   *graph.DB
	}{
		{"AIDS10K", aidsDB(cfg.scaled(10000), cfg.Seed)},
		{"AIDS40K", aidsDB(cfg.scaled(40000), cfg.Seed+1)},
		{"PubChem", pubchemDB(cfg.scaled(23238), cfg.Seed)},
		{"eMol", emolDB(cfg.scaled(10000), cfg.Seed+2)},
	}
}

// Exp7 reproduces Fig 13 (effect of |P|): max/avg μ, MP and PGT for
// |P| ∈ {5, 10, 20, 30, 40} on the four datasets, plus the avg cog of the
// selected sets (the paper reports cog ∈ [1.65, 1.97]).
func Exp7(ctx context.Context, cfg Config) *Report {
	cfg.defaults()
	rep := &Report{
		ID:     "Exp7 (Fig 13)",
		Title:  "effect of pattern set size |P|",
		Header: []string{"dataset", "|P|", "maxMu", "avgMu", "MP", "PGT", "avgCog"},
	}
	for _, s := range expDatasets(cfg) {
		queries := dataset.Queries(s.db, cfg.Queries, 4, 40, cfg.Seed+17)
		for _, p := range []int{5, 10, 20, 30, 40} {
			budget := core.Budget{EtaMin: 3, EtaMax: 12, Gamma: p}
			res, m, err := runPipeline(ctx, s.db, queries, budget, scaledSampling(), cfg.Seed)
			if err != nil {
				rep.AddNote("%s |P|=%d failed: %v", s.name, p, err)
				continue
			}
			rep.AddRow(s.name, itoa(p), pct(m.MaxMu*100), pct(m.AvgMu*100),
				pct(m.MP), dur(res.PatternTime),
				f2(core.AvgCognitiveLoad(res.PatternGraphs())))
		}
	}
	rep.AddNote("paper shape: mu stable over |P|; MP trends down (~50%% reduction from 10 to 40); PGT grows with |P|; cog stays in [1.65, 1.97]")
	return rep
}
