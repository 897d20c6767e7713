package experiments

import (
	"context"

	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Exp8 reproduces Figs 14-16 (effect of pattern size budget): sweeping
// ηmin ∈ {3,5,7,9} at ηmax=12 and ηmax ∈ {5,7,9,12} at ηmin=3, reporting
// max/avg μ, MP, PGT, and the div/cog statistics of Fig 16.
func Exp8(ctx context.Context, cfg Config) *Report {
	cfg.defaults()
	rep := &Report{
		ID:     "Exp8 (Fig 14-16)",
		Title:  "effect of pattern size budget (ηmin, ηmax)",
		Header: []string{"dataset", "sweep", "maxMu", "avgMu", "MP", "PGT", "avgDiv", "avgCog"},
	}
	const gamma = 30
	for _, s := range expDatasets(cfg) {
		queries := dataset.Queries(s.db, cfg.Queries, 4, 40, cfg.Seed+19)
		for _, etaMin := range []int{3, 5, 7, 9} {
			budget := core.Budget{EtaMin: etaMin, EtaMax: 12, Gamma: gamma}
			res, m, err := runPipeline(ctx, s.db, queries, budget, scaledSampling(), cfg.Seed)
			if err != nil {
				rep.AddNote("%s ηmin=%d failed: %v", s.name, etaMin, err)
				continue
			}
			ps := res.PatternGraphs()
			rep.AddRow(s.name, fmt.Sprintf("etaMin=%d", etaMin),
				pct(m.MaxMu*100), pct(m.AvgMu*100), pct(m.MP), dur(res.PatternTime),
				f2(core.AvgDiversity(ps)), f2(core.AvgCognitiveLoad(ps)))
		}
		for _, etaMax := range []int{5, 7, 9, 12} {
			budget := core.Budget{EtaMin: 3, EtaMax: etaMax, Gamma: gamma}
			res, m, err := runPipeline(ctx, s.db, queries, budget, scaledSampling(), cfg.Seed)
			if err != nil {
				rep.AddNote("%s ηmax=%d failed: %v", s.name, etaMax, err)
				continue
			}
			ps := res.PatternGraphs()
			rep.AddRow(s.name, fmt.Sprintf("etaMax=%d", etaMax),
				pct(m.MaxMu*100), pct(m.AvgMu*100), pct(m.MP), dur(res.PatternTime),
				f2(core.AvgDiversity(ps)), f2(core.AvgCognitiveLoad(ps)))
		}
	}
	rep.AddNote("paper shape: raising ηmin raises MP sharply and div; raising ηmax barely moves MP but raises PGT; cog stays ~[1.59, 2.36]")
	return rep
}
