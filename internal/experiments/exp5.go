package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/freqmine"
	"repro/internal/graph"
)

// Exp5 reproduces Fig 11 (coverage): scov and lcov of CATAPULT's pattern
// set versus the top-|P| frequent edges, for |P| ∈ {5, 10, 20, 30}, on the
// AIDS40K and PubChem analogs.
func Exp5(ctx context.Context, cfg Config) *Report {
	cfg.defaults()
	rep := &Report{
		ID:     "Exp5 (Fig 11)",
		Title:  "coverage: CATAPULT patterns vs top-|P| frequent edges",
		Header: []string{"dataset", "|P|", "scov(P)", "scov(topP)", "lcov(P)", "lcov(topP)"},
	}
	sets := []struct {
		name string
		db   *graph.DB
	}{
		{"AIDS40K", aidsDB(cfg.scaled(40000), cfg.Seed+1)},
		{"PubChem", pubchemDB(cfg.scaled(23238), cfg.Seed)},
	}
	for _, s := range sets {
		for _, p := range []int{5, 10, 20, 30} {
			budget := core.Budget{EtaMin: 3, EtaMax: 12, Gamma: p}
			res, _, err := runPipeline(ctx, s.db, nil, budget, scaledSampling(), cfg.Seed)
			if err != nil {
				rep.AddNote("%s |P|=%d failed: %v", s.name, p, err)
				continue
			}
			cat := res.PatternGraphs()
			top := freqmine.TopFrequentEdges(s.db, p)
			rep.AddRow(s.name, itoa(p),
				f3(core.Scov(s.db, cat)), f3(core.Scov(s.db, top)),
				f3(core.Lcov(s.db, cat)), f3(core.Lcov(s.db, top)))
		}
	}
	rep.AddNote("paper shape: scov grows with |P|; top-|P| edges lead slightly on scov; CATAPULT competitive on lcov")
	return rep
}
