package experiments

import (
	"context"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/guimodel"
	"repro/internal/queryform"
)

// Exp3 reproduces the comparison with commercial GUIs (Sec 6.2 Exp 3):
// CATAPULT generates the same number of patterns in the same size range
// [3, 8] as each commercial interface (12 for PubChem, 6 for eMol) and the
// two pattern sets are compared on average cognitive load, diversity,
// missed percentage and the relative reduction ratio μG.
func Exp3(ctx context.Context, cfg Config) *Report {
	cfg.defaults()
	rep := &Report{
		ID:     "Exp3 (Sec 6.2)",
		Title:  "CATAPULT vs commercial GUI pattern sets",
		Header: []string{"interface", "patterns", "avgCog", "avgDiv", "MP", "maxMuG", "avgMuG"},
	}

	runs := []struct {
		name     string
		db       *graph.DB
		guiSet   []*graph.Graph
		capacity int
	}{
		{"PubChem", pubchemDB(cfg.scaled(23238), cfg.Seed), guimodel.PubChemPatterns(), 12},
		{"eMol", emolDB(cfg.scaled(10000), cfg.Seed+2), guimodel.EMolPatterns(), 6},
	}
	for _, run := range runs {
		queries := dataset.Queries(run.db, cfg.Queries, 4, 40, cfg.Seed+11)
		budget := core.Budget{EtaMin: 3, EtaMax: 8, Gamma: run.capacity}
		res, _, err := runPipeline(ctx, run.db, queries, budget, scaledSampling(), cfg.Seed)
		if err != nil {
			rep.AddNote("%s failed: %v", run.name, err)
			continue
		}
		cat := res.PatternGraphs()

		guiM := queryform.Evaluate(queries, run.guiSet, true)
		catM := queryform.Evaluate(queries, cat, false)
		maxMuG, avgMuG := queryform.RelativeReduction(guiM.Steps, catM.Steps)

		rep.AddRow(run.name+"(gui)", itoa(len(run.guiSet)),
			f2(core.AvgCognitiveLoad(run.guiSet)), f2(core.AvgDiversity(run.guiSet)),
			pct(guiM.MP), "-", "-")
		rep.AddRow("CATAPULT@"+run.name, itoa(len(cat)),
			f2(core.AvgCognitiveLoad(cat)), f2(core.AvgDiversity(cat)),
			pct(catM.MP), f2(maxMuG), f2(avgMuG))
	}
	rep.AddNote("paper shape: CATAPULT has lowest cog, high div, and positive muG against both GUIs")
	return rep
}
