// GUI comparison: pit CATAPULT's data-driven canned patterns against the
// manually curated inventories of the PubChem and eMolecules sketchers
// (Exp 3 / Exp 4 in miniature), including simulated user formulation
// times.
package main

import (
	"context"
	"fmt"
	"log"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/guimodel"
	"repro/internal/queryform"
	"repro/internal/stats"
	"repro/internal/usersim"
)

func main() {
	db := dataset.PubChemLike(200, 3)
	fmt.Printf("repository: %s\n\n", db.ComputeStats())
	queries := dataset.Queries(db, 50, 6, 30, 17)

	compare(db, queries, "PubChem", guimodel.PubChemPatterns(), 12)
	compare(db, queries, "eMolecules", guimodel.EMolPatterns(), 6)
}

func compare(db *graph.DB, queries []*graph.Graph, guiName string, guiSet []*graph.Graph, budget int) {
	res, err := catapult.SelectCtx(context.Background(), db, catapult.Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 8, Gamma: budget},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 20, MinSupport: 0.1},
		Seed:       23,
	})
	if err != nil {
		log.Fatal(err)
	}
	cat := res.PatternGraphs()

	guiM := queryform.Evaluate(queries, guiSet, true)
	catM := queryform.Evaluate(queries, cat, false)
	maxMuG, avgMuG := queryform.RelativeReduction(guiM.Steps, catM.Steps)

	fmt.Printf("--- %s (%d manual patterns) vs CATAPULT (%d mined) ---\n",
		guiName, len(guiSet), len(cat))
	fmt.Printf("avg cognitive load:  %s %.2f   CATAPULT %.2f\n",
		guiName, core.AvgCognitiveLoad(guiSet), core.AvgCognitiveLoad(cat))
	fmt.Printf("avg diversity:       %s %.2f   CATAPULT %.2f\n",
		guiName, core.AvgDiversity(guiSet), core.AvgDiversity(cat))
	fmt.Printf("missed queries:      %s %.1f%%  CATAPULT %.1f%%\n", guiName, guiM.MP, catM.MP)
	fmt.Printf("step reduction μG:   max %.0f%%  avg %.0f%%\n", maxMuG*100, avgMuG*100)

	// Simulated user study on the first five queries.
	var guiT, catT []float64
	for qi, q := range queries[:5] {
		for u := 0; u < 5; u++ {
			seed := int64(100*qi + u)
			guiT = append(guiT, usersim.NewUser(seed).Formulate(q, guiSet, true).Seconds)
			catT = append(catT, usersim.NewUser(seed).Formulate(q, cat, false).Seconds)
		}
	}
	fmt.Printf("simulated QFT:       %s %.1fs  CATAPULT %.1fs\n\n",
		guiName, stats.Mean(guiT), stats.Mean(catT))
}
