package catapult_test

import (
	"context"
	"fmt"

	catapult "repro"
	"repro/internal/dataset"
	"repro/internal/queryform"
)

// ExampleSelectCtx runs the full pipeline on a small synthetic repository and
// reports basic facts about the selection. The configuration uses only
// public catapult.* names, exactly as an external importer would (the
// dataset helper stands in for loading a real database with ReadDB).
func ExampleSelectCtx() {
	db := dataset.AIDSLike(50, 1)
	res, err := catapult.SelectCtx(context.Background(), db, catapult.Config{
		Budget:     catapult.Budget{EtaMin: 3, EtaMax: 5, Gamma: 4},
		Clustering: catapult.ClusterConfig{Strategy: catapult.HybridMCCS, N: 10, MinSupport: 0.2},
		Seed:       7,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("patterns:", len(res.Patterns))
	for _, p := range res.Patterns {
		if p.Size() < 3 || p.Size() > 5 {
			fmt.Println("budget violated")
		}
	}
	// Output:
	// patterns: 4
}

// ExampleSelectCtx_queryFormulation shows the downstream use of a selection:
// computing the pattern-at-a-time formulation cost of a query.
func ExampleSelectCtx_queryFormulation() {
	db := dataset.AIDSLike(50, 1)
	res, err := catapult.SelectCtx(context.Background(), db, catapult.Config{
		Budget:     catapult.Budget{EtaMin: 3, EtaMax: 5, Gamma: 4},
		Clustering: catapult.ClusterConfig{Strategy: catapult.HybridMCCS, N: 10, MinSupport: 0.2},
		Seed:       7,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	queries := dataset.Queries(db, 5, 6, 10, 3)
	m := queryform.Evaluate(queries, res.PatternGraphs(), false)
	fmt.Printf("queries evaluated: %d\n", len(m.Steps))
	fmt.Printf("all step counts sane: %v\n", allSane(m))
	// Output:
	// queries evaluated: 5
	// all step counts sane: true
}

func allSane(m queryform.SetMetrics) bool {
	for _, r := range m.Steps {
		if r.StepP > r.StepTotal || r.StepP <= 0 {
			return false
		}
	}
	return true
}
