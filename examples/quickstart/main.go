// Quickstart: generate a small molecule-like database, run the CATAPULT
// pipeline, and print the selected canned patterns with their score
// breakdowns.
package main

import (
	"context"
	"fmt"
	"log"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	// A 200-graph stand-in for a chemical compound repository.
	db := dataset.AIDSLike(200, 1)
	fmt.Printf("database: %s\n\n", db.ComputeStats())

	res, err := catapult.SelectCtx(context.Background(), db, catapult.Config{
		// Pattern budget b = (ηmin, ηmax, γ): patterns of 3-8 edges,
		// 10 of them — what a GUI panel comfortably displays.
		Budget: core.Budget{EtaMin: 3, EtaMax: 8, Gamma: 10},
		Clustering: cluster.Config{
			Strategy:   cluster.HybridMCCS, // the paper's recommended hybrid
			N:          20,                 // maximum cluster size
			MinSupport: 0.1,                // frequent-subtree threshold
		},
		Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("clustering: %v (%d clusters)\n", res.ClusteringTime, len(res.Clusters))
	fmt.Printf("pattern selection: %v\n\n", res.PatternTime)
	for i, p := range res.Patterns {
		fmt.Printf("pattern %2d  size=%d  score=%.4f  (ccov=%.3f lcov=%.3f div=%.0f cog=%.2f)\n",
			i+1, p.Size(), p.Score, p.Ccov, p.Lcov, p.Div, p.Cog)
		fmt.Printf("            %v\n", p.Graph)
	}

	// Exact coverage of the final set (Sec 3.2 measures).
	ps := res.PatternGraphs()
	fmt.Printf("\nscov(P,D) = %.3f   lcov(P,D) = %.3f   avg div = %.2f   avg cog = %.2f\n",
		core.Scov(db, ps), core.Lcov(db, ps), core.AvgDiversity(ps), core.AvgCognitiveLoad(ps))
}
