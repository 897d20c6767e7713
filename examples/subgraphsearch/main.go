// Subgraph search: the end-to-end loop the paper's interface serves —
// formulate a query with canned patterns, then retrieve the data graphs
// containing it via the path-feature index.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/queryform"
)

func main() {
	db := dataset.AIDSLike(300, 9)
	fmt.Printf("repository: %s\n", db.ComputeStats())

	// Build the subgraph-search index over the repository.
	idx := gindex.Build(db)
	fmt.Printf("index: %d path features\n\n", idx.NumFeatures())

	// Mine canned patterns for the query interface.
	res, err := catapult.SelectCtx(context.Background(), db, catapult.Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 6, Gamma: 8},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 20, MinSupport: 0.1},
		Sampling:   catapult.DefaultSampling(),
		Seed:       19,
	})
	if err != nil {
		log.Fatal(err)
	}
	patterns := res.PatternGraphs()
	fmt.Printf("canned patterns: %d\n\n", len(patterns))

	// A user formulates three queries (simulated as random subgraphs) and
	// runs them: report formulation cost and retrieval results.
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 3; i++ {
		src := db.Graph(rng.Intn(db.Len()))
		q := graph.RandomConnectedSubgraph(src, 6+rng.Intn(6), rng)
		if q == nil {
			continue
		}
		steps := queryform.Steps(q, patterns)
		results := idx.Search(q)
		fmt.Printf("query %d (|V|=%d |E|=%d):\n", i+1, q.NumVertices(), q.NumEdges())
		fmt.Printf("  formulation: %d steps pattern-at-a-time vs %d edge-at-a-time (μ=%.0f%%)\n",
			steps.StepP, steps.StepTotal, steps.Mu()*100)
		fmt.Printf("  retrieval:   %d matching graphs (filter kept %.0f%% of D)\n",
			len(results), idx.FilterRatio(q)*100)
		if len(results) > 0 {
			r := results[0]
			fmt.Printf("  first match: graph %d via embedding %v\n", r.GraphIndex, r.Embedding)
		}
	}
}
