// Incremental maintenance: keep a canned pattern set fresh as the graph
// repository grows, without reclustering from scratch (the extension the
// paper sketches in Sec 1).
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
	db := dataset.AIDSLike(120, 5)
	fmt.Printf("initial repository: %s\n", db.ComputeStats())

	m, err := catapult.NewMaintainerCtx(context.Background(), db, catapult.Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 6, Gamma: 8},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 15, MinSupport: 0.1},
		Seed:       31,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial selection: %d patterns across %d clusters\n",
		len(m.Patterns()), m.NumClusters())
	printSizes(m)

	// Three insertion batches, e.g. nightly ingests of new compounds.
	for batch := 1; batch <= 3; batch++ {
		inc := dataset.AIDSLike(25, int64(100+batch))
		reselect, err := m.AddGraphsCtx(context.Background(), inc.Graphs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nbatch %d: +%d graphs → |D|=%d, %d clusters, reselect took %v\n",
			batch, inc.Len(), m.DB().Len(), m.NumClusters(), reselect)
		printSizes(m)
	}
}

func printSizes(m *catapult.Maintainer) {
	fmt.Print("pattern sizes:")
	for _, p := range m.Patterns() {
		fmt.Printf(" %d", p.Size())
	}
	fmt.Println()
}
