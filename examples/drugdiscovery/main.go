// Drug discovery scenario (paper Example 1.1): a repository rich in urea
// derivatives (DCMU, TMAD, sorafenib-like molecules). CATAPULT should
// surface urea-related canned patterns, and formulating a TMAD-style
// subgraph query with them should take a few pattern-at-a-time steps
// instead of many edge-at-a-time ones — the paper's 3-steps-vs-17 story.
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
	"repro/internal/queryform"
	"repro/internal/subiso"
)

func main() {
	// The generator seeds every scaffold family with functional-group
	// motifs including urea (N-C(=O)-N), so urea derivatives are common.
	db := dataset.Generate(dataset.Config{
		Name: "urea-repo", NumGraphs: 150,
		MinVertices: 14, MaxVertices: 30, Families: 5, Seed: 7,
	})
	fmt.Printf("repository: %s\n\n", db.ComputeStats())

	res, err := catapult.SelectCtx(context.Background(), db, catapult.Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 8, Gamma: 12},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 20, MinSupport: 0.1},
		Seed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}
	patterns := res.PatternGraphs()
	fmt.Printf("selected %d canned patterns\n", len(patterns))

	// Does the pattern set cover the urea functional group?
	urea := buildUrea()
	for i, p := range patterns {
		if subiso.Contains(p, urea) {
			fmt.Printf("pattern %d contains the urea functional group: %v\n", i+1, p)
		}
	}

	// The TMAD-like query: two urea units joined by an N-N bond.
	q := buildTMAD()
	fmt.Printf("\nTMAD-style query: %v\n", q)
	edgeAtATime := q.NumVertices() + q.NumEdges()
	fmt.Printf("edge-at-a-time steps:          %d\n", edgeAtATime)

	r := queryform.Steps(q, patterns)
	fmt.Printf("with mined patterns:           %d steps (%d pattern drags, μ=%.0f%%)\n",
		r.StepP, r.PatternsUsed, r.Mu()*100)

	// The paper's Example 1.1 in code: with the urea-like pattern P1
	// (C bonded to O, N, N — exactly the canned pattern the PubChem GUI
	// lacks), the TMAD query takes 3 steps: drag P1, drag P1, connect.
	p1 := buildP1()
	r1 := queryform.Steps(q, append(patterns, p1))
	fmt.Printf("with P1 added (Example 1.1):   %d steps (%d pattern drags, μ=%.0f%%)\n",
		r1.StepP, r1.PatternsUsed, r1.Mu()*100)
}

// buildP1 returns the paper's pattern P1: a carbon bonded to O and two N,
// each N carrying a methyl carbon (the urea-derivative core of Fig 2).
func buildP1() *graph.Graph {
	g := graph.New(6, 5)
	c := g.AddVertex("C")
	o := g.AddVertex("O")
	n1 := g.AddVertex("N")
	n2 := g.AddVertex("N")
	m := g.AddVertex("C")
	g.MustAddEdge(c, o)
	g.MustAddEdge(c, n1)
	g.MustAddEdge(c, n2)
	g.MustAddEdge(n2, m)
	return g
}

// buildUrea returns the urea motif N-C(=O)-N of Example 1.1.
func buildUrea() *graph.Graph {
	g := graph.New(4, 3)
	n1 := g.AddVertex("N")
	c := g.AddVertex("C")
	o := g.AddVertex("O")
	n2 := g.AddVertex("N")
	g.MustAddEdge(n1, c)
	g.MustAddEdge(c, o)
	g.MustAddEdge(c, n2)
	return g
}

// buildTMAD returns a TMAD-like skeleton: two urea units joined N-N, with
// methyl carbons on the terminal nitrogens.
func buildTMAD() *graph.Graph {
	g := graph.New(12, 11)
	var join []graph.VertexID
	for i := 0; i < 2; i++ {
		c := g.AddVertex("C")
		o := g.AddVertex("O")
		nIn := g.AddVertex("N")  // joins the two halves
		nOut := g.AddVertex("N") // carries methyls
		g.MustAddEdge(c, o)
		g.MustAddEdge(c, nIn)
		g.MustAddEdge(c, nOut)
		m := g.AddVertex("C")
		g.MustAddEdge(nOut, m)
		join = append(join, nIn)
	}
	g.MustAddEdge(join[0], join[1])
	return g
}
