package gindex_test

import (
	"fmt"

	"repro/internal/gindex"
	"repro/internal/graph"
)

func ExampleIndex_Search() {
	// Two tiny molecules; search for the C-O bond.
	g1 := graph.New(3, 2)
	c := g1.AddVertex("C")
	o := g1.AddVertex("O")
	n := g1.AddVertex("N")
	g1.MustAddEdge(c, o)
	g1.MustAddEdge(o, n)

	g2 := graph.New(2, 1)
	a := g2.AddVertex("N")
	b := g2.AddVertex("N")
	g2.MustAddEdge(a, b)

	db := graph.NewDB("demo", []*graph.Graph{g1, g2})
	idx := gindex.Build(db)

	q := graph.New(2, 1)
	qc := q.AddVertex("C")
	qo := q.AddVertex("O")
	q.MustAddEdge(qc, qo)

	for _, r := range idx.Search(q) {
		fmt.Println("match in graph", r.GraphIndex)
	}
	// Output:
	// match in graph 0
}
