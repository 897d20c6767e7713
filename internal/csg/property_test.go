package csg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func randomDB(r *rand.Rand, n int) *graph.DB {
	gs := make([]*graph.Graph, n)
	for i := range gs {
		gs[i] = randomConnectedGraph(r, 4+r.Intn(5), 5+r.Intn(5))
	}
	return graph.NewDB("prop", gs)
}

// Property: edge attribution counts never exceed cluster size, vertex
// attribution likewise, and compactness is monotone non-increasing in the
// threshold t.
func TestCSGProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6)
		db := randomDB(r, n)
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		c := buildT(t, db, members)
		for _, ids := range c.EdgeGraphs {
			if ids.Len() > n {
				return false
			}
		}
		for _, ids := range c.VertexGraphs {
			if ids.Len() > n {
				return false
			}
		}
		prev := 2.0
		for _, th := range []float64{0, 0.25, 0.5, 0.75, 1} {
			x := c.Compactness(th)
			if x > prev+1e-12 {
				return false
			}
			prev = x
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
