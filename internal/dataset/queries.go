package dataset

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/subiso"
)

// Queries generates a subgraph-query workload per Sec 6.1: n connected
// subgraphs extracted from randomly chosen data graphs with sizes drawn
// uniformly from [minSize, maxSize] edges (clipped per source graph).
func Queries(db *graph.DB, n, minSize, maxSize int, seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, 0, n)
	for len(out) < n {
		g := db.Graph(rng.Intn(db.Len()))
		size := minSize + rng.Intn(maxSize-minSize+1)
		if size > g.NumEdges() {
			size = g.NumEdges()
		}
		q := graph.RandomConnectedSubgraph(g, size, rng)
		if q != nil {
			out = append(out, q)
		}
	}
	return out
}

// supportVF2Budget bounds each containment check during support
// estimation. Near-uniform-label queries can make exhaustive VF2
// exponential; a budget-exhausted check counts as non-containment, which
// at most underestimates support (acceptable for workload classification).
const supportVF2Budget = 30000

// Support counts the data graphs containing q, sampling at most sampleCap
// graphs for large databases (0 = exact over the whole database). Returns
// the estimated relative support.
func Support(db *graph.DB, q *graph.Graph, sampleCap int, rng *rand.Rand) float64 {
	n := db.Len()
	if n == 0 {
		return 0
	}
	if sampleCap <= 0 || sampleCap >= n {
		hits := 0
		for _, g := range db.Graphs {
			if c, _ := subiso.ContainsBudget(g, q, supportVF2Budget); c {
				hits++
			}
		}
		return float64(hits) / float64(n)
	}
	hits := 0
	for i := 0; i < sampleCap; i++ {
		if c, _ := subiso.ContainsBudget(db.Graph(rng.Intn(n)), q, supportVF2Budget); c {
			hits++
		}
	}
	return float64(hits) / float64(sampleCap)
}

// MixedQueries builds the Qx workload of Exp 9: n queries of which a
// fraction x are infrequent (relative support below threshold) and 1-x are
// frequent. Queries are rejection-sampled; support is estimated on a
// sample of up to 100 graphs. Frequent queries are kept small (frequent
// subgraphs are); infrequent queries are larger and grown around the
// rarest edge label of their source graph, mirroring how real infrequent
// user queries target uncommon substructures (Sec 3.3: "users may
// frequently pose infrequent subgraph queries").
func MixedQueries(db *graph.DB, n int, x, threshold float64, seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	wantInfreq := int(float64(n)*x + 0.5)
	wantFreq := n - wantInfreq
	labelSupport := db.EdgeLabelSupport()
	var freq, infreq []*graph.Graph
	const maxAttempts = 4000
	for attempt := 0; attempt < maxAttempts && (len(freq) < wantFreq || len(infreq) < wantInfreq); attempt++ {
		g := db.Graph(rng.Intn(db.Len()))
		var q *graph.Graph
		if len(infreq) < wantInfreq && attempt%2 == 0 {
			// Infrequent attempt: bigger, grown along consecutively rare
			// edges so the query concentrates in structurally unusual
			// regions frequent patterns cannot cover.
			size := 4 + rng.Intn(16)
			if size > g.NumEdges() {
				size = g.NumEdges()
			}
			q = rareConnectedSubgraph(g, size, labelSupport, rng)
		} else {
			size := 3 + rng.Intn(6)
			if size > g.NumEdges() {
				size = g.NumEdges()
			}
			q = graph.RandomConnectedSubgraph(g, size, rng)
		}
		if q == nil {
			continue
		}
		s := Support(db, q, 50, rng)
		if s >= threshold {
			if len(freq) < wantFreq {
				freq = append(freq, q)
			}
		} else if len(infreq) < wantInfreq {
			infreq = append(infreq, q)
		}
	}
	out := append(freq, infreq...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// rarestEdge returns the edge of g whose label has the lowest global
// support.
func rarestEdge(g *graph.Graph, labelSupport map[string]int) graph.Edge {
	best := g.Edges()[0]
	bestSup := int(^uint(0) >> 1)
	for _, e := range g.Edges() {
		if s := labelSupport[g.EdgeLabel(e.U, e.V)]; s < bestSup {
			best, bestSup = e, s
		}
	}
	return best
}

// rareConnectedSubgraph grows a connected subgraph of exactly size edges
// preferring the frontier edge with the lowest global label support at
// every step (ties broken by a seeded draw).
func rareConnectedSubgraph(g *graph.Graph, size int, labelSupport map[string]int, rng *rand.Rand) *graph.Graph {
	if size <= 0 || g.NumEdges() < size {
		return nil
	}
	start := rarestEdge(g, labelSupport)
	inV := map[graph.VertexID]bool{start.U: true, start.V: true}
	inE := map[graph.Edge]bool{start: true}
	picked := []graph.Edge{start}
	for len(picked) < size {
		var best []graph.Edge
		bestSup := int(^uint(0) >> 1)
		for v := range inV {
			for _, w := range g.Neighbors(v) {
				e := graph.NewEdge(v, w)
				if inE[e] {
					continue
				}
				s := labelSupport[g.EdgeLabel(e.U, e.V)]
				if s < bestSup {
					bestSup = s
					best = best[:0]
				}
				if s == bestSup {
					best = append(best, e)
				}
			}
		}
		if len(best) == 0 {
			return nil
		}
		// best was collected in map order: sort it (duplicates kept) so
		// the draw depends on the seed alone.
		sort.Slice(best, func(i, j int) bool {
			if best[i].U != best[j].U {
				return best[i].U < best[j].U
			}
			return best[i].V < best[j].V
		})
		e := best[rng.Intn(len(best))]
		inE[e] = true
		inV[e.U] = true
		inV[e.V] = true
		picked = append(picked, e)
	}
	sub, _ := g.EdgeSubgraph(picked)
	return sub
}
