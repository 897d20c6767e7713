package experiments

import (
	"context"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/usersim"
)

// Exp10 reproduces Fig 18 (cognitive-load measures): for each of two
// datasets, 6 patterns of varying topology and load are shown to 15
// simulated participants; patterns are ranked by average response time
// ("actual") and by the putative measures F1 (density-based, Sec 3.2), F2
// (degree-based) and F3 (average-degree). Reported: Kendall tau of the
// actual ranking against each measure's ranking.
func Exp10(ctx context.Context, cfg Config) *Report {
	cfg.defaults()
	rep := &Report{
		ID:     "Exp10 (Fig 18)",
		Title:  "cognitive load measures vs simulated response times",
		Header: []string{"dataset", "tau(F1)", "tau(F2)", "tau(F3)"},
	}
	const participants = 15

	sets := []struct {
		name string
		db   *graph.DB
	}{
		{"AIDS", aidsDB(cfg.scaled(10000), cfg.Seed)},
		{"PubChem", pubchemDB(cfg.scaled(23238), cfg.Seed)},
	}
	for si, s := range sets {
		patterns := studyPatterns(s.db, cfg.Seed+int64(si))
		if len(patterns) < 4 {
			rep.AddNote("%s: only %d study patterns", s.name, len(patterns))
			continue
		}
		avgTimes := make([]float64, len(patterns))
		for pi, p := range patterns {
			total := 0.0
			for u := 0; u < participants; u++ {
				total += usersim.NewUser(cfg.Seed + int64(1000*si+100*pi+u)).ComprehensionTime(p)
			}
			avgTimes[pi] = total / participants
		}
		actual := stats.Ranks(avgTimes)
		f1s := measure(patterns, usersim.F1)
		f2s := measure(patterns, usersim.F2)
		f3s := measure(patterns, usersim.F3)
		rep.AddRow(s.name,
			f2(stats.KendallTau(actual, stats.Ranks(f1s))),
			f2(stats.KendallTau(actual, stats.Ranks(f2s))),
			f2(stats.KendallTau(actual, stats.Ranks(f3s))))
	}
	rep.AddNote("paper shape: F1 most effective (avg ~0.8), F3 close (~0.78), F2 weak (~0.28)")
	return rep
}

func measure(ps []*graph.Graph, f func(*graph.Graph) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// studyPatterns picks 6 patterns of deliberately varied topology and
// cognitive load (|V| in [4, 13], |E| in [3, 13] per the paper): paths,
// rings, a star, a near-clique — mined or constructed from the dataset's
// label alphabet.
func studyPatterns(db *graph.DB, seed int64) []*graph.Graph {
	labels := db.VertexLabelSet()
	pick := func(i int) string { return labels[i%len(labels)] }

	path := func(n int) *graph.Graph {
		g := graph.New(n, n-1)
		for i := 0; i < n; i++ {
			g.AddVertex(pick(i))
		}
		for i := 1; i < n; i++ {
			g.MustAddEdge(graph.VertexID(i-1), graph.VertexID(i))
		}
		return g
	}
	ring := func(n int) *graph.Graph {
		g := graph.New(n, n)
		for i := 0; i < n; i++ {
			g.AddVertex(pick(i))
		}
		for i := 0; i < n; i++ {
			g.MustAddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
		}
		return g
	}
	star := func(n int) *graph.Graph {
		g := graph.New(n+1, n)
		c := g.AddVertex(pick(0))
		for i := 0; i < n; i++ {
			v := g.AddVertex(pick(i + 1))
			g.MustAddEdge(c, v)
		}
		return g
	}
	clique := func(n int) *graph.Graph {
		g := graph.New(n, n*(n-1)/2)
		for i := 0; i < n; i++ {
			g.AddVertex(pick(i))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				g.MustAddEdge(graph.VertexID(i), graph.VertexID(j))
			}
		}
		return g
	}
	return []*graph.Graph{
		path(5),   // sparse chain:      |V|=5  |E|=4
		path(13),  // long chain:        |V|=13 |E|=12
		ring(6),   // benzene-like ring: |V|=6  |E|=6
		star(6),   // hub:               |V|=7  |E|=6
		ring(10),  // large ring:        |V|=10 |E|=10
		clique(4), // dense clique:      |V|=4  |E|=6
	}
}
