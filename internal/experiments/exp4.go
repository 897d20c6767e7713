package experiments

import (
	"context"

	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/guimodel"
	"repro/internal/stats"
	"repro/internal/usersim"
)

// Exp4 reproduces the user study (Table 1 + Fig 10): five queries per
// interface spanning sizes 12-40 edges, each formulated by five simulated
// participants with both the commercial GUI's patterns and CATAPULT's.
// Reported per query: average QFT in seconds and average steps taken.
func Exp4(ctx context.Context, cfg Config) *Report {
	cfg.defaults()
	rep := &Report{
		ID:     "Exp4 (Table 1 + Fig 10)",
		Title:  "simulated user study: QFT and steps per query",
		Header: []string{"gui", "query", "|E|", "QFT(gui)", "QFT(CATAPULT)", "steps(gui)", "steps(CATAPULT)"},
	}

	runs := []struct {
		name   string
		db     *graph.DB
		guiSet []*graph.Graph
		cap    int
		sizes  []int // per-query edge counts, Table 1
	}{
		{"PubChem", pubchemDB(cfg.scaled(23238), cfg.Seed), guimodel.PubChemPatterns(), 12,
			[]int{18, 29, 34, 39, 40}},
		{"eMol", emolDB(cfg.scaled(10000), cfg.Seed+2), guimodel.EMolPatterns(), 6,
			[]int{12, 17, 23, 33, 35}},
	}
	const participantsPerQuery = 5

	for _, run := range runs {
		budget := core.Budget{EtaMin: 3, EtaMax: 8, Gamma: run.cap}
		res, _, err := runPipeline(ctx, run.db, nil, budget, scaledSampling(), cfg.Seed)
		if err != nil {
			rep.AddNote("%s failed: %v", run.name, err)
			continue
		}
		cat := res.PatternGraphs()

		for qi, size := range run.sizes {
			q := studyQuery(run.db, size, cfg.Seed+int64(qi))
			if q == nil {
				rep.AddNote("%s Q%d: no query of size %d extractable", run.name, qi+1, size)
				continue
			}
			var guiT, catT, guiS, catS []float64
			for u := 0; u < participantsPerQuery; u++ {
				seed := cfg.Seed + int64(1000*qi+u)
				gu := usersim.NewUser(seed).Formulate(q, run.guiSet, true)
				cu := usersim.NewUser(seed).Formulate(q, cat, false)
				guiT = append(guiT, gu.Seconds)
				catT = append(catT, cu.Seconds)
				guiS = append(guiS, float64(gu.Steps))
				catS = append(catS, float64(cu.Steps))
			}
			rep.AddRow(run.name, fmt.Sprintf("Q%d", qi+1), itoa(q.NumEdges()),
				f2(stats.Mean(guiT)), f2(stats.Mean(catT)),
				f2(stats.Mean(guiS)), f2(stats.Mean(catS)))
		}
	}
	rep.AddNote("paper shape: CATAPULT patterns reduce QFT up to ~78%% and steps up to ~81%% vs the commercial GUIs")
	return rep
}

// studyQuery extracts a connected query of approximately the requested
// edge count from the database (relaxing the size if needed).
func studyQuery(db *graph.DB, size int, seed int64) *graph.Graph {
	qs := dataset.Queries(db, 1, size, size, seed)
	if len(qs) == 0 {
		return nil
	}
	return qs[0]
}
