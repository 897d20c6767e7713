package catapult

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ged"
	"repro/internal/queryform"
	"repro/internal/subiso"
)

// Integration invariants across the whole pipeline: clustering, CSGs,
// selection and the downstream evaluation machinery must agree with each
// other on a realistic dataset.

func TestPipelineInvariants(t *testing.T) {
	db := dataset.AIDSLike(60, 21)
	res, err := SelectCtx(context.Background(), db, Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 7, Gamma: 8},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 12, MinSupport: 0.15},
		Seed:       23,
	})
	if err != nil {
		t.Fatal(err)
	}

	// (1) Clusters partition the database.
	seen := make([]bool, db.Len())
	for _, members := range res.Clusters {
		for _, m := range members {
			if seen[m] {
				t.Fatalf("graph %d in two clusters", m)
			}
			seen[m] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("graph %d unassigned", i)
		}
	}

	// (2) Every cluster member embeds in its CSG (closure property).
	for ci, c := range res.CSGs {
		for _, m := range c.Members {
			if !subiso.Contains(c.G, db.Graph(m)) {
				t.Errorf("cluster %d: member %d does not embed in CSG", ci, m)
			}
		}
	}

	// (3) Every selected pattern embeds in at least one CSG, and its
	// reported ccov is consistent with fresh VF2 checks against the
	// original cluster weights (ccov values only shrink over iterations
	// due to the multiplicative update, so reported <= initial).
	for pi, p := range res.Patterns {
		inSomeCSG := false
		initial := 0.0
		for ci, c := range res.CSGs {
			if subiso.Contains(c.G, p.Graph) {
				inSomeCSG = true
				initial += res.EffectiveSizes[ci] / float64(db.Len())
			}
		}
		if !inSomeCSG {
			t.Errorf("pattern %d embeds in no CSG", pi)
		}
		if p.Ccov > initial+1e-9 {
			t.Errorf("pattern %d ccov %v exceeds initial coverage %v", pi, p.Ccov, initial)
		}
	}

	// (4) Reported diversity of each pattern matches a recomputation
	// against the patterns selected before it.
	graphsSoFar := res.PatternGraphs()
	for pi := 1; pi < len(graphsSoFar); pi++ {
		want, _, _ := ged.MinDistanceCtx(context.Background(), graphsSoFar[pi], graphsSoFar[:pi])
		if int(res.Patterns[pi].Div) != want {
			t.Errorf("pattern %d div = %v, recomputed %d", pi, res.Patterns[pi].Div, want)
		}
	}

	// (5) The query formulation model can consume the selection: a
	// workload evaluation runs and produces sane aggregates.
	queries := dataset.Queries(db, 15, 4, 15, 29)
	m := queryform.Evaluate(queries, graphsSoFar, false)
	if m.MP < 0 || m.MP > 100 {
		t.Errorf("MP out of range: %v", m.MP)
	}
	if m.AvgMu < 0 || m.AvgMu > 1 || m.MaxMu < m.AvgMu {
		t.Errorf("mu stats inconsistent: avg %v max %v", m.AvgMu, m.MaxMu)
	}
	for _, r := range m.Steps {
		if r.StepP > r.StepTotal {
			t.Errorf("pattern-at-a-time (%d) worse than edge-at-a-time (%d)", r.StepP, r.StepTotal)
		}
	}
}
