package catapult

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/subiso"
)

func smallDB(t *testing.T) *graph.DB {
	t.Helper()
	return dataset.AIDSLike(40, 1)
}

func TestSelectEndToEnd(t *testing.T) {
	db := smallDB(t)
	res, err := SelectCtx(context.Background(), db, Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 6, Gamma: 8},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 10, MinSupport: 0.2},
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns selected")
	}
	if len(res.Patterns) > 8 {
		t.Errorf("γ exceeded: %d", len(res.Patterns))
	}
	for _, p := range res.Patterns {
		if p.Size() < 3 || p.Size() > 6 {
			t.Errorf("pattern size %d outside budget", p.Size())
		}
		if !p.Graph.IsConnected() {
			t.Error("disconnected pattern")
		}
	}
	if res.ClusteringTime <= 0 || res.PatternTime <= 0 {
		t.Error("phase timings missing")
	}
	if len(res.Clusters) == 0 || len(res.CSGs) != len(res.Clusters) {
		t.Errorf("clusters/CSGs inconsistent: %d vs %d", len(res.Clusters), len(res.CSGs))
	}
}

func TestSelectEmptyDB(t *testing.T) {
	if _, err := SelectCtx(context.Background(), graph.NewDB("empty", nil), Config{}); err == nil {
		t.Error("empty database accepted")
	}
}

func TestSelectDefaultsApplied(t *testing.T) {
	db := dataset.EMolLike(25, 3)
	res, err := SelectCtx(context.Background(), db, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Default budget is (3, 12, 30); small DB will exhaust before 30.
	for _, p := range res.Patterns {
		if p.Size() < 3 || p.Size() > 12 {
			t.Errorf("default budget violated: size %d", p.Size())
		}
	}
}

func TestSelectedPatternsOccurInData(t *testing.T) {
	db := smallDB(t)
	res, err := SelectCtx(context.Background(), db, Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 5, Gamma: 6},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 10, MinSupport: 0.2},
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Patterns come from CSGs, which are unions of data graphs — a pattern
	// need not embed in a single data graph in pathological closures, but
	// with family-structured data nearly all should. Require at least 80%.
	occur := 0
	for _, p := range res.Patterns {
		for _, g := range db.Graphs {
			if subiso.Contains(g, p.Graph) {
				occur++
				break
			}
		}
	}
	if occur*10 < len(res.Patterns)*8 {
		t.Errorf("only %d/%d patterns occur in the data", occur, len(res.Patterns))
	}
}

func TestSelectWithSampling(t *testing.T) {
	db := dataset.AIDSLike(60, 9)
	s := DefaultSampling()
	// Shrink the eager sample and loosen the lazy precision so both
	// sampling levels actually engage on 60 graphs.
	s.Epsilon = 0.15
	s.Rho = 0.1
	s.E = 0.3
	res, err := SelectCtx(context.Background(), db, Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 5, Gamma: 5},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 8, MinSupport: 0.2},
		Sampling:   s,
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sampling no longer replaces the working database (clustering runs on
	// all of D, per Sec 4.3); lazy sampling shrinks cluster membership.
	if res.WorkingDB.Len() != db.Len() {
		t.Errorf("working DB should be the full database: %d", res.WorkingDB.Len())
	}
	total := 0
	for _, members := range res.Clusters {
		total += len(members)
	}
	if total >= db.Len() {
		t.Errorf("lazy sampling did not shrink cluster membership: %d of %d", total, db.Len())
	}
	if len(res.Patterns) == 0 {
		t.Error("sampling run selected no patterns")
	}
}

func TestDefaultSamplingMatchesPaper(t *testing.T) {
	s := DefaultSampling()
	if s.Epsilon != 0.02 || s.Rho != 0.01 || s.P != 0.5 || s.E != 0.03 {
		t.Errorf("default sampling parameters changed: %+v", s)
	}
}

func TestSelectDeterministic(t *testing.T) {
	db := smallDB(t)
	cfg := Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 5, Gamma: 5},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 10, MinSupport: 0.2},
		Seed:       21,
	}
	a, err := SelectCtx(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectCtx(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Patterns) != len(b.Patterns) {
		t.Fatalf("nondeterministic: %d vs %d patterns", len(a.Patterns), len(b.Patterns))
	}
	for i := range a.Patterns {
		if a.Patterns[i].Graph.String() != b.Patterns[i].Graph.String() {
			t.Errorf("pattern %d differs", i)
		}
	}
}

func TestMaintainerIncrementalInsert(t *testing.T) {
	db := dataset.AIDSLike(30, 15)
	m, err := NewMaintainerCtx(context.Background(), db, Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 5, Gamma: 5},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 8, MinSupport: 0.2},
		Seed:       17,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := len(m.Patterns())
	if before == 0 {
		t.Fatal("initial selection empty")
	}
	clustersBefore := m.NumClusters()

	extra := dataset.AIDSLike(5, 99)
	if _, err := m.AddGraphsCtx(context.Background(), extra.Graphs); err != nil {
		t.Fatal(err)
	}
	if m.DB().Len() != 35 {
		t.Errorf("database size after insert = %d, want 35", m.DB().Len())
	}
	if len(m.Patterns()) == 0 {
		t.Error("patterns lost after insert")
	}
	if m.NumClusters() < clustersBefore {
		t.Errorf("clusters shrank: %d -> %d", clustersBefore, m.NumClusters())
	}
	// Every new graph must be in exactly one cluster.
	seen := map[int]int{}
	total := 0
	for _, members := range m.clusters {
		for _, gi := range members {
			seen[gi]++
			total++
		}
	}
	if total != 35 {
		t.Errorf("cluster membership total = %d, want 35", total)
	}
	for gi, c := range seen {
		if c != 1 {
			t.Errorf("graph %d in %d clusters", gi, c)
		}
	}
}

func TestMaintainerNoOpInsert(t *testing.T) {
	db := dataset.EMolLike(20, 19)
	m, err := NewMaintainerCtx(context.Background(), db, Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 4, Gamma: 3},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 8, MinSupport: 0.2},
		Seed:       23,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := len(m.Patterns())
	if _, err := m.AddGraphsCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if len(m.Patterns()) != before {
		t.Error("no-op insert changed patterns")
	}
}
