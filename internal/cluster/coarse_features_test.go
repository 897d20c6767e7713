package cluster

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/treemine"
)

// coarseWithFeaturesT runs CoarseWithFeaturesCtx uncancelled, failing t
// on error.
func coarseWithFeaturesT(t *testing.T, db *graph.DB, features []*treemine.FrequentTree, cfg Config) []*Cluster {
	t.Helper()
	cs, err := CoarseWithFeaturesCtx(context.Background(), db, features, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestCoarseWithFeaturesPartition(t *testing.T) {
	db := clusteredDB(8)
	mined, err := treemine.MineCtx(context.Background(), db, treemine.MineOptions{MinSupport: 0.2, MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) == 0 {
		t.Fatal("no features mined")
	}
	sel := treemine.SelectFeatures(mined, 10)
	cs := coarseWithFeaturesT(t, db, sel, Config{N: 6, Seed: 3})
	seen := make([]bool, db.Len())
	for _, c := range cs {
		for _, m := range c.Members {
			if seen[m] {
				t.Fatalf("graph %d assigned twice", m)
			}
			seen[m] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("graph %d unassigned", i)
		}
	}
}

func TestCoarseWithFeaturesSeparatesFamilies(t *testing.T) {
	db := clusteredDB(10)
	mined, err := treemine.MineCtx(context.Background(), db, treemine.MineOptions{MinSupport: 0.3, MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	sel := treemine.SelectFeatures(mined, 10)
	cs := coarseWithFeaturesT(t, db, sel, Config{N: 10, Seed: 5})
	// Ring graphs (indices < 10) and star graphs share no subtree
	// features, so no cluster should mix them.
	for _, c := range cs {
		hasRing, hasStar := false, false
		for _, m := range c.Members {
			if m < 10 {
				hasRing = true
			} else {
				hasStar = true
			}
		}
		if hasRing && hasStar {
			t.Errorf("cluster mixes families: %v", c.Members)
		}
	}
}

func TestCoarseWithFeaturesEmptyFeatures(t *testing.T) {
	db := clusteredDB(3)
	cs := coarseWithFeaturesT(t, db, nil, Config{N: 4, Seed: 1})
	if len(cs) != 1 || cs[0].Len() != db.Len() {
		t.Errorf("no features should yield one catch-all cluster, got %d clusters", len(cs))
	}
}

func TestCoarseWithFeaturesMatchesRunCoarse(t *testing.T) {
	// When features come from the same mining configuration, the cluster
	// count should be in the same ballpark as Run with CoarseOnly.
	db := clusteredDB(10)
	viaRun := runT(t, db, Config{Strategy: CoarseOnly, N: 5, MinSupport: 0.3, Seed: 9})
	mined, err := treemine.MineCtx(context.Background(), db, treemine.MineOptions{MinSupport: 0.3, MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	sel := treemine.SelectFeatures(mined, 40)
	direct := coarseWithFeaturesT(t, db, sel, Config{N: 5, MinSupport: 0.3, Seed: 9})
	if len(direct) == 0 || len(viaRun.Clusters) == 0 {
		t.Fatal("empty clustering")
	}
	total := 0
	for _, c := range direct {
		total += c.Len()
	}
	if total != db.Len() {
		t.Errorf("membership total %d != %d", total, db.Len())
	}
}
