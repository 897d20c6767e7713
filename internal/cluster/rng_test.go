package cluster

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// Regression tests for the stage-RNG derivation. Every entry point once
// seeded its stage RNG directly with cfg.Seed, so the coarse and fine
// phases drew from the *same* stream — and the composed RunCtx consumed it
// sequentially while the separately invoked CoarseCtx + FineCtx each
// restarted it, silently diverging from the composed path.

func TestStageRngsDistinctAndDeterministic(t *testing.T) {
	c1, f1 := stageRngs(42)
	c2, f2 := stageRngs(42)
	same := true
	for i := 0; i < 16; i++ {
		cv, fv := c1.Int63(), f1.Int63()
		if cv != fv {
			same = false
		}
		if cv != c2.Int63() || fv != f2.Int63() {
			t.Fatal("stageRngs is not deterministic for a fixed seed")
		}
	}
	if same {
		t.Error("coarse and fine stages share one random stream")
	}
}

// TestRunComposesCoarseThenFine: the composed RunCtx must be bit-identical
// to running CoarseCtx and FineCtx separately — the contract the sampling
// pipeline (which intervenes between the phases) depends on.
func TestRunComposesCoarseThenFine(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		db := dataset.AIDSLike(30, seed)
		cfg := Config{
			Strategy:   HybridMCCS,
			N:          6,
			MinSupport: 0.2,
			MCSBudget:  1500,
			Seed:       seed,
		}
		full, err := RunCtx(context.Background(), db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		co, err := CoarseCtx(context.Background(), db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := FineCtx(context.Background(), db, co.Clusters, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full.Clusters, fi) {
			t.Errorf("seed %d: RunCtx and CoarseCtx+FineCtx diverge:\n run:      %v\n composed: %v",
				seed, full.Clusters, fi)
		}
	}
}
