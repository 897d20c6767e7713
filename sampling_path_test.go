package catapult

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// Tests for the two-level sampling pipeline paths in clusterWithSampling.

func TestSamplingPathEagerLargerThanDB(t *testing.T) {
	// With the paper's default parameters the eager sample (6623) exceeds
	// a small database, so mining must fall back to the full-database
	// path and still produce a valid clustering.
	db := dataset.EMolLike(25, 51)
	res, err := SelectCtx(context.Background(), db, Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 4, Gamma: 3},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 8, MinSupport: 0.2},
		Sampling:   DefaultSampling(),
		Seed:       53,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range res.Clusters {
		total += len(m)
	}
	// Default lazy parameters keep every cluster whole at this size.
	if total != db.Len() {
		t.Errorf("cluster membership %d != %d", total, db.Len())
	}
	if len(res.Patterns) == 0 {
		t.Error("no patterns selected")
	}
}

func TestSamplingPathEffectiveSizesInflated(t *testing.T) {
	db := dataset.AIDSLike(80, 55)
	s := DefaultSampling()
	s.Epsilon = 0.15 // eager sample ~67 < 80: sampled mining path
	s.Rho = 0.1
	s.E = 0.25 // Cochran ~11: lazy sampling shrinks clusters
	res, err := SelectCtx(context.Background(), db, Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 4, Gamma: 3},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 10, MinSupport: 0.15},
		Sampling:   s,
		Seed:       57,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EffectiveSizes) != len(res.Clusters) {
		t.Fatalf("effective sizes %d != clusters %d", len(res.EffectiveSizes), len(res.Clusters))
	}
	memberTotal := 0.0
	effTotal := 0.0
	for i, m := range res.Clusters {
		memberTotal += float64(len(m))
		effTotal += res.EffectiveSizes[i]
		if res.EffectiveSizes[i] < float64(len(m))-1e-9 {
			t.Errorf("cluster %d effective size %v below member count %d",
				i, res.EffectiveSizes[i], len(m))
		}
	}
	if memberTotal >= float64(db.Len()) {
		t.Skip("lazy sampling did not engage at this size; nothing to verify")
	}
	// Inflated effective sizes must approximately restore the full
	// database mass.
	if effTotal < float64(db.Len())*0.9 || effTotal > float64(db.Len())*1.1 {
		t.Errorf("effective size total %v far from |D| = %d", effTotal, db.Len())
	}
}

// samplingConfig engages both sampling levels on AIDSLike(80, ...): the
// eager sample (~67) is below |D| = 80 and the Cochran size (~11) shrinks
// clusters.
func samplingConfig() Config {
	s := DefaultSampling()
	s.Epsilon = 0.15
	s.Rho = 0.1
	s.E = 0.25
	return Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 4, Gamma: 3},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 10, MinSupport: 0.15},
		Sampling:   s,
		Seed:       57,
	}
}

// Mid-stage cancellation through the two-level sampling path: cancelling
// while the eager-sample mining, the lazy shrinking or the subsequent fine
// split is running must abort the whole run with the cancellation error, no
// partial result and no leaked workers — mirroring the cluster/CSG/select
// cancellation tests of the unsampled path.
func TestSamplingPathCancelMidStage(t *testing.T) {
	db := dataset.AIDSLike(80, 55)
	for _, stage := range []pipeline.Stage{
		pipeline.StageEagerSample, pipeline.StageLazySample, pipeline.StageFine,
	} {
		t.Run(string(stage), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx = pipeline.WithTrace(ctx, &cancelOnStage{stage: stage, cancel: cancel})

			res, err := SelectCtx(ctx, db, samplingConfig())
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res != nil {
				t.Errorf("cancelled run returned a partial result: %+v", res)
			}
			for i := 0; ; i++ {
				if runtime.NumGoroutine() <= before {
					break
				}
				if i > 100 {
					t.Fatalf("goroutines leaked: %d -> %d", before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// A deadline striking mid-sampling must surface as a clean
// context.DeadlineExceeded. The deadline is simulated deterministically by
// cancelling with a DeadlineExceeded cause when the lazy-sampling stage
// starts — the stages propagate context.Cause, so the caller sees the
// deadline error rather than a bare Canceled.
func TestSamplingPathDeadlineCausePropagates(t *testing.T) {
	db := dataset.AIDSLike(80, 55)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	ctx = pipeline.WithTrace(ctx, &cancelOnStage{
		stage:  pipeline.StageLazySample,
		cancel: func() { cancel(context.DeadlineExceeded) },
	})

	res, err := SelectCtx(ctx, db, samplingConfig())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Errorf("timed-out run returned a partial result: %+v", res)
	}
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i > 100 {
			t.Fatalf("goroutines leaked: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
