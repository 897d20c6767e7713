package catapult

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bignet"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// Tests for the staged pipeline contract: cancellation through every layer,
// trace observability, recorder-driven timings and seed propagation.

func stagedConfig() Config {
	return Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 6, Gamma: 8},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 10, MinSupport: 0.2},
		Seed:       7,
	}
}

// cancelOnStage cancels the run when the given stage starts.
type cancelOnStage struct {
	stage  pipeline.Stage
	cancel context.CancelFunc
}

func (c *cancelOnStage) StageStart(s pipeline.Stage) {
	if s == c.stage {
		c.cancel()
	}
}
func (c *cancelOnStage) StageEnd(pipeline.Stage, time.Duration) {}
func (c *cancelOnStage) Add(pipeline.Counter, int64)            {}

func TestSelectCtxCancelMidPipeline(t *testing.T) {
	db := dataset.AIDSLike(40, 1)
	// Cancel at different depths of the pipeline: CSG construction (inside
	// the parallel closure loop) and pattern selection (the greedy loop).
	for _, stage := range []pipeline.Stage{pipeline.StageCSG, pipeline.StageSelect} {
		t.Run(string(stage), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx = pipeline.WithTrace(ctx, &cancelOnStage{stage: stage, cancel: cancel})

			res, err := SelectCtx(ctx, db, stagedConfig())
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res != nil {
				t.Errorf("cancelled run returned a partial result: %+v", res)
			}
			// All workers must have exited: no goroutine leak.
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

func TestSelectCtxAlreadyCancelled(t *testing.T) {
	db := dataset.EMolLike(20, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SelectCtx(ctx, db, stagedConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned a result")
	}
}

func TestSelectCtxDeadlineExceeded(t *testing.T) {
	db := dataset.AIDSLike(40, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	res, err := SelectCtx(ctx, db, stagedConfig())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Error("timed-out run returned a result")
	}
}

func TestSelectCtxTraceSequenceAndCounters(t *testing.T) {
	db := dataset.AIDSLike(40, 1)
	rec := pipeline.NewRecorder()
	ctx := pipeline.WithTrace(context.Background(), rec)

	res, err := SelectCtx(ctx, db, stagedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns selected")
	}

	// Stages are recorded in completion order: nested stages finish before
	// the umbrella clustering span; CSG construction and pattern selection
	// follow.
	want := []pipeline.Stage{
		pipeline.StageMine, pipeline.StageCoarse, pipeline.StageFine,
		pipeline.StageClustering, pipeline.StageCSG, pipeline.StageSelect,
	}
	got := rec.Stages()
	if len(got) != len(want) {
		t.Fatalf("stage sequence = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}

	for _, c := range []pipeline.Counter{
		pipeline.CounterTreesMined,
		pipeline.CounterClosureMerges,
		pipeline.CounterWalks,
		pipeline.CounterCandidatesGenerated,
		pipeline.CounterCandidatesAccepted,
		pipeline.CounterVF2Calls,
		// Coverage-engine activity: scoring misses at least once, and the
		// weight update re-asks the winning pattern's verdicts, which are
		// guaranteed memo hits.
		pipeline.CounterCoverMisses,
		pipeline.CounterCoverHits,
	} {
		if rec.Total(c) <= 0 {
			t.Errorf("counter %s = %d, want > 0", c, rec.Total(c))
		}
	}
	// The facade surfaces the same totals on the result.
	for c, n := range rec.Counters() {
		if res.Counters[c] != n {
			t.Errorf("Result.Counters[%s] = %d, recorder says %d", c, res.Counters[c], n)
		}
	}
	if acc := rec.Total(pipeline.CounterCandidatesAccepted); acc != int64(len(res.Patterns)) {
		t.Errorf("accepted counter %d != %d selected patterns", acc, len(res.Patterns))
	}

	// Result timings come from the recorded spans.
	if res.ClusteringTime != rec.Duration(pipeline.StageClustering) {
		t.Errorf("ClusteringTime %v != recorded %v",
			res.ClusteringTime, rec.Duration(pipeline.StageClustering))
	}
	if res.PatternTime != rec.Duration(pipeline.StageSelect) {
		t.Errorf("PatternTime %v != recorded %v",
			res.PatternTime, rec.Duration(pipeline.StageSelect))
	}
}

// cancelOnNthVF2 cancels the run on the n-th VF2 search observed after
// pattern selection has started — i.e. in the middle of a coverage-engine
// verification batch.
type cancelOnNthVF2 struct {
	cancel   context.CancelFunc
	n        int64
	inSelect atomic.Bool
	seen     atomic.Int64
}

func (c *cancelOnNthVF2) StageStart(s pipeline.Stage) {
	if s == pipeline.StageSelect {
		c.inSelect.Store(true)
	}
}
func (c *cancelOnNthVF2) StageEnd(pipeline.Stage, time.Duration) {}
func (c *cancelOnNthVF2) Add(ctr pipeline.Counter, _ int64) {
	if ctr == pipeline.CounterVF2Calls && c.inSelect.Load() {
		if c.seen.Add(1) == c.n {
			c.cancel()
		}
	}
}

func TestSelectCtxCancelDuringCoverBatch(t *testing.T) {
	db := dataset.AIDSLike(40, 1)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = pipeline.WithTrace(ctx, &cancelOnNthVF2{cancel: cancel, n: 3})

	res, err := SelectCtx(ctx, db, stagedConfig())
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
}

func TestConfigDefaultsSeedPropagation(t *testing.T) {
	// Unset sub-seeds inherit the top-level seed.
	c := Config{Seed: 42}
	c.defaults()
	if c.Clustering.Seed != 42 || c.Selection.Seed != 42 || c.Network.Seed != 42 {
		t.Errorf("unset sub-seeds = (%d, %d, %d), want (42, 42, 42)",
			c.Clustering.Seed, c.Selection.Seed, c.Network.Seed)
	}

	// Explicit non-zero sub-seeds are preserved.
	c = Config{Seed: 42, Clustering: cluster.Config{Seed: 7}, Selection: core.Options{Seed: 9},
		Network: bignet.Options{Seed: 11}}
	c.defaults()
	if c.Clustering.Seed != 7 || c.Selection.Seed != 9 || c.Network.Seed != 11 {
		t.Errorf("explicit sub-seeds overwritten: (%d, %d, %d), want (7, 9, 11)",
			c.Clustering.Seed, c.Selection.Seed, c.Network.Seed)
	}
}

func TestSamplingEffectiveSizesSumToDatabase(t *testing.T) {
	// Fine sub-clusters of a lazily-sampled cluster carry count × inflate
	// effective sizes; since inflate = |C| / |sampled| and the fine split
	// partitions the sampled members, each cluster's sub-sizes sum exactly
	// to its pre-sampling size — and the grand total to |D|.
	db := dataset.AIDSLike(80, 55)
	s := DefaultSampling()
	s.Epsilon = 0.15
	s.Rho = 0.1
	s.E = 0.25
	res, err := SelectCtx(context.Background(), db, Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 4, Gamma: 3},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 10, MinSupport: 0.15},
		Sampling:   s,
		Seed:       57,
	})
	if err != nil {
		t.Fatal(err)
	}
	memberTotal := 0
	effTotal := 0.0
	for i, m := range res.Clusters {
		memberTotal += len(m)
		effTotal += res.EffectiveSizes[i]
	}
	if memberTotal >= db.Len() {
		t.Skip("lazy sampling did not engage at this size; nothing to verify")
	}
	if diff := effTotal - float64(db.Len()); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("effective sizes sum to %v, want exactly |D| = %d", effTotal, db.Len())
	}
}
