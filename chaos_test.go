package catapult

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// Chaos tests: deterministic fault injection (internal/faultinject) proves
// that the degraded paths are reachable, leak-free, and always yield a
// valid (ηmin, ηmax, γ)-respecting pattern set attributed to the correct
// stage in Result.Health. Run by `make chaos` under -race.

// checkNoGoroutineLeak polls until the goroutine count returns to the
// pre-test baseline.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		if i > 100 {
			t.Fatalf("goroutines leaked: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkValidPatterns asserts every selected pattern respects the budget
// triple: sizes within [ηmin, ηmax], at most γ patterns, positive scores.
func checkValidPatterns(t *testing.T, res *Result, b core.Budget) {
	t.Helper()
	if len(res.Patterns) > b.Gamma {
		t.Errorf("%d patterns exceed γ = %d", len(res.Patterns), b.Gamma)
	}
	for i, p := range res.Patterns {
		if s := p.Size(); s < b.EtaMin || s > b.EtaMax {
			t.Errorf("pattern %d size %d outside [%d, %d]", i, s, b.EtaMin, b.EtaMax)
		}
		if p.Score <= 0 {
			t.Errorf("pattern %d has non-positive score %v", i, p.Score)
		}
	}
}

// faultInPhase returns the first contained fault attributed to phase.
func faultInPhase(h *resilience.Health, phase pipeline.Stage) *resilience.StageFault {
	if h == nil {
		return nil
	}
	for _, f := range h.Faults {
		if f.Phase == phase {
			return f
		}
	}
	return nil
}

func chaosRun(t *testing.T, inj *faultinject.Injector, cfg Config) *Result {
	t.Helper()
	db := dataset.AIDSLike(40, 1)
	before := runtime.NumGoroutine()
	ctx := pipeline.WithTrace(context.Background(), inj)
	res, err := SelectCtx(ctx, db, cfg)
	if err != nil {
		t.Fatalf("chaos run errored instead of degrading: %v", err)
	}
	if res == nil {
		t.Fatal("chaos run returned nil result")
	}
	checkNoGoroutineLeak(t, before)
	if len(inj.Fired()) == 0 {
		t.Fatal("injected fault never fired; chaos test exercised nothing")
	}
	return res
}

func TestChaosPanicClustering(t *testing.T) {
	cfg := stagedConfig()
	cfg.Degradation = resilience.Config{Enabled: true}
	inj := faultinject.New().PanicAfter(pipeline.CounterMCSCalls, 3, "poisoned graph in fine split")

	res := chaosRun(t, inj, cfg)
	if !res.Degraded() {
		t.Fatal("contained clustering panic did not mark the run degraded")
	}
	f := faultInPhase(res.Health, pipeline.StageClustering)
	if f == nil {
		t.Fatalf("no fault attributed to clustering phase; health:\n%s", res.Health)
	}
	if _, ok := f.Value.(*faultinject.Panic); !ok {
		t.Errorf("fault value = %T %v, want *faultinject.Panic", f.Value, f.Value)
	}
	if len(f.Stack) == 0 {
		t.Error("contained fault carries no stack")
	}
	if st := res.Health.Stage(pipeline.StageClustering); st == nil || st.Status == resilience.StatusComplete {
		t.Errorf("clustering stage status = %+v, want degraded/skipped", st)
	}
	if res.Health.Counters["clusters_unsplit"] == 0 && res.Health.Counters["coarse_fallback"] == 0 {
		t.Errorf("no clustering degradation counter bumped: %v", res.Health.Counters)
	}
	if len(res.Patterns) == 0 {
		t.Error("no patterns selected despite contained clustering fault")
	}
	checkValidPatterns(t, res, cfg.Budget)
}

func TestChaosPanicCSG(t *testing.T) {
	cfg := stagedConfig()
	cfg.Degradation = resilience.Config{Enabled: true}
	inj := faultinject.New().PanicAfter(pipeline.CounterClosureMerges, 2, "poisoned graph in closure merge")

	res := chaosRun(t, inj, cfg)
	if !res.Degraded() {
		t.Fatal("contained CSG panic did not mark the run degraded")
	}
	f := faultInPhase(res.Health, pipeline.StageCSG)
	if f == nil {
		t.Fatalf("no fault attributed to csg phase; health:\n%s", res.Health)
	}
	if _, ok := f.Value.(*faultinject.Panic); !ok {
		t.Errorf("fault value = %T %v, want *faultinject.Panic", f.Value, f.Value)
	}
	if st := res.Health.Stage(pipeline.StageCSG); st == nil || st.Status != resilience.StatusDegraded {
		t.Errorf("csg stage status = %+v, want degraded", st)
	}
	if res.Health.Counters["csg_skipped"] == 0 {
		t.Errorf("csg_skipped counter = 0; counters: %v", res.Health.Counters)
	}
	// The faulted cluster's summary is dropped; the surviving ones must keep
	// clusters/sizes/CSGs aligned and still feed selection.
	if len(res.CSGs) == 0 {
		t.Fatal("no cluster summaries survived")
	}
	if len(res.CSGs) != len(res.Clusters) || len(res.CSGs) != len(res.EffectiveSizes) {
		t.Errorf("misaligned result: %d csgs, %d clusters, %d sizes",
			len(res.CSGs), len(res.Clusters), len(res.EffectiveSizes))
	}
	if len(res.Patterns) == 0 {
		t.Error("no patterns selected despite contained CSG fault")
	}
	checkValidPatterns(t, res, cfg.Budget)
}

func TestChaosPanicSelect(t *testing.T) {
	cfg := stagedConfig()
	cfg.Degradation = resilience.Config{Enabled: true}
	// Panic while accepting the 2nd pattern: the round's append has already
	// happened, so selection must stop with exactly the 2-pattern prefix.
	inj := faultinject.New().PanicAfter(pipeline.CounterCandidatesAccepted, 2, "poisoned pattern acceptance")

	res := chaosRun(t, inj, cfg)
	if !res.Degraded() {
		t.Fatal("contained selection panic did not mark the run degraded")
	}
	f := faultInPhase(res.Health, pipeline.StageSelect)
	if f == nil {
		t.Fatalf("no fault attributed to select phase; health:\n%s", res.Health)
	}
	if st := res.Health.Stage(pipeline.StageSelect); st == nil || st.Status != resilience.StatusDegraded {
		t.Errorf("select stage status = %+v, want degraded", st)
	}
	if len(res.Patterns) != 2 {
		t.Errorf("selection kept %d patterns, want the 2 accepted before the fault", len(res.Patterns))
	}
	checkValidPatterns(t, res, cfg.Budget)
}

func TestChaosPanicSelectGeneration(t *testing.T) {
	cfg := stagedConfig()
	cfg.Degradation = resilience.Config{Enabled: true}
	clean, err := SelectCtx(context.Background(), dataset.AIDSLike(40, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Patterns) < 2 {
		t.Fatalf("clean run selected %d patterns; the test needs a second round", len(clean.Patterns))
	}
	// Round 1 walks every (CSG, size) pair, so the walk past its total is
	// counted inside a generation worker of round 2, where the panic must
	// be contained and leave round 1's pattern as the prefix.
	sizes := cfg.Budget.EtaMax - cfg.Budget.EtaMin + 1
	round1 := int64(len(clean.CSGs) * sizes * 20)
	inj := faultinject.New().PanicAfter(pipeline.CounterWalks, round1+1, "poisoned walk")

	res := chaosRun(t, inj, cfg)
	f := faultInPhase(res.Health, pipeline.StageSelect)
	if f == nil {
		t.Fatalf("no fault attributed to select phase; health:\n%s", res.Health)
	}
	if _, ok := f.Value.(*faultinject.Panic); !ok {
		t.Errorf("fault value = %T %v, want *faultinject.Panic", f.Value, f.Value)
	}
	if len(res.Patterns) != 1 || res.Patterns[0].Graph.String() != clean.Patterns[0].Graph.String() {
		t.Errorf("selection kept %d patterns, want round 1's pattern alone", len(res.Patterns))
	}
	checkValidPatterns(t, res, cfg.Budget)
}

func TestChaosStallVF2(t *testing.T) {
	cfg := stagedConfig()
	cfg.Degradation = resilience.Config{Enabled: true, Deadline: 400 * time.Millisecond}
	// Wedge the goroutine reporting the 3rd VF2 search well past the overall
	// deadline: the run must degrade — never crash, never leak the stalled
	// worker — and still return a budget-valid (possibly empty) pattern set.
	inj := faultinject.New().StallAfter(pipeline.CounterVF2Calls, 3, 1200*time.Millisecond)

	db := dataset.AIDSLike(40, 1)
	before := runtime.NumGoroutine()
	ctx := pipeline.WithTrace(context.Background(), inj)
	res, err := SelectCtx(ctx, db, cfg)
	if err != nil {
		t.Fatalf("stalled run errored instead of degrading: %v", err)
	}
	if res == nil {
		t.Fatal("stalled run returned nil result")
	}
	checkNoGoroutineLeak(t, before)
	if res.Health == nil {
		t.Fatal("no health report on degradation-enabled run")
	}
	if !res.Degraded() {
		t.Errorf("run blowing through a %v deadline not marked degraded; health:\n%s",
			cfg.Degradation.Deadline, res.Health)
	}
	checkValidPatterns(t, res, cfg.Budget)
}

// With degradation enabled but no deadline configured, only panic
// containment and health reporting are active: output must be bit-identical
// to a plain run across seeds, and Health must report every phase complete.
func TestChaosUnboundedBitIdentical(t *testing.T) {
	db := dataset.AIDSLike(40, 1)
	for _, seed := range []int64{7, 19, 42} {
		cfg := stagedConfig()
		cfg.Seed = seed
		plain, err := SelectCtx(context.Background(), db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Degradation = resilience.Config{Enabled: true}
		guarded, err := SelectCtx(context.Background(), db, cfg)
		if err != nil {
			t.Fatal(err)
		}

		if guarded.Health == nil {
			t.Fatalf("seed %d: no health report", seed)
		}
		if guarded.Degraded() {
			t.Errorf("seed %d: unbounded guarded run reports degradation:\n%s", seed, guarded.Health)
		}
		if len(plain.Patterns) != len(guarded.Patterns) {
			t.Fatalf("seed %d: pattern counts differ: %d plain vs %d guarded",
				seed, len(plain.Patterns), len(guarded.Patterns))
		}
		for i := range plain.Patterns {
			a, b := plain.Patterns[i], guarded.Patterns[i]
			if a.Graph.String() != b.Graph.String() || a.Score != b.Score ||
				a.Ccov != b.Ccov || a.Lcov != b.Lcov || a.Div != b.Div || a.Cog != b.Cog {
				t.Errorf("seed %d: pattern %d differs between plain and guarded run", seed, i)
			}
		}
		if len(plain.Clusters) != len(guarded.Clusters) {
			t.Fatalf("seed %d: cluster counts differ", seed)
		}
		for i := range plain.Clusters {
			if len(plain.Clusters[i]) != len(guarded.Clusters[i]) {
				t.Errorf("seed %d: cluster %d sizes differ", seed, i)
				continue
			}
			for j := range plain.Clusters[i] {
				if plain.Clusters[i][j] != guarded.Clusters[i][j] {
					t.Errorf("seed %d: cluster %d member %d differs", seed, i, j)
				}
			}
		}
		for c, n := range plain.Counters {
			if guarded.Counters[c] != n {
				t.Errorf("seed %d: counter %s differs: %d plain vs %d guarded",
					seed, c, n, guarded.Counters[c])
			}
		}
	}
}

// An aggressive deadline — a quarter of the measured unconstrained wall
// clock — must still yield a non-empty, budget-valid pattern set with the
// overrun stages marked degraded, not an error.
func TestChaosAggressiveDeadline(t *testing.T) {
	db := dataset.AIDSLike(40, 1)
	cfg := stagedConfig()

	// Warm up once (shared caches, scheduler), then measure the
	// unconstrained run.
	if _, err := SelectCtx(context.Background(), db, cfg); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	full, err := SelectCtx(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unconstrained := time.Since(start)
	if len(full.Patterns) == 0 {
		t.Fatal("unconstrained run selected nothing; cannot compare")
	}
	deadline := unconstrained / 4
	if deadline < 5*time.Millisecond {
		deadline = 5 * time.Millisecond
	}

	cfg.Degradation = resilience.Config{Enabled: true, Deadline: deadline}
	before := runtime.NumGoroutine()
	res, err := SelectCtx(context.Background(), db, cfg)
	if err != nil {
		t.Fatalf("deadline-constrained run errored instead of degrading: %v", err)
	}
	checkNoGoroutineLeak(t, before)
	if res.Health == nil {
		t.Fatal("no health report")
	}
	if len(res.Patterns) == 0 {
		t.Errorf("no patterns within %v deadline (full run: %v, %d patterns); health:\n%s",
			deadline, unconstrained, len(full.Patterns), res.Health)
	}
	checkValidPatterns(t, res, cfg.Budget)
	if !res.Degraded() {
		// A quarter of the unconstrained wall clock cannot fit the full
		// pipeline; some stage must have been marked degraded or skipped.
		t.Errorf("run under %v deadline (full: %v) reports no degradation; health:\n%s",
			deadline, unconstrained, res.Health)
	}
}
