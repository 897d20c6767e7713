package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/pipeline"
	"repro/internal/resilience"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	const n = 1000
	counts := make([]int64, n)
	For(n, func(i int) { atomic.AddInt64(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForZeroAndOne(t *testing.T) {
	called := 0
	For(0, func(int) { called++ })
	if called != 0 {
		t.Error("For(0) invoked fn")
	}
	For(1, func(i int) {
		if i != 0 {
			t.Errorf("For(1) passed index %d", i)
		}
		called++
	})
	if called != 1 {
		t.Error("For(1) should invoke fn once")
	}
}

func TestForParallelPath(t *testing.T) {
	// Force the multi-worker path even on 1-CPU machines.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const n = 500
	var sum int64
	For(n, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	want := int64(n * (n - 1) / 2)
	if sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

func TestForCtxCompletesWithoutCancellation(t *testing.T) {
	const n = 300
	counts := make([]int64, n)
	if err := ForCtx(context.Background(), n, func(i int) {
		atomic.AddInt64(&counts[i], 1)
	}); err != nil {
		t.Fatalf("ForCtx = %v, want nil", err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForCtxNilContext(t *testing.T) {
	called := int64(0)
	if err := ForCtx(nil, 10, func(int) { atomic.AddInt64(&called, 1) }); err != nil { //nolint:staticcheck // nil ctx tolerated by design
		t.Fatalf("ForCtx(nil ctx) = %v", err)
	}
	if called != 10 {
		t.Errorf("called = %d, want 10", called)
	}
}

func TestForCtxStopsOnCancellation(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	ctx, cancel := context.WithCancel(context.Background())
	const n = 100000
	var ran int64
	err := ForCtx(ctx, n, func(i int) {
		if atomic.AddInt64(&ran, 1) == 8 {
			cancel() // cancel from inside the loop: deterministic mid-run cut
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForCtx = %v, want context.Canceled", err)
	}
	if r := atomic.LoadInt64(&ran); r >= n {
		t.Errorf("cancellation did not cut the loop short: ran %d of %d", r, n)
	}
}

func TestForCtxInlinePathStopsOnCancellation(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	err := ForCtx(ctx, 1000, func(i int) {
		ran++
		if ran == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForCtx = %v, want context.Canceled", err)
	}
	if ran != 5 {
		t.Errorf("inline path ran %d items after cancellation at 5", ran)
	}
}

func TestForCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := int64(0)
	err := ForCtx(ctx, 50, func(int) { atomic.AddInt64(&called, 1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForCtx = %v, want context.Canceled", err)
	}
}

func TestForRepanicsWorkerPanicOnCaller(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	defer func() {
		f, ok := recover().(*resilience.StageFault)
		if !ok {
			t.Fatalf("recovered value is not a *resilience.StageFault")
		}
		if f.Value != "boom-42" {
			t.Errorf("fault value %v, want boom-42", f.Value)
		}
		if f.Item != 42 {
			t.Errorf("fault item %d, want 42", f.Item)
		}
		if len(f.Stack) == 0 {
			t.Error("fault carries no stack")
		}
	}()
	For(500, func(i int) {
		if i == 42 {
			panic("boom-42")
		}
	})
	t.Error("For returned instead of panicking")
}

func TestForRepanicsInlinePath(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	defer func() {
		f, ok := recover().(*resilience.StageFault)
		if !ok {
			t.Fatalf("recovered value is not a *resilience.StageFault")
		}
		if f.Value != "inline-boom" {
			t.Errorf("fault value %v, want inline-boom", f.Value)
		}
		if f.Item != 3 {
			t.Errorf("fault item %d, want 3", f.Item)
		}
	}()
	For(10, func(i int) {
		if i == 3 {
			panic("inline-boom")
		}
	})
	t.Error("For returned instead of panicking")
}

func TestForCtxPanicCarriesStage(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	ctx := pipeline.WithStage(context.Background(), pipeline.StageCSG)
	defer func() {
		f, ok := recover().(*resilience.StageFault)
		if !ok {
			t.Fatalf("recovered value is not a *resilience.StageFault")
		}
		if f.Stage != pipeline.StageCSG {
			t.Errorf("fault stage %q, want %q", f.Stage, pipeline.StageCSG)
		}
	}()
	_ = ForCtx(ctx, 100, func(i int) {
		if i == 9 {
			panic("stage-tagged")
		}
	})
	t.Error("ForCtx returned instead of panicking")
}

func TestForCtxRecoverContainsFaultsAndContinues(t *testing.T) {
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		const n = 200
		counts := make([]int64, n)
		faults, err := ForCtxRecover(context.Background(), n, func(i int) {
			if i == 13 || i == 77 {
				panic(i)
			}
			atomic.AddInt64(&counts[i], 1)
		})
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatalf("procs=%d: ForCtxRecover err = %v", procs, err)
		}
		if len(faults) != 2 {
			t.Fatalf("procs=%d: got %d faults, want 2", procs, len(faults))
		}
		faulted := map[int]bool{}
		for _, f := range faults {
			faulted[f.Item] = true
		}
		if !faulted[13] || !faulted[77] {
			t.Errorf("procs=%d: faults at %v, want items 13 and 77", procs, faulted)
		}
		for i, c := range counts {
			want := int64(1)
			if i == 13 || i == 77 {
				want = 0
			}
			if c != want {
				t.Errorf("procs=%d: index %d processed %d times, want %d", procs, i, c, want)
			}
		}
	}
}

func TestForCtxRecoverHonorsCancellation(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	ctx, cancel := context.WithCancel(context.Background())
	var ran int64
	faults, err := ForCtxRecover(ctx, 100000, func(i int) {
		if atomic.AddInt64(&ran, 1) == 8 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForCtxRecover = %v, want context.Canceled", err)
	}
	if len(faults) != 0 {
		t.Errorf("unexpected faults: %v", faults)
	}
}

func TestForCtxReturnsCancellationCause(t *testing.T) {
	sentinel := errors.New("poisoned batch")
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		ctx, cancel := context.WithCancelCause(context.Background())
		var ran int64
		err := ForCtx(ctx, 100000, func(i int) {
			if atomic.AddInt64(&ran, 1) == 8 {
				cancel(sentinel)
			}
		})
		runtime.GOMAXPROCS(old)
		if !errors.Is(err, sentinel) {
			t.Errorf("procs=%d: ForCtx = %v, want cause %v", procs, err, sentinel)
		}
	}
}

func TestForCtxRepanicsWorkerPanic(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	defer func() {
		if r := recover(); r == nil {
			t.Error("ForCtx swallowed the worker panic")
		}
	}()
	_ = ForCtx(context.Background(), 500, func(i int) {
		if i == 7 {
			panic(errors.New("worker exploded"))
		}
	})
	t.Error("ForCtx returned instead of panicking")
}

func TestForOrderIndependentResultsProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)
		out := make([]int, n)
		For(n, func(i int) { out[i] = i * i })
		for i := range out {
			if out[i] != i*i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSpareCoreLeavesOneCore checks the served-refresh mark: loops under
// WithSpareCore run at most GOMAXPROCS−1 workers at once, and at least
// one, while unmarked loops may use every core.
func TestSpareCoreLeavesOneCore(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		want := procs - 1
		if want < 1 {
			want = 1
		}
		ctx := WithSpareCore(context.Background())
		if got := Workers(ctx); got != want {
			t.Errorf("GOMAXPROCS %d: Workers under the mark = %d, want %d", procs, got, want)
		}
		if got := Workers(context.Background()); got != procs {
			t.Errorf("GOMAXPROCS %d: Workers without the mark = %d, want %d", procs, got, procs)
		}
		var active, peak int64
		const n = 64
		var done int64
		if err := ForCtx(ctx, n, func(int) {
			a := atomic.AddInt64(&active, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if a <= p || atomic.CompareAndSwapInt64(&peak, p, a) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond) // let workers overlap
			atomic.AddInt64(&active, -1)
			atomic.AddInt64(&done, 1)
		}); err != nil {
			t.Fatal(err)
		}
		if done != n {
			t.Fatalf("GOMAXPROCS %d: %d of %d items ran", procs, done, n)
		}
		if peak < 1 || peak > int64(want) {
			t.Errorf("GOMAXPROCS %d: %d workers ran at once under the mark, want 1..%d", procs, peak, want)
		}
	}
}
