// Package par provides a minimal order-preserving parallel-for used by the
// pipeline's embarrassingly parallel stages (feature vector construction,
// workload evaluation, CSG building). Work items write only to their own
// index, so results are deterministic regardless of scheduling.
package par

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/pipeline"
	"repro/internal/resilience"
)

// For runs fn(i) for every i in [0, n), using up to GOMAXPROCS workers
// (see Workers).
// fn may write only to per-index state. If fn panics in a worker, the panic
// is recovered there and re-raised on the caller's goroutine after every
// worker has exited — identical to the inline (single-worker) behavior. The
// re-raised value is a *resilience.StageFault wrapping the original panic
// value with the active pipeline stage, the worker and item index, and the
// panicking goroutine's stack.
// For n <= 1 or a single-CPU process the loop runs inline to avoid
// goroutine overhead.
func For(n int, fn func(i int)) {
	// context.Background is never cancelled, so ForCtx cannot return an
	// error here (panics propagate directly).
	_ = ForCtx(context.Background(), n, fn)
}

// cause explains why the loop was cut short: context.Cause distinguishes a
// deadline (context.DeadlineExceeded / resilience.ErrBudgetExhausted), an
// explicit cancel, and a fault-induced abort (a *resilience.StageFault
// installed as cancellation cause) where plain ctx.Err() collapses all
// three into context.Canceled.
func cause(ctx context.Context) error {
	if err := context.Cause(ctx); err != nil {
		return err
	}
	return ctx.Err()
}

// ForCtx is For with cooperative cancellation: workers stop claiming new
// indices once ctx is cancelled, already-started fn calls run to
// completion, and every worker has exited before ForCtx returns (no leaked
// goroutines). It returns nil when every index was processed and the
// cancellation cause (context.Cause, falling back to ctx.Err) when the loop
// was cut short. Panics in fn are recovered in the worker, wrapped in a
// *resilience.StageFault, and re-raised on the caller's goroutine.
func ForCtx(ctx context.Context, n int, fn func(i int)) error {
	faults, err := run(ctx, n, fn, false)
	if len(faults) > 0 {
		panic(faults[0])
	}
	return err
}

// ForCtxRecover is ForCtx with fault containment: a panic in fn(i) is
// recovered and recorded as a *resilience.StageFault for index i while the
// remaining indices continue to be processed (the legacy paths re-raise the
// first panic and abandon the rest). The caller decides how to degrade the
// faulted indices. err carries the cancellation cause when the loop was cut
// short, independently of whether faults occurred.
func ForCtxRecover(ctx context.Context, n int, fn func(i int)) (faults []*resilience.StageFault, err error) {
	return run(ctx, n, fn, true)
}

type spareCoreKey struct{}

// WithSpareCore marks ctx so that the loops run under it leave one core to
// other work: they use GOMAXPROCS−1 workers, never fewer than one. A
// served refresh runs under this mark, so that requests answered while
// it recomputes the tenant's state find a core free.
func WithSpareCore(ctx context.Context) context.Context {
	return context.WithValue(ctx, spareCoreKey{}, true)
}

// Workers returns the number of workers a loop under ctx may run:
// GOMAXPROCS, one fewer under WithSpareCore, and at least one.
func Workers(ctx context.Context) int {
	w := runtime.GOMAXPROCS(0)
	if spare, _ := ctx.Value(spareCoreKey{}).(bool); spare && w > 1 {
		w--
	}
	return w
}

func run(ctx context.Context, n int, fn func(i int), contain bool) ([]*resilience.StageFault, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stage := pipeline.CurrentStage(ctx)
	done := ctx.Done()
	workers := Workers(ctx)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var faults []*resilience.StageFault
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return faults, cause(ctx)
				default:
				}
			}
			f := protect(stage, 0, i, fn, contain)
			if f != nil {
				faults = append(faults, f)
				continue
			}
		}
		return faults, nil
	}

	var (
		next      int64 = -1
		processed int64
		wg        sync.WaitGroup
		mu        sync.Mutex
		faults    []*resilience.StageFault
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				if !contain {
					mu.Lock()
					stop := len(faults) > 0
					mu.Unlock()
					if stop {
						return
					}
				}
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				f := protect(stage, worker, i, fn, true)
				if f != nil {
					mu.Lock()
					faults = append(faults, f)
					mu.Unlock()
					continue
				}
				atomic.AddInt64(&processed, 1)
			}
		}(w)
	}
	wg.Wait()
	if !contain {
		if len(faults) > 0 {
			return faults[:1], nil
		}
	}
	if atomic.LoadInt64(&processed)+int64(len(faults)) != int64(n) {
		return faults, cause(ctx)
	}
	return faults, nil
}

// protect runs fn(i), converting a panic into a *resilience.StageFault
// (capturing the stack on the panicking goroutine). When contain is false
// the inline path re-raises immediately, matching single-worker semantics.
func protect(stage pipeline.Stage, worker, i int, fn func(i int), contain bool) (fault *resilience.StageFault) {
	defer func() {
		if r := recover(); r != nil {
			fault = resilience.NewFault(stage, worker, i, r, debug.Stack())
			if !contain {
				panic(fault)
			}
		}
	}()
	fn(i)
	return nil
}
