// Admission control: bounded concurrency with deadline-driven shedding.
// Instead of queueing unboundedly under overload (and melting p99 for
// everyone), the server admits at most maxInFlight requests; a request that
// cannot be admitted within maxWait is shed with 429 Too Many Requests and
// a Retry-After hint. The wait is armed as a context deadline with
// resilience.ErrBudgetExhausted as its cause — the same budget-exhaustion
// signal the anytime pipeline uses — so shed decisions are distinguishable
// from client disconnects via context.Cause.
package serve

import (
	"context"
	"time"

	"repro/internal/resilience"
)

// Admission bounds of every server: at most maxInFlight requests are
// served at once across all endpoints, a request waits at most maxWait for
// a slot, and a shed response asks the client to retry after retryAfter.
const (
	maxInFlight = 256
	maxWait     = 10 * time.Millisecond
	retryAfter  = time.Second
)

// admission is the runtime semaphore that enforces the admission bounds.
type admission struct {
	sem        chan struct{}
	maxWait    time.Duration
	retryAfter time.Duration
}

// newAdmission builds a semaphore of inFlight slots; a request waits at
// most wait for one, and a shed one is told to retry after retry.
func newAdmission(inFlight int, wait, retry time.Duration) *admission {
	return &admission{
		sem:        make(chan struct{}, inFlight),
		maxWait:    wait,
		retryAfter: retry,
	}
}

// admit acquires an in-flight slot, waiting at most maxWait. It returns a
// release function on success. On failure the error is the context cause:
// resilience.ErrBudgetExhausted for an admission-budget shed, or the
// client's own cancellation cause.
func (a *admission) admit(ctx context.Context) (func(), error) {
	select {
	case a.sem <- struct{}{}:
		return a.release, nil
	default:
	}
	wctx, cancel := context.WithDeadlineCause(ctx, time.Now().Add(a.maxWait), resilience.ErrBudgetExhausted)
	defer cancel()
	select {
	case a.sem <- struct{}{}:
		return a.release, nil
	case <-wctx.Done():
		return nil, context.Cause(wctx)
	}
}

func (a *admission) release() { <-a.sem }

// retryAfterSeconds is the Retry-After header value: the hint rounded up
// to whole seconds, at least 1.
func (a *admission) retryAfterSeconds() int {
	s := int((a.retryAfter + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
