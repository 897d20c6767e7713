package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/resilience"
)

func TestAdmissionShedsAtCapacity(t *testing.T) {
	adm := newAdmission(2, 5*time.Millisecond, retryAfter)
	rel1, err := adm.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := adm.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Third admit must shed with the budget-exhaustion cause after MaxWait.
	if _, err := adm.admit(context.Background()); !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("over-capacity admit: err = %v, want ErrBudgetExhausted", err)
	}
	rel1()
	rel3, err := adm.admit(context.Background())
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	rel3()
	rel2()
}

func TestAdmissionRespectsCallerCancellation(t *testing.T) {
	adm := newAdmission(1, time.Minute, retryAfter)
	rel, err := adm.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := adm.admit(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled admit: err = %v, want context.Canceled", err)
	}
}

func TestServerShedsWith429AndRetryAfter(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	s.adm = newAdmission(1, time.Millisecond, 3*time.Second)

	// Occupy the single slot with a request parked inside a handler.
	inside := make(chan struct{})
	release := make(chan struct{})
	s.mux.HandleFunc("GET /v1/testslow", s.instrument("testslow", func(w http.ResponseWriter, r *http.Request) {
		close(inside)
		<-release
	}))
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/testslow", nil))
	}()
	<-inside

	rec := doReq(s, http.MethodGet, "/v1/patterns", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
	close(release)
}

func TestRetryAfterSecondsRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 1}, {200 * time.Millisecond, 1}, {time.Second, 1},
		{1500 * time.Millisecond, 2}, {3 * time.Second, 3},
	} {
		adm := newAdmission(1, maxWait, tc.d)
		if got := adm.retryAfterSeconds(); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}
