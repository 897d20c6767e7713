package resilience

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// fakeClock drives an injected Controller.now deterministically.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func withClock(c *Controller, fc *fakeClock) *Controller {
	c.now = fc.now
	return c
}

func TestBudgetSplitDefaultsAndRollover(t *testing.T) {
	fc := newFakeClock()
	hard := fc.t.Add(1000 * time.Millisecond)
	c := withClock(NewController(fc.t, hard), fc)
	// Soft window = 900ms; defaults 60/10/30.

	c.BeginPhase(pipeline.StageClustering)
	if got, want := c.phaseBudget, 540*time.Millisecond; got != want {
		t.Fatalf("clustering budget = %v, want %v", got, want)
	}
	// Clustering finishes early at 300ms: 600ms remain for CSG+select (w=0.4).
	fc.advance(300 * time.Millisecond)
	c.EndPhase()

	c.BeginPhase(pipeline.StageCSG)
	if got, want := c.phaseBudget, 150*time.Millisecond; got != want {
		t.Fatalf("csg budget = %v, want %v (rollover of unused clustering time)", got, want)
	}
	fc.advance(100 * time.Millisecond)
	c.EndPhase()

	c.BeginPhase(pipeline.StageSelect)
	if got, want := c.phaseBudget, 500*time.Millisecond; got != want {
		t.Fatalf("select budget = %v, want %v", got, want)
	}
	c.EndPhase()
}

func TestOverrunFiresPastSoftBudget(t *testing.T) {
	fc := newFakeClock()
	hard := fc.t.Add(1 * time.Second)
	c := withClock(NewController(fc.t, hard), fc)
	ctx := WithController(context.Background(), c)

	c.BeginPhase(pipeline.StageClustering)
	if Overrun(ctx) {
		t.Fatal("overrun before any time elapsed")
	}
	fc.advance(541 * time.Millisecond) // past the 540ms clustering budget
	if !Overrun(ctx) {
		t.Fatal("overrun not detected past soft budget")
	}
	c.EndPhase()
}

func TestUnboundedControllerNeverOverruns(t *testing.T) {
	fc := newFakeClock()
	c := withClock(NewController(fc.t, time.Time{}), fc)
	ctx := WithController(context.Background(), c)
	c.BeginPhase(pipeline.StageClustering)
	fc.advance(24 * time.Hour)
	if Overrun(ctx) {
		t.Error("unbounded controller reported overrun")
	}
	if GEDApprox(ctx) {
		t.Error("unbounded controller requested GED downgrade")
	}
	c.EndPhase()
	h := c.Health()
	if h.Degraded {
		t.Error("unbounded run marked degraded")
	}
	if got := h.Stage(pipeline.StageClustering); got == nil || got.Status != StatusComplete {
		t.Errorf("clustering report = %+v, want complete", got)
	}
}

func TestGEDApproxAfterFractionOfSelectBudget(t *testing.T) {
	fc := newFakeClock()
	hard := fc.t.Add(1 * time.Second)
	c := withClock(NewController(fc.t, hard), fc)
	ctx := WithController(context.Background(), c)
	c.BeginPhase(pipeline.StageSelect) // whole 900ms soft window, select weight only
	if GEDApprox(ctx) {
		t.Fatal("GED downgrade before budget half-spent")
	}
	fc.advance(c.phaseBudget/2 + time.Millisecond)
	if !GEDApprox(ctx) {
		t.Fatal("GED downgrade not requested at half budget")
	}
}

func TestHealthAggregation(t *testing.T) {
	fc := newFakeClock()
	c := withClock(NewController(fc.t, fc.t.Add(time.Second)), fc)
	c.BeginPhase(pipeline.StageClustering)
	c.MarkDegraded("3 oversize clusters left unsplit")
	c.Count("clusters_unsplit", 3)
	c.EndPhase()
	c.BeginPhase(pipeline.StageCSG)
	c.EndPhase()
	c.BeginPhase(pipeline.StageSelect)
	c.RecordFault(&StageFault{Stage: pipeline.StageSelect, Value: "boom"})
	c.EndPhase()

	h := c.Health()
	if !h.Degraded {
		t.Fatal("health not degraded")
	}
	if got := h.Stage(pipeline.StageClustering); got.Status != StatusDegraded || !strings.Contains(got.Detail, "unsplit") {
		t.Errorf("clustering report = %+v", got)
	}
	if got := h.Stage(pipeline.StageCSG); got.Status != StatusComplete {
		t.Errorf("csg report = %+v", got)
	}
	if got := h.Stage(pipeline.StageSelect); got.Status != StatusDegraded {
		t.Errorf("select report = %+v", got)
	}
	if len(h.Faults) != 1 || h.Faults[0].Phase != pipeline.StageSelect {
		t.Errorf("faults = %v", h.Faults)
	}
	if h.Counters["clusters_unsplit"] != 3 || h.Counters["faults"] != 1 {
		t.Errorf("counters = %v", h.Counters)
	}
	s := h.String()
	for _, want := range []string{"DEGRADED", "clustering", "unsplit", "faults=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestGuardWithoutControllerDoesNotRecover(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Guard swallowed a panic with no controller installed")
		}
	}()
	Guard(context.Background(), pipeline.StageFine, func() { panic("must escape") })
}

func TestGuardWithControllerContains(t *testing.T) {
	c := NewController(time.Now(), time.Time{})
	ctx := WithController(context.Background(), c)
	c.BeginPhase(pipeline.StageClustering)
	f := Guard(ctx, pipeline.StageFine, func() { panic("contained") })
	if f == nil {
		t.Fatal("Guard returned nil fault")
	}
	if f.Stage != pipeline.StageFine || f.Value != "contained" {
		t.Errorf("fault = %+v", f)
	}
	c.EndPhase()
	h := c.Health()
	if !h.Degraded || len(h.Faults) != 1 {
		t.Errorf("health = %+v", h)
	}
}

func TestGuardIdempotentWrapping(t *testing.T) {
	c := NewController(time.Now(), time.Time{})
	ctx := WithController(context.Background(), c)
	inner := &StageFault{Stage: pipeline.StageCSG, Worker: 3, Item: 7, Value: "original"}
	f := Guard(ctx, pipeline.StageSelect, func() { panic(inner) })
	if f != inner {
		t.Errorf("Guard re-wrapped an existing fault: %+v", f)
	}
}

func TestSalvageableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{errors.New("validation"), false},
		{context.DeadlineExceeded, true},
		{ErrBudgetExhausted, true},
		{&StageFault{Value: "x"}, true},
	}
	for _, tc := range cases {
		if got := Salvageable(tc.err); got != tc.want {
			t.Errorf("Salvageable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestErrBudgetExhaustedLooksLikeDeadline(t *testing.T) {
	if !errors.Is(ErrBudgetExhausted, context.DeadlineExceeded) {
		t.Error("ErrBudgetExhausted must satisfy errors.Is(_, context.DeadlineExceeded)")
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(ErrBudgetExhausted)
	if !errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
		t.Error("cause chain lost deadline compatibility")
	}
}

func TestFromNilSafe(t *testing.T) {
	if From(nil) != nil {
		t.Error("From(nil) != nil")
	}
	if Overrun(nil) || GEDApprox(nil) {
		t.Error("nil context reported degradation")
	}
	Degraded(nil, "x") // must not panic
	Count(nil, "x", 1)
}
