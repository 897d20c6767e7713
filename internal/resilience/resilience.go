// Package resilience implements anytime, deadline-aware graceful degradation
// for the CATAPULT pipeline.
//
// The pipeline is a chain of exponential kernels (frequent-tree mining, MCCS,
// VF2, GED) under per-search budgets. Without this package an expired
// context.Context or a worker panic aborts catapult.SelectCtx with *no*
// pattern set. With a Controller installed on the context, the pipeline
// behaves as an anytime algorithm instead:
//
//   - The overall deadline is split into per-phase *soft budgets*
//     (clustering / CSG construction / selection, with configurable
//     weights). A phase that overruns its soft budget returns its best
//     partial result — unsplit coarse clusters, partially merged closures,
//     the patterns selected so far — rather than an error.
//   - Worker panics are contained: internal/par converts them into typed
//     *StageFault values (stage name, worker and item index, stack) that
//     degrade one stage instead of crashing the process.
//   - Everything is surfaced in a Health report: per-stage status
//     (complete / degraded / skipped), the fault list, and degradation
//     counters.
//
// The controller travels in the context (WithController / From), exactly
// like pipeline.Trace. Every hook is nil-safe and every check is a no-op
// when no controller is installed, so a run without degradation configured
// is bit-identical to one built before this package existed.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/pipeline"
)

// Status is the health state of one pipeline phase.
type Status string

const (
	// StatusComplete means the phase ran to completion within budget.
	StatusComplete Status = "complete"
	// StatusDegraded means the phase returned a partial / fallback result
	// (soft budget overrun, contained fault, or hard-deadline salvage).
	StatusDegraded Status = "degraded"
	// StatusSkipped means the phase produced none of its own output and a
	// fallback was substituted wholesale.
	StatusSkipped Status = "skipped"
)

// StageFault is a contained worker panic: one poisoned graph degrades its
// stage instead of crashing the process. par.ForCtx re-raises panics wrapped
// in this type; par.ForCtxRecover and Guard convert them into recorded
// degradation instead of re-raising.
type StageFault struct {
	// Phase is the umbrella pipeline phase (clustering / csg / select)
	// active when the fault was recorded; empty if no controller phase was
	// running.
	Phase pipeline.Stage
	// Stage is the innermost pipeline stage at the panic site (from
	// pipeline.CurrentStage), e.g. "fine" inside the clustering phase.
	Stage pipeline.Stage
	// Worker is the parallel worker goroutine that panicked (0 for inline
	// or coordinator-side panics).
	Worker int
	// Item is the loop index whose work item panicked, or -1 when the
	// panic did not come from an indexed parallel loop.
	Item int
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack.
	Stack []byte
}

// NewFault builds a StageFault for a panic value recovered at the given
// stage. If v is already a *StageFault it is returned unchanged, so wrapping
// is idempotent across nesting levels (par worker → coordinator Guard).
func NewFault(stage pipeline.Stage, worker, item int, v any, stack []byte) *StageFault {
	if f, ok := v.(*StageFault); ok {
		return f
	}
	return &StageFault{Stage: stage, Worker: worker, Item: item, Value: v, Stack: stack}
}

// Error implements error so faults can flow through error returns and be
// classified with errors.As.
func (f *StageFault) Error() string {
	where := string(f.Stage)
	if where == "" {
		where = "pipeline"
	}
	if f.Item >= 0 {
		return fmt.Sprintf("resilience: panic in stage %s (worker %d, item %d): %v", where, f.Worker, f.Item, f.Value)
	}
	return fmt.Sprintf("resilience: panic in stage %s (worker %d): %v", where, f.Worker, f.Value)
}

// ErrBudgetExhausted is the cancellation cause installed by the facade's
// hard-deadline backstop. It satisfies errors.Is(err,
// context.DeadlineExceeded) so existing deadline handling keeps working,
// while context.Cause lets callers distinguish a budget-driven abort from an
// explicit user cancellation.
var ErrBudgetExhausted error = budgetExhaustedError{}

type budgetExhaustedError struct{}

func (budgetExhaustedError) Error() string { return "resilience: overall deadline budget exhausted" }
func (budgetExhaustedError) Is(target error) bool {
	return target == context.DeadlineExceeded
}

// Salvageable reports whether err is an abort the anytime pipeline may
// degrade through (deadline expiry, budget exhaustion, or a contained
// fault) rather than an abort it must honor (explicit user cancellation,
// validation errors).
func Salvageable(err error) bool {
	if err == nil {
		return false
	}
	var f *StageFault
	return errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrBudgetExhausted) ||
		errors.As(err, &f)
}

// StageReport is the health record of one pipeline phase.
type StageReport struct {
	Stage   pipeline.Stage
	Status  Status
	Detail  string        // human-readable reason when not complete
	Budget  time.Duration // soft budget granted (0 = unbounded)
	Elapsed time.Duration
}

// Health is the degradation report attached to a pipeline result.
type Health struct {
	// Stages holds one report per umbrella phase, in execution order.
	Stages []StageReport
	// Faults lists every contained worker panic.
	Faults []*StageFault
	// Counters holds degradation statistics (clusters left unsplit,
	// partially merged closures, skipped summaries, GED downgrades,
	// selection rounds completed, ...).
	Counters map[string]int64
	// Degraded is true when any phase is not complete or any fault was
	// contained.
	Degraded bool
}

// Stage returns the report for phase s, or nil.
func (h *Health) Stage(s pipeline.Stage) *StageReport {
	for i := range h.Stages {
		if h.Stages[i].Stage == s {
			return &h.Stages[i]
		}
	}
	return nil
}

// String renders a compact multi-line summary (the catapult CLI's -health
// output).
func (h *Health) String() string {
	var b strings.Builder
	if h.Degraded {
		b.WriteString("health: DEGRADED\n")
	} else {
		b.WriteString("health: ok\n")
	}
	for _, s := range h.Stages {
		fmt.Fprintf(&b, "  %-10s %s", s.Stage+":", s.Status)
		if s.Budget > 0 {
			fmt.Fprintf(&b, " (budget %v, elapsed %v)", s.Budget.Round(time.Millisecond), s.Elapsed.Round(time.Millisecond))
		}
		if s.Detail != "" {
			fmt.Fprintf(&b, " — %s", s.Detail)
		}
		b.WriteByte('\n')
	}
	for _, f := range h.Faults {
		fmt.Fprintf(&b, "  fault: %v\n", f)
	}
	if len(h.Counters) > 0 {
		names := make([]string, 0, len(h.Counters))
		for n := range h.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("  counters:")
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%d", n, h.Counters[n])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// The degradation policy. The overall deadline is split into per-phase
// soft budgets by weight: clustering dominates wall clock in the paper's
// pipeline, selection is the second heaviest, CSG closure is cheap.
// safetyMargin of the budget is held back so soft-budget degradation
// completes before the hard deadline fires, and exact A* GED downgrades to
// the bipartite approximation once the selection phase has spent
// gedApproxFraction of its soft budget.
const (
	clusteringWeight  = 0.6
	csgWeight         = 0.1
	selectionWeight   = 0.3
	safetyMargin      = 0.1
	gedApproxFraction = 0.5
)

// Config is the catapult.Config.Degradation knob set.
type Config struct {
	// Enabled turns the anytime machinery on. When false (the default) the
	// pipeline behaves exactly as before: deadline or cancellation aborts
	// with an error and worker panics crash the process.
	Enabled bool
	// Deadline is the overall wall-clock budget. Zero means "derive from
	// the context deadline, if any"; if neither is set the run is
	// unbounded (panic containment and health reporting stay active, soft
	// budgets never fire).
	Deadline time.Duration
}

// Controller tracks the soft budgets and health of one pipeline run. It is
// safe for concurrent use (stages poll Overrun from parallel workers).
type Controller struct {
	mu      sync.Mutex
	now     func() time.Time // injectable for tests
	softEnd time.Time        // zero = unbounded

	phase         pipeline.Stage
	phaseStart    time.Time
	phaseBudget   time.Duration
	phaseDeadline time.Time // zero = unbounded
	phaseStatus   Status
	phaseDetail   string

	reports  []StageReport
	faults   []*StageFault
	counters map[string]int64

	// trace receives every degradation counter as a pipeline counter named
	// "degrade_<name>", so observability sinks (pipeline.Recorder,
	// metrics.Trace) see degradation live instead of only in the final
	// Health snapshot. Set once via Observe before the controller is
	// shared; never nil.
	trace pipeline.Trace
}

// NewController builds a controller whose overall budget ends at hard
// (zero = unbounded), with safetyMargin of it held back.
func NewController(now, hard time.Time) *Controller {
	c := &Controller{
		now:      time.Now,
		counters: make(map[string]int64),
		trace:    pipeline.Nop,
	}
	if !hard.IsZero() {
		total := hard.Sub(now)
		if total < 0 {
			total = 0
		}
		c.softEnd = now.Add(time.Duration(float64(total) * (1 - safetyMargin)))
	}
	return c
}

// weightOf returns the soft-budget weight of phase s.
func weightOf(s pipeline.Stage) float64 {
	switch s {
	case pipeline.StageClustering:
		return clusteringWeight
	case pipeline.StageCSG:
		return csgWeight
	case pipeline.StageSelect:
		return selectionWeight
	}
	return 0
}

// remainingWeight sums the weights of s and every phase after it.
func remainingWeight(s pipeline.Stage) float64 {
	switch s {
	case pipeline.StageClustering:
		return clusteringWeight + csgWeight + selectionWeight
	case pipeline.StageCSG:
		return csgWeight + selectionWeight
	case pipeline.StageSelect:
		return selectionWeight
	}
	return 0
}

// BeginPhase opens umbrella phase s and computes its soft deadline from the
// time remaining in the overall budget: time that an earlier phase did not
// use rolls over to later phases.
func (c *Controller) BeginPhase(s pipeline.Stage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.phase = s
	c.phaseStart = now
	c.phaseStatus = StatusComplete
	c.phaseDetail = ""
	c.phaseBudget = 0
	c.phaseDeadline = time.Time{}
	if c.softEnd.IsZero() {
		return
	}
	remaining := c.softEnd.Sub(now)
	if remaining < 0 {
		remaining = 0
	}
	w, rw := weightOf(s), remainingWeight(s)
	if rw <= 0 {
		return
	}
	c.phaseBudget = time.Duration(float64(remaining) * w / rw)
	c.phaseDeadline = now.Add(c.phaseBudget)
}

// BeginSolePhase opens phase s and grants it the entire remaining soft
// budget, regardless of the configured phase weights. It exists for
// single-phase interactive calls — a per-keystroke suggestion ranking is
// one phase from the controller's point of view — where the three-way
// pipeline split would leave the phase with no budget at all (weightOf
// returns 0 for stages outside the offline pipeline). GED downgrade
// (gedDegraded) and Overrun work exactly as in a weighted phase.
func (c *Controller) BeginSolePhase(s pipeline.Stage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.phase = s
	c.phaseStart = now
	c.phaseStatus = StatusComplete
	c.phaseDetail = ""
	c.phaseBudget = 0
	c.phaseDeadline = time.Time{}
	if c.softEnd.IsZero() {
		return
	}
	remaining := c.softEnd.Sub(now)
	if remaining < 0 {
		remaining = 0
	}
	c.phaseBudget = remaining
	c.phaseDeadline = now.Add(remaining)
}

// EndPhase closes the current phase, appending its report.
func (c *Controller) EndPhase() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phase == "" {
		return
	}
	c.reports = append(c.reports, StageReport{
		Stage:   c.phase,
		Status:  c.phaseStatus,
		Detail:  c.phaseDetail,
		Budget:  c.phaseBudget,
		Elapsed: c.now().Sub(c.phaseStart),
	})
	c.phase = ""
}

// PhaseDeadline returns the current phase's soft deadline, if one is set.
// The facade arms a context.WithDeadlineCause at this instant (with
// ErrBudgetExhausted as the cause) so soft-budget expiry reaches even the
// deepest search kernels as cooperative cancellation.
func (c *Controller) PhaseDeadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.phaseDeadline, !c.phaseDeadline.IsZero()
}

// Overrun reports whether the current phase has exceeded its soft budget.
func (c *Controller) Overrun() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phaseDeadline.IsZero() {
		return false
	}
	return c.now().After(c.phaseDeadline)
}

// gedDegraded reports whether exact GED should downgrade to the bipartite
// approximation: the selection phase has spent gedApproxFraction of its
// soft budget.
func (c *Controller) gedDegraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phaseDeadline.IsZero() || c.phaseBudget <= 0 {
		return false
	}
	spent := c.now().Sub(c.phaseStart)
	return float64(spent) >= gedApproxFraction*float64(c.phaseBudget)
}

// MarkDegraded marks the current phase degraded with a reason. The first
// reason is kept; later ones are appended.
func (c *Controller) MarkDegraded(detail string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.markLocked(StatusDegraded, detail)
}

// MarkSkipped marks the current phase skipped (wholesale fallback).
func (c *Controller) MarkSkipped(detail string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.markLocked(StatusSkipped, detail)
}

func (c *Controller) markLocked(s Status, detail string) {
	// Skipped dominates degraded dominates complete.
	if c.phaseStatus == StatusComplete || s == StatusSkipped {
		c.phaseStatus = s
	}
	if detail != "" {
		if c.phaseDetail == "" {
			c.phaseDetail = detail
		} else {
			c.phaseDetail += "; " + detail
		}
	}
}

// RecordFault appends a contained fault, stamping it with the current
// phase, and marks the phase degraded.
func (c *Controller) RecordFault(f *StageFault) {
	c.mu.Lock()
	if f.Phase == "" {
		f.Phase = c.phase
	}
	c.faults = append(c.faults, f)
	c.counters["faults"]++
	c.markLocked(StatusDegraded, fmt.Sprintf("contained panic in %s", faultStage(f)))
	c.mu.Unlock()
	c.trace.Add(pipeline.Counter(pipeline.DegradeCounterPrefix+"faults"), 1)
}

func faultStage(f *StageFault) string {
	if f.Stage != "" {
		return string(f.Stage)
	}
	if f.Phase != "" {
		return string(f.Phase)
	}
	return "pipeline"
}

// Observe mirrors every degradation counter onto t as a pipeline counter
// named "degrade_<name>". Call once, before the controller is shared with
// pipeline stages; passing nil keeps the no-op default.
func (c *Controller) Observe(t pipeline.Trace) {
	if t != nil {
		c.trace = t
	}
}

// Count accumulates a degradation counter.
func (c *Controller) Count(name string, n int64) {
	c.mu.Lock()
	c.counters[name] += n
	c.mu.Unlock()
	c.trace.Add(pipeline.Counter(pipeline.DegradeCounterPrefix+name), n)
}

// Health snapshots the report. Call after EndPhase of the last phase.
func (c *Controller) Health() *Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := &Health{
		Stages:   append([]StageReport(nil), c.reports...),
		Faults:   append([]*StageFault(nil), c.faults...),
		Counters: make(map[string]int64, len(c.counters)),
	}
	for n, v := range c.counters {
		h.Counters[n] = v
	}
	for _, s := range h.Stages {
		if s.Status != StatusComplete {
			h.Degraded = true
		}
	}
	if len(h.Faults) > 0 {
		h.Degraded = true
	}
	return h
}

// ---------------------------------------------------------------------------
// Context plumbing.

type ctrlKey struct{}

// WithController returns a context carrying c.
func WithController(ctx context.Context, c *Controller) context.Context {
	return context.WithValue(ctx, ctrlKey{}, c)
}

// From extracts the controller carried by ctx, or nil when ctx is nil or
// carries none (nil means "no degradation: behave exactly as before").
func From(ctx context.Context) *Controller {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(ctrlKey{}).(*Controller)
	return c
}

// Overrun reports whether ctx carries a controller whose current phase has
// exceeded its soft budget. Nil-safe; false without a controller.
func Overrun(ctx context.Context) bool {
	c := From(ctx)
	return c != nil && c.Overrun()
}

// GEDApprox reports whether exact GED verification should downgrade to the
// bipartite approximation under the current soft budget.
func GEDApprox(ctx context.Context) bool {
	c := From(ctx)
	return c != nil && c.gedDegraded()
}

// Degraded marks the current phase of ctx's controller degraded. No-op
// without a controller.
func Degraded(ctx context.Context, detail string) {
	if c := From(ctx); c != nil {
		c.MarkDegraded(detail)
	}
}

// Count accumulates a degradation counter on ctx's controller. No-op
// without a controller.
func Count(ctx context.Context, name string, n int64) {
	if c := From(ctx); c != nil {
		c.Count(name, n)
	}
}

// Guard runs fn with panic containment when ctx carries a controller: a
// panic is converted into a recorded *StageFault (attributed to stage) and
// returned; fn's effects up to the panic are kept by the caller as its best
// partial result. Without a controller fn runs unguarded, preserving the
// legacy crash semantics exactly.
func Guard(ctx context.Context, stage pipeline.Stage, fn func()) (fault *StageFault) {
	ctrl := From(ctx)
	if ctrl == nil {
		fn()
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			fault = NewFault(stage, 0, -1, r, debug.Stack())
			ctrl.RecordFault(fault)
		}
	}()
	fn()
	return nil
}
