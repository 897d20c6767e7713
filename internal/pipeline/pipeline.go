// Package pipeline defines the cross-layer contract of the CATAPULT
// pipeline: named stages, named counters, and the Trace observer that the
// facade threads through every layer via context.Context.
//
// The pipeline (Algorithm 1) is a sequence of long-running stages — subtree
// mining, coarse and fine clustering, CSG closure, pattern selection — each
// of which may itself run parallel inner loops (VF2 containment, MCS
// similarity, GED diversity). Every stage entry point accepts a
// context.Context and:
//
//   - checks cancellation at iteration boundaries, returning ctx.Err()
//     cleanly (no partial results, no leaked goroutines), and
//   - reports stage start/end events and counters to the Trace stored in the
//     context (pipeline.From), defaulting to a no-op.
//
// Stage events nest: the facade emits the umbrella StageClustering around
// the clustering phase while cluster/treemine emit the finer StageMine,
// StageCoarse and StageFine inside it. Durations of nested stages therefore
// overlap and must not be summed across nesting levels.
//
// Implementations of Trace must be safe for concurrent use: counters are
// reported from parallel workers (par.ForCtx) during feature-vector
// construction and CSG building.
package pipeline

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// Stage names one phase of the pipeline.
type Stage string

// Pipeline stages, in the order the facade runs them. StageClustering is an
// umbrella emitted by the facade; StageMine/StageCoarse/StageFine (and the
// sampling stages) nest inside it.
const (
	// StageClustering spans the whole clustering phase of Algorithm 1
	// (mining + coarse + fine, with sampling when enabled). Its duration is
	// the paper's "clustering time" measure.
	StageClustering Stage = "clustering"
	// StageMine is frequent subtree mining (treemine.MineCtx).
	StageMine Stage = "mine"
	// StageEagerSample is the eager-sampling feature mining path (Sec 4.3):
	// mining on a uniform sample at low_fr plus full-database recount.
	StageEagerSample Stage = "eager-sample"
	// StageCoarse is k-means over subtree feature vectors (Algorithm 2).
	StageCoarse Stage = "coarse"
	// StageLazySample is the lazy stratified shrinking of oversize coarse
	// clusters (Sec 4.3).
	StageLazySample Stage = "lazy-sample"
	// StageFine is MCCS-seeded splitting of oversize clusters (Algorithm 3).
	StageFine Stage = "fine"
	// StageCSG is cluster summary graph construction (Sec 4.2).
	StageCSG Stage = "csg"
	// StageSelect is greedy canned-pattern selection (Algorithm 4). Its
	// duration is the paper's PGT measure.
	StageSelect Stage = "select"
	// StageNetLoad spans streaming construction of a frozen CSR network
	// from an edge list (internal/bignet loaders).
	StageNetLoad Stage = "net-load"
	// StageNetPartition spans deterministic edge-partitioning of a large
	// network into capped regions (internal/bignet).
	StageNetPartition Stage = "net-partition"
	// StageNetSummarize spans random-walk sampling of per-region
	// representative subgraphs into the synthetic summary DB.
	StageNetSummarize Stage = "net-summarize"
	// StageSuggest spans one online autocompletion call: candidate
	// pruning, containment verification and closeness ranking of a
	// partial query against a canned pattern set (internal/suggest).
	StageSuggest Stage = "suggest"
)

// Counter names a monotonically accumulated pipeline statistic.
type Counter string

// Pipeline counters. All are reported as positive deltas via Trace.Add.
const (
	// CounterTreesMined counts frequent subtrees surviving mining.
	CounterTreesMined Counter = "trees_mined"
	// CounterClustersSplit counts fine-clustering split operations.
	CounterClustersSplit Counter = "clusters_split"
	// CounterClosureMerges counts data graphs merged into CSG closures.
	CounterClosureMerges Counter = "closure_merges"
	// CounterWalks counts random walks performed during FCP generation.
	CounterWalks Counter = "walks"
	// CounterCandidatesGenerated counts candidate patterns proposed by the
	// per-(CSG, size) generators, before dedup and scoring.
	CounterCandidatesGenerated Counter = "candidates_generated"
	// CounterCandidatesRejected counts candidates dropped as duplicates of
	// an earlier candidate or an already-selected pattern.
	CounterCandidatesRejected Counter = "candidates_rejected"
	// CounterCandidatesAccepted counts candidates actually selected as
	// canned patterns.
	CounterCandidatesAccepted Counter = "candidates_accepted"
	// CounterVF2Calls counts VF2 subgraph-isomorphism searches.
	CounterVF2Calls Counter = "vf2_calls"
	// CounterMCSCalls counts MCS/MCCS similarity computations.
	CounterMCSCalls Counter = "mcs_calls"
	// CounterMCSBudgetExhausted counts MCS/MCCS searches stopped by their
	// node budget before exploring their whole search space.
	CounterMCSBudgetExhausted Counter = "mcs_budget_exhausted"
	// CounterMCSNodes counts the search-tree nodes expanded by MCS/MCCS
	// searches, finished or stopped by their node budget (a cancelled
	// search is not counted); with mcs_calls it gives nodes per search.
	CounterMCSNodes Counter = "mcs_nodes"
	// CounterGEDCalls counts full (non-pruned) GED computations.
	CounterGEDCalls Counter = "ged_calls"
	// CounterGEDExact counts GED computations of the min-GED loop that A*
	// finished within its node budget.
	CounterGEDExact Counter = "ged_exact"
	// CounterGEDBudgetExhausted counts GED computations of the min-GED loop
	// whose A* ran out of its node budget and fell back to the bipartite
	// approximation.
	CounterGEDBudgetExhausted Counter = "ged_budget_exhausted"
	// CounterGEDSizeLimit counts GED computations of the min-GED loop that
	// skipped A* because the pair is above the exact size limit and used
	// the bipartite approximation. With the resilience controller's
	// degrade_ged_approx downgrades, the three GED outcome counters sum to
	// ged_calls.
	CounterGEDSizeLimit Counter = "ged_size_limit"
	// CounterSelectBoundSkipped counts selection candidates whose exact
	// min-GED diversity was never computed because the upper bound of
	// their score could not beat the round's best score.
	CounterSelectBoundSkipped Counter = "select_bound_skipped"
	// CounterCoverHits counts containment verdicts served from the coverage
	// engine's memo cache without running VF2.
	CounterCoverHits Counter = "cover_cache_hits"
	// CounterCoverMisses counts containment verdicts the coverage engine had
	// to establish (memo miss; resolved by at most one VF2 search per
	// canonically distinct host).
	CounterCoverMisses Counter = "cover_cache_misses"
	// CounterCoverPruned counts (host, pattern) pairs the coverage engine
	// rejected via the path-feature index without VF2 or a memo entry.
	CounterCoverPruned Counter = "cover_pruned"
	// CounterSimHits counts pairwise similarities served from the
	// similarity cache (internal/simcache) without an MCS/MCCS search.
	CounterSimHits Counter = "simcache_hits"
	// CounterSimMisses counts pairwise similarities the similarity cache
	// had to establish (memo miss; resolved by at most one search per
	// canonically distinct pair per batch).
	CounterSimMisses Counter = "simcache_misses"
	// CounterClusterPairsPruned counts graph pairs that skipped a fresh
	// MCS/MCCS search because an isomorphic pair was already being
	// computed in the same fine-clustering batch.
	CounterClusterPairsPruned Counter = "cluster_pairs_pruned"
	// CounterNetEdgesLoaded counts edge lines accepted by the streaming
	// network loaders, reported in batches as load progresses.
	CounterNetEdgesLoaded Counter = "bignet_edges_loaded"
	// CounterNetEdgesDropped counts input lines the loaders skipped:
	// malformed, self-loop, or duplicate edges.
	CounterNetEdgesDropped Counter = "bignet_edges_dropped"
	// CounterNetRegions counts regions produced by edge partitioning.
	CounterNetRegions Counter = "bignet_regions"
	// CounterNetRepsSampled counts representative subgraphs sampled from
	// regions into the summary DB.
	CounterNetRepsSampled Counter = "bignet_reps_sampled"
	// CounterStoreBytes counts bytes written by the snapshot store's
	// durable write path, reported per chunk as the write progresses. The
	// chaos suite arms faultinject rules on it to kill persistence at
	// byte N.
	CounterStoreBytes Counter = "store_bytes_written"
	// CounterStorePersists counts snapshot generations durably committed
	// (tmp written, fsynced, renamed into place).
	CounterStorePersists Counter = "store_persists"
	// CounterSuggestCandidates counts candidate patterns that survived
	// index pruning in an autocompletion call.
	CounterSuggestCandidates Counter = "suggest_candidates"
	// CounterSuggestRanked counts candidate patterns whose closeness
	// ranking actually ran (reported one at a time, before each ranking
	// step, so the chaos suite can stall or kill ranking mid-prefix).
	CounterSuggestRanked Counter = "suggest_ranked"
)

// DegradeCounterPrefix starts the name of every counter that carries a
// resilience degradation event: internal/resilience mirrors its counter
// <name> onto the trace as "degrade_<name>", and internal/metrics files
// such counters under the degradation family by <name>.
const DegradeCounterPrefix = "degrade_"

// Trace observes pipeline execution. Implementations must be safe for
// concurrent use by multiple goroutines; StageStart/StageEnd pairs for the
// same stage always come from one goroutine, but different stages and Add
// calls may interleave arbitrarily.
type Trace interface {
	// StageStart marks the beginning of a stage.
	StageStart(s Stage)
	// StageEnd marks the end of a stage with its wall-clock duration.
	StageEnd(s Stage, d time.Duration)
	// Add accumulates n (a positive delta) into counter c.
	Add(c Counter, n int64)
}

// Nop is the default Trace: it discards everything.
var Nop Trace = nopTrace{}

type nopTrace struct{}

func (nopTrace) StageStart(Stage)              {}
func (nopTrace) StageEnd(Stage, time.Duration) {}
func (nopTrace) Add(Counter, int64)            {}

type traceKey struct{}

// WithTrace returns a context carrying t. Passing nil installs Nop.
func WithTrace(ctx context.Context, t Trace) context.Context {
	if t == nil {
		t = Nop
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// From extracts the Trace carried by ctx, or Nop when ctx is nil or carries
// none. It never returns nil, so call sites need no guard.
func From(ctx context.Context) Trace {
	if ctx == nil {
		return Nop
	}
	if t, ok := ctx.Value(traceKey{}).(Trace); ok && t != nil {
		return t
	}
	return Nop
}

type stageKey struct{}

// PprofStageLabel is the pprof label key carrying the innermost active
// stage. CPU and goroutine profiles taken while the pipeline runs can be
// filtered and aggregated by it, e.g.
//
//	go tool pprof -tagfocus stage=fine cpu.out
const PprofStageLabel = "stage"

// WithStage returns a context recording s as the innermost active stage.
// Stage entry points install it so downstream helpers (fault containment in
// internal/par, degradation counters) can attribute work to a stage without
// threading a name through every call.
//
// The stage is additionally attached as the pprof label "stage" on both the
// returned context and the calling goroutine, so profile samples taken
// during the stage attribute to it. Goroutines spawned while the label is
// set (par.ForCtx workers, csg builders) inherit it automatically. Callers
// that need the previous labels restored on stage exit should use Scope,
// whose end function resets the goroutine to the parent context's labels;
// bare WithStage leaves the label in place until the next WithStage on the
// same goroutine, which is fine for the facade's strictly nested phases.
func WithStage(ctx context.Context, s Stage) context.Context {
	ctx = context.WithValue(ctx, stageKey{}, s)
	ctx = pprof.WithLabels(ctx, pprof.Labels(PprofStageLabel, string(s)))
	pprof.SetGoroutineLabels(ctx)
	return ctx
}

// CurrentStage returns the innermost active stage recorded on ctx, or ""
// when none is. Nil-safe.
func CurrentStage(ctx context.Context) Stage {
	if ctx == nil {
		return ""
	}
	s, _ := ctx.Value(stageKey{}).(Stage)
	return s
}

// Scope combines WithStage and StartStage: it marks s as the innermost
// active stage on the returned context and emits StageStart, returning the
// idempotent end function. The end function also restores the calling
// goroutine's pprof labels to the parent context's label set, so profile
// attribution follows stage nesting.
//
//	ctx, done := pipeline.Scope(ctx, pipeline.StageFine)
//	defer done()
func Scope(ctx context.Context, s Stage) (context.Context, func()) {
	parent := ctx
	ctx = WithStage(ctx, s)
	end := StartStage(ctx, s)
	return ctx, func() {
		end()
		pprof.SetGoroutineLabels(parent)
	}
}

// StartStage emits StageStart on ctx's tracer and returns the matching end
// function. The intended use is
//
//	done := pipeline.StartStage(ctx, pipeline.StageMine)
//	defer done()
//
// done is idempotent: only the first call emits StageEnd.
func StartStage(ctx context.Context, s Stage) func() {
	t := From(ctx)
	t.StageStart(s)
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() { t.StageEnd(s, time.Since(start)) })
	}
}

// Tee fans events out to every non-Nop trace in ts. It returns Nop when no
// real trace remains, and the trace itself when exactly one does.
func Tee(ts ...Trace) Trace {
	var real []Trace
	for _, t := range ts {
		if t == nil || t == Nop {
			continue
		}
		real = append(real, t)
	}
	switch len(real) {
	case 0:
		return Nop
	case 1:
		return real[0]
	}
	return multiTrace(real)
}

type multiTrace []Trace

func (m multiTrace) StageStart(s Stage) {
	for _, t := range m {
		t.StageStart(s)
	}
}

func (m multiTrace) StageEnd(s Stage, d time.Duration) {
	for _, t := range m {
		t.StageEnd(s, d)
	}
}

func (m multiTrace) Add(c Counter, n int64) {
	for _, t := range m {
		t.Add(c, n)
	}
}

// StageEvent is one completed stage as seen by a Recorder.
type StageEvent struct {
	Stage    Stage
	Duration time.Duration
}

// Recorder is a Trace that accumulates completed stage events and counter
// totals in memory. It is safe for concurrent use. The zero value is not
// usable; call NewRecorder.
type Recorder struct {
	mu       sync.Mutex
	events   []StageEvent
	counters map[Counter]int64
	active   map[Stage]int
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		counters: make(map[Counter]int64),
		active:   make(map[Stage]int),
	}
}

// StageStart implements Trace.
func (r *Recorder) StageStart(s Stage) {
	r.mu.Lock()
	r.active[s]++
	r.mu.Unlock()
}

// StageEnd implements Trace: the completed stage is appended to the event
// sequence (events are therefore ordered by completion time, so nested
// stages precede their enclosing umbrella stage).
func (r *Recorder) StageEnd(s Stage, d time.Duration) {
	r.mu.Lock()
	if r.active[s] > 0 {
		r.active[s]--
	}
	r.events = append(r.events, StageEvent{Stage: s, Duration: d})
	r.mu.Unlock()
}

// Add implements Trace.
func (r *Recorder) Add(c Counter, n int64) {
	r.mu.Lock()
	r.counters[c] += n
	r.mu.Unlock()
}

// Events returns a copy of the completed stage events in completion order.
func (r *Recorder) Events() []StageEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]StageEvent(nil), r.events...)
}

// Stages returns the completed stage names in completion order.
func (r *Recorder) Stages() []Stage {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Stage, len(r.events))
	for i, e := range r.events {
		out[i] = e.Stage
	}
	return out
}

// Duration returns the total recorded duration of stage s (summed over all
// completed occurrences, e.g. one StageFine per lazy-sampled cluster).
func (r *Recorder) Duration(s Stage) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total time.Duration
	for _, e := range r.events {
		if e.Stage == s {
			total += e.Duration
		}
	}
	return total
}

// Total returns the accumulated value of counter c.
func (r *Recorder) Total(c Counter) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[c]
}

// Counters returns a copy of all counter totals.
func (r *Recorder) Counters() map[Counter]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[Counter]int64, len(r.counters))
	for c, n := range r.counters {
		out[c] = n
	}
	return out
}

// LogTrace is a ready-made Trace that writes human-readable stage lines to
// an io.Writer (nesting shown by indentation) and accumulates counters for
// a final WriteSummary. It is safe for concurrent use.
type LogTrace struct {
	mu       sync.Mutex
	w        io.Writer
	depth    int
	counters map[Counter]int64
}

// NewLogTrace returns a LogTrace writing to w.
func NewLogTrace(w io.Writer) *LogTrace {
	return &LogTrace{w: w, counters: make(map[Counter]int64)}
}

// StageStart implements Trace.
func (l *LogTrace) StageStart(s Stage) {
	l.mu.Lock()
	fmt.Fprintf(l.w, "[trace] %*s> %s\n", 2*l.depth, "", s)
	l.depth++
	l.mu.Unlock()
}

// StageEnd implements Trace.
func (l *LogTrace) StageEnd(s Stage, d time.Duration) {
	l.mu.Lock()
	if l.depth > 0 {
		l.depth--
	}
	fmt.Fprintf(l.w, "[trace] %*s< %s (%v)\n", 2*l.depth, "", s, d.Round(time.Microsecond))
	l.mu.Unlock()
}

// Add implements Trace.
func (l *LogTrace) Add(c Counter, n int64) {
	l.mu.Lock()
	l.counters[c] += n
	l.mu.Unlock()
}

// WriteSummary writes the accumulated counter totals, one per line in
// name order.
func (l *LogTrace) WriteSummary() {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.counters))
	for c := range l.counters {
		names = append(names, string(c))
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(l.w, "[trace] counter %s = %d\n", name, l.counters[Counter(name)])
	}
}
