package metrics

import (
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
)

// Metric and label names exported by Trace. Kept as constants so serving
// surfaces and tests reference one spelling.
const (
	MetricStageDuration = "catapult_stage_duration_seconds"
	MetricStageActive   = "catapult_stage_active"
	MetricStageRuns     = "catapult_stage_runs"
	MetricPipelineEvent = "catapult_pipeline_events"
	MetricDegradation   = "catapult_degradation_events"
	MetricCoverRatio    = "catapult_cover_cache_hit_ratio"
	MetricSimRatio      = "catapult_simcache_hit_ratio"

	// LabelStage / LabelCounter / LabelReason are the label names used by
	// the families above.
	LabelStage   = "stage"
	LabelCounter = "counter"
	LabelReason  = "reason"
)

// Trace adapts a Registry to pipeline.Trace: installing it on a pipeline
// context (directly, or via catapult.Config.Observer) lands every stage
// span and counter delta in the registry for free —
//
//   - StageEnd durations feed per-stage latency histograms
//     (catapult_stage_duration_seconds{stage=...}) and completion counters,
//   - StageStart/StageEnd pairs maintain an in-flight gauge per stage,
//   - Add deltas feed catapult_pipeline_events_total{counter=...}
//     (VF2/MCS/GED calls, candidate statistics, cache traffic),
//   - cover/simcache hit+miss traffic additionally maintains the derived
//     hit-ratio gauges, and
//   - degrade_-prefixed counters (resilience) feed
//     catapult_degradation_events_total{reason=...}.
//
// Trace is safe for concurrent use and adds only atomic operations per
// event, so it can stay installed on production runs.
type Trace struct {
	durations HistogramVec
	active    GaugeVec
	runs      CounterVec
	events    CounterVec
	degrade   CounterVec

	coverRatio Gauge
	simRatio   Gauge

	coverHits, coverMisses atomic.Int64
	simHits, simMisses     atomic.Int64
}

// NewTrace registers the pipeline metric families on r and returns the
// adapter. Multiple NewTrace calls on one registry share the same families,
// so several concurrent pipeline runs aggregate into one scrape surface.
func NewTrace(r *Registry) *Trace {
	return &Trace{
		durations: r.HistogramVec(MetricStageDuration,
			"Wall-clock duration of pipeline stage executions. Nested stages overlap their umbrella stage; do not sum across nesting levels.",
			nil, LabelStage),
		active: r.GaugeVec(MetricStageActive,
			"Pipeline stage executions currently in flight.", LabelStage),
		runs: r.CounterVec(MetricStageRuns,
			"Completed pipeline stage executions.", LabelStage),
		events: r.CounterVec(MetricPipelineEvent,
			"Pipeline counter totals (VF2/MCS/GED calls, candidates, cache traffic).", LabelCounter),
		degrade: r.CounterVec(MetricDegradation,
			"Resilience degradation events by reason (anytime fallbacks, contained faults).", LabelReason),
		coverRatio: r.Gauge(MetricCoverRatio,
			"Coverage-engine memo hit ratio: hits / (hits + misses) since process start."),
		simRatio: r.Gauge(MetricSimRatio,
			"Similarity-cache memo hit ratio: hits / (hits + misses) since process start."),
	}
}

// StageStart implements pipeline.Trace.
func (t *Trace) StageStart(s pipeline.Stage) {
	t.active.With(string(s)).Add(1)
}

// StageEnd implements pipeline.Trace.
func (t *Trace) StageEnd(s pipeline.Stage, d time.Duration) {
	t.active.With(string(s)).Add(-1)
	t.runs.With(string(s)).Inc()
	t.durations.With(string(s)).Observe(d.Seconds())
}

// Add implements pipeline.Trace.
func (t *Trace) Add(c pipeline.Counter, n int64) {
	name := string(c)
	// Degradation events (emitted by internal/resilience on the context
	// tracer) go to MetricDegradation{reason=...} without their prefix,
	// not to the generic pipeline-event family.
	if strings.HasPrefix(name, pipeline.DegradeCounterPrefix) {
		t.degrade.With(strings.TrimPrefix(name, pipeline.DegradeCounterPrefix)).Add(float64(n))
		return
	}
	t.events.With(name).Add(float64(n))
	switch c {
	case pipeline.CounterCoverHits:
		t.coverHits.Add(n)
		t.setRatio(t.coverRatio, &t.coverHits, &t.coverMisses)
	case pipeline.CounterCoverMisses:
		t.coverMisses.Add(n)
		t.setRatio(t.coverRatio, &t.coverHits, &t.coverMisses)
	case pipeline.CounterSimHits:
		t.simHits.Add(n)
		t.setRatio(t.simRatio, &t.simHits, &t.simMisses)
	case pipeline.CounterSimMisses:
		t.simMisses.Add(n)
		t.setRatio(t.simRatio, &t.simHits, &t.simMisses)
	}
}

func (t *Trace) setRatio(g Gauge, hits, misses *atomic.Int64) {
	h, m := hits.Load(), misses.Load()
	if h+m > 0 {
		g.Set(float64(h) / float64(h+m))
	}
}

var _ pipeline.Trace = (*Trace)(nil)
