package catapult

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/csg"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/store"
)

// ErrRetryNotDue is returned by RetryCtx when a failed refresh is queued but
// its backoff window has not elapsed yet.
var ErrRetryNotDue = errors.New("catapult: queued refresh not due yet")

// Backoff bounds for failed incremental refreshes: the first retry is
// allowed after retryBaseDelay, doubling per consecutive failure up to
// retryMaxDelay.
const (
	retryBaseDelay = 100 * time.Millisecond
	retryMaxDelay  = 30 * time.Second
)

// Maintainer supports incremental maintenance of canned patterns as the
// underlying database evolves — the extension the paper sketches in Sec 1
// ("it can be extended to support incremental maintenance of canned
// patterns as the underlying data graphs evolve"). New graphs are assigned
// to the existing cluster whose summary shares the most edge-label mass
// with them (a cheap proxy for MCCS similarity); only the affected CSGs are
// rebuilt, and pattern selection — the cheap phase relative to clustering —
// is rerun, reusing the containment verdicts of the previous refresh for
// the summaries that did not change. A cluster that outgrows the fine
// clustering bound N is split by fine clustering; there is no full
// reclustering.
//
// Updates are transactional: AddGraphsCtx builds the new database,
// clustering, summaries and pattern set on copies and swaps them in only
// when every step succeeded. A failed or cancelled refresh therefore never
// leaves a partially-updated clusters/csgs/patterns triple — the maintainer
// keeps serving the last-good pattern set, the failed batch is queued, and
// RetryCtx retries it under capped exponential backoff.
type Maintainer struct {
	cfg      Config
	db       *graph.DB
	clusters [][]int
	csgs     []*csg.CSG
	patterns []*core.Pattern

	// cover is the coverage engine of the last committed refresh,
	// detached from its own predecessor. The next refresh's engine
	// carries its containment verdicts for the CSG graphs both share, so
	// at most two refreshes' memos are ever live. Nil after construction
	// and warm start: the first refresh is cold.
	cover *cover.Engine

	// version counts committed states monotonically: 1 after
	// construction, +1 per committed refresh. It is stamped into every
	// persisted snapshot and resumed on warm start.
	version uint64

	// mu serializes compound state transitions when the maintainer is
	// shared: the ServeSource adapter's State/Refresh calls and
	// PersistNow's shutdown flush all take it. Direct single-goroutine
	// use (the original contract) needs no locking.
	mu sync.Mutex

	// Retry state for failed refreshes.
	pending   []*graph.Graph
	failures  int
	nextRetry time.Time
	lastErr   error

	now func() time.Time // injectable for backoff tests

	// m holds the operational gauges when EnableMetrics was called, nil
	// otherwise. Gauges are updated at state transitions (refresh commit,
	// failure queue, retry-state clear), so a concurrent scrape only ever
	// touches atomics.
	m   *maintainerMetrics
	reg *Metrics // registry m was built from, for late store-metric wiring

	// Persistence state (EnablePersistence / maintain_persist.go):
	// the snapshot store, the last committed generation, the most recent
	// persist error, and the catapult_store_* series.
	store       *store.Store
	lastGen     uint64
	lastPersist error
	sm          *storeMetrics
}

// maintainerMetrics are the Maintainer's operational series, registered by
// EnableMetrics.
type maintainerMetrics struct {
	pending     metrics.Gauge     // graphs parked on the retry queue
	nextRetry   metrics.Gauge     // unix seconds the queued batch becomes due, 0 when idle
	failures    metrics.Counter   // failed refreshes since EnableMetrics
	refreshes   metrics.Counter   // committed refreshes since EnableMetrics
	lastRefresh metrics.Gauge     // duration of the last committed refresh, seconds
	refreshDur  metrics.Histogram // distribution of committed refresh durations
	clusters    metrics.Gauge     // current cluster count
	patterns    metrics.Gauge     // current canned-pattern count
}

// EnableMetrics registers the maintainer's operational gauges on m and
// seeds them with the current state: queued batch size, next-retry time,
// refresh failure/commit counters, last-refresh duration, and the served
// cluster/pattern counts. Call once after NewMaintainerCtx; the same
// registry can also carry the pipeline metrics of the runs (see
// MetricsObserver).
func (mt *Maintainer) EnableMetrics(m *Metrics) {
	mm := &maintainerMetrics{
		pending:     m.Gauge("catapult_maintainer_pending_graphs", "Graphs queued from failed incremental refreshes, awaiting retry."),
		nextRetry:   m.Gauge("catapult_maintainer_next_retry_unix_seconds", "When the queued refresh becomes due (unix seconds; 0 when nothing is queued)."),
		failures:    m.Counter("catapult_maintainer_refresh_failures", "Failed incremental refreshes (batch parked on the retry queue)."),
		refreshes:   m.Counter("catapult_maintainer_refreshes", "Committed incremental refreshes."),
		lastRefresh: m.Gauge("catapult_maintainer_last_refresh_seconds", "Duration of the most recent committed refresh."),
		refreshDur:  m.Histogram("catapult_maintainer_refresh_duration_seconds", "Distribution of committed refresh durations.", nil),
		clusters:    m.Gauge("catapult_maintainer_clusters", "Clusters currently served."),
		patterns:    m.Gauge("catapult_maintainer_patterns", "Canned patterns currently served."),
	}
	mt.m = mm
	mt.reg = m
	mt.wireStoreMetrics()
	mm.clusters.Set(float64(len(mt.clusters)))
	mm.patterns.Set(float64(len(mt.patterns)))
	mm.pending.Set(float64(len(mt.pending)))
	if mt.nextRetry.IsZero() {
		mm.nextRetry.Set(0)
	} else {
		mm.nextRetry.Set(float64(mt.nextRetry.Unix()))
	}
}

// NewMaintainerCtx runs the full pipeline once, with cooperative
// cancellation, and returns a maintainer that can absorb subsequent
// insertions incrementally.
func NewMaintainerCtx(stdctx context.Context, db *graph.DB, cfg Config) (*Maintainer, error) {
	res, err := SelectCtx(stdctx, db, cfg)
	if err != nil {
		return nil, err
	}
	return &Maintainer{
		cfg:      refreshConfig(cfg),
		db:       res.WorkingDB,
		clusters: res.Clusters,
		csgs:     res.CSGs,
		patterns: res.Patterns,
		now:      time.Now,
		version:  1,
	}, nil
}

// refreshConfig is cfg with the defaults a Maintainer's refreshes read:
// the pattern budget and the clustering sub-config. The facade's strategy
// rule and sub-seed propagation are not applied, so refreshes split and
// reselect with the sub-seeds as configured.
func refreshConfig(cfg Config) Config {
	cfg.defaultBudget()
	cfg.Clustering = cfg.Clustering.WithDefaults()
	return cfg
}

// Patterns returns the current canned pattern set — always the last-good
// set, even after failed refreshes.
func (m *Maintainer) Patterns() []*core.Pattern { return m.patterns }

// DB returns the maintainer's current database.
func (m *Maintainer) DB() *graph.DB { return m.db }

// NumClusters returns the current cluster count.
func (m *Maintainer) NumClusters() int { return len(m.clusters) }

// Pending returns the number of graphs queued from failed refreshes.
func (m *Maintainer) Pending() int { return len(m.pending) }

// NextRetry returns when the queued refresh becomes due (zero when nothing
// is queued).
func (m *Maintainer) NextRetry() time.Time { return m.nextRetry }

// LastErr returns the error of the most recent failed refresh, or nil.
func (m *Maintainer) LastErr() error { return m.lastErr }

// AddGraphsCtx inserts new data graphs, updates clustering and CSGs
// incrementally and reselects patterns. It returns the pattern-selection
// duration. Fine splitting, CSG rebuilds and pattern reselection all check
// stdctx at their iteration boundaries.
//
// The update is transactional. On any failure — cancellation included — the
// maintainer's database, clusters, summaries and pattern set are untouched
// and keep serving queries; the batch (together with any earlier queued
// batch) is parked on the retry queue with capped exponential backoff. An
// explicit AddGraphsCtx call always attempts immediately, folding in the
// queued batch; RetryCtx honors the backoff window.
func (m *Maintainer) AddGraphsCtx(stdctx context.Context, gs []*graph.Graph) (time.Duration, error) {
	if len(gs) == 0 && len(m.pending) == 0 {
		return 0, nil
	}
	batch := append(append([]*graph.Graph(nil), m.pending...), gs...)
	pgt, err := m.tryRefresh(stdctx, batch)
	if err != nil {
		m.queueFailed(batch, err)
		// Best-effort durability of the failure transition: the queued
		// batch and its backoff ladder position survive a crash, so a
		// warm start re-queues the batch exactly once.
		m.persist(stdctx)
		return 0, err
	}
	m.clearRetryState()
	// Persist after the retry state is cleared, never between commit and
	// clear: the snapshot must not both contain the absorbed batch in the
	// database and still carry it as pending, or a warm start would
	// absorb it twice. Failures are recorded (LastPersistErr), not
	// returned — the in-memory commit already happened.
	m.persist(stdctx)
	return pgt, nil
}

// RetryCtx retries the queued batch from earlier failed refreshes. It
// returns ErrRetryNotDue while the backoff window is still open, (0, nil)
// when nothing is queued, and otherwise behaves like AddGraphsCtx of the
// queued batch.
func (m *Maintainer) RetryCtx(stdctx context.Context) (time.Duration, error) {
	if len(m.pending) == 0 {
		return 0, nil
	}
	if m.now().Before(m.nextRetry) {
		return 0, ErrRetryNotDue
	}
	return m.AddGraphsCtx(stdctx, nil)
}

func (m *Maintainer) queueFailed(batch []*graph.Graph, err error) {
	m.pending = batch
	m.failures++
	m.lastErr = err
	delay := retryBaseDelay << (m.failures - 1)
	if m.failures > 20 || delay > retryMaxDelay || delay <= 0 {
		delay = retryMaxDelay
	}
	m.nextRetry = m.now().Add(delay)
	if m.m != nil {
		m.m.failures.Inc()
		m.m.pending.Set(float64(len(m.pending)))
		m.m.nextRetry.Set(float64(m.nextRetry.Unix()))
	}
}

func (m *Maintainer) clearRetryState() {
	m.pending = nil
	m.failures = 0
	m.nextRetry = time.Time{}
	m.lastErr = nil
	if m.m != nil {
		m.m.pending.Set(0)
		m.m.nextRetry.Set(0)
	}
}

// ensureCSGs lazily rebuilds the cluster summary graphs. A warm-started
// maintainer (NewMaintainerFromState) serves patterns without them —
// they are derived state, deliberately not persisted — and only needs
// them for its first incremental refresh.
func (m *Maintainer) ensureCSGs(stdctx context.Context) error {
	if m.csgs != nil {
		return nil
	}
	csgs, err := csg.BuildAllCtx(stdctx, m.db, m.clusters)
	if err != nil {
		return err
	}
	m.csgs = csgs
	return nil
}

// tryRefresh computes the post-insert state on copies and swaps it into the
// maintainer only when every step succeeded. It reuses what the batch did
// not change: the summary of every cluster that was neither assigned a new
// graph nor split, and the containment verdicts the committed refresh's
// coverage engine established for those summaries' graphs.
func (m *Maintainer) tryRefresh(stdctx context.Context, gs []*graph.Graph) (time.Duration, error) {
	if err := m.ensureCSGs(stdctx); err != nil {
		return 0, err
	}
	base := m.db.Len()
	// Old graphs keep their index and their *graph.Graph in the new
	// database.
	all := append(append([]*graph.Graph(nil), m.db.Graphs...), gs...)
	db := graph.NewDB(m.db.Name, all)

	// Assign each new graph to its best cluster, on a copied cluster list
	// (inner slices copied on first write).
	clusters := append([][]int(nil), m.clusters...)
	dirty := make(map[int]bool)
	for i := range gs {
		gi := base + i
		ci := bestCluster(m.csgs, db.Graph(gi))
		if !dirty[ci] {
			clusters[ci] = append([]int(nil), clusters[ci]...)
			dirty[ci] = true
		}
		clusters[ci] = append(clusters[ci], gi)
	}

	// Split any cluster that outgrew N, using the configured fine
	// clustering.
	n := m.cfg.Clustering.N
	splits := func(ci int) bool { return dirty[ci] && len(clusters[ci]) > n }
	var toSplit []*cluster.Cluster
	for ci, members := range clusters {
		if splits(ci) {
			toSplit = append(toSplit, &cluster.Cluster{Members: members})
		}
	}
	var split []*cluster.Cluster
	if len(toSplit) > 0 {
		var err error
		if split, err = cluster.FineCtx(stdctx, db, toSplit, m.cfg.Clustering); err != nil {
			return 0, err
		}
	}

	// The new cluster list keeps every cluster that was not split, in
	// order, and appends the split children. A CSG depends only on its
	// member list and the member graphs, so an untouched cluster keeps its
	// summary object; the dirty clusters and the split children are built
	// in one call and placed at their indices.
	var (
		next, build [][]int
		csgs        []*csg.CSG
		at          []int // index in next of each build entry
	)
	place := func(members []int, kept *csg.CSG) {
		if kept == nil {
			at = append(at, len(next))
			build = append(build, members)
		}
		next = append(next, members)
		csgs = append(csgs, kept)
	}
	for ci, members := range clusters {
		switch {
		case splits(ci):
		case dirty[ci]:
			place(members, nil)
		default:
			place(members, m.csgs[ci])
		}
	}
	for _, c := range split {
		place(c.Members, nil)
	}
	built, err := csg.BuildAllCtx(stdctx, db, build)
	if err != nil {
		return 0, err
	}
	for k, i := range at {
		csgs[i] = built[k]
	}

	// Reselect. The new coverage engine carries the committed engine's
	// verdicts for every kept summary graph.
	start := time.Now()
	sctx := core.NewContext(db, csgs)
	sctx.CarryVerdicts(m.cover)
	sel, err := core.SelectCtx(stdctx, sctx, m.cfg.Budget, m.cfg.Selection)
	if err != nil {
		return 0, fmt.Errorf("catapult: reselect after insert: %w", err)
	}

	// Commit: every step succeeded, swap the new state in atomically. The
	// new engine is detached from the one it succeeds, which is dropped.
	m.db = db
	m.clusters = next
	m.csgs = csgs
	m.patterns = sel.Patterns
	m.cover = sctx.CoverEngine()
	m.cover.Detach()
	m.version++
	pgt := time.Since(start)
	if m.m != nil {
		m.m.refreshes.Inc()
		m.m.lastRefresh.Set(pgt.Seconds())
		m.m.refreshDur.Observe(pgt.Seconds())
		m.m.clusters.Set(float64(len(m.clusters)))
		m.m.patterns.Set(float64(len(m.patterns)))
	}
	return pgt, nil
}

// bestCluster picks the cluster whose CSG shares the most edge-label mass
// with g: Σ over g's distinct edge labels of the label's support within
// the CSG, normalized by cluster size.
func bestCluster(csgs []*csg.CSG, g *graph.Graph) int {
	glabels := make(map[string]struct{})
	for _, e := range g.Edges() {
		glabels[g.EdgeLabel(e.U, e.V)] = struct{}{}
	}
	best, bestScore := 0, -1.0
	for ci, c := range csgs {
		score := 0.0
		for e, ids := range c.EdgeGraphs {
			l := c.G.EdgeLabel(e.U, e.V)
			if _, ok := glabels[l]; ok {
				score += float64(ids.Len())
			}
		}
		score /= float64(len(c.Members) + 1)
		if score > bestScore || (score == bestScore && ci < best) {
			best, bestScore = ci, score
		}
	}
	return best
}
