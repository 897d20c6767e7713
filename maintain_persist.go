package catapult

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
)

// This file wires the CSNAP1 snapshot store (internal/store) through the
// Maintainer and the facade: EnablePersistence makes every committed
// refresh — and every failure-queue transition — durable, and
// NewMaintainerFromState warm-starts a maintainer from a recovered
// snapshot in milliseconds instead of re-running the mining pipeline.
//
// Persistence is deliberately decoupled from refresh transactionality: a
// refresh that committed in memory is never un-committed because its
// snapshot write failed. Persist failures are recorded (LastPersistErr,
// catapult_store_persist_failures) and the next state transition retries;
// the on-disk state is then simply one generation stale, which recovery
// handles by design.

// EnablePersistence opens (creating if needed) a CSNAP1 snapshot store in
// dir and persists the maintainer's current state immediately, so a warm
// restart is possible even before the first refresh. Afterwards every
// committed refresh and every retry-queue transition writes a new
// generation. Call at most once, before the maintainer is shared with a
// serving layer.
func (m *Maintainer) EnablePersistence(dir string) error {
	s, err := store.Open(dir)
	if err != nil {
		return err
	}
	m.store = s
	m.wireStoreMetrics()
	return m.persist(context.Background())
}

// PersistNow synchronously flushes the current state as a new snapshot
// generation — the graceful-shutdown hook. It returns the committed
// generation, or an error when persistence is not enabled or the write
// failed. Safe to call concurrently with serving-layer refreshes (it
// takes the same lock the ServeSource adapter serializes on).
func (m *Maintainer) PersistNow(ctx context.Context) (uint64, error) {
	if m.store == nil {
		return 0, errors.New("catapult: persistence not enabled")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.persist(ctx); err != nil {
		return 0, err
	}
	return m.lastGen, nil
}

// StateVersion returns the maintainer's monotone state version: 1 after
// construction, +1 per committed refresh. Warm starts resume from the
// persisted version.
func (m *Maintainer) StateVersion() uint64 { return m.version }

// LastPersistErr returns the error of the most recent snapshot write, or
// nil when it succeeded (or persistence is disabled). A non-nil value
// means the on-disk state is stale by at least one transition.
func (m *Maintainer) LastPersistErr() error { return m.lastPersist }

// SnapshotState captures the maintainer's full durable state — database,
// patterns, clusters, retry bookkeeping — as a StoredState: everything a
// warm start reads, and nothing derived from it (cluster summaries and
// search indexes are rebuilt on demand). SavedAt is left zero;
// persistence stamps it at write time.
func (m *Maintainer) SnapshotState() *StoredState {
	pats := make([]StoredPattern, len(m.patterns))
	for i, p := range m.patterns {
		pats[i] = StoredPattern{
			G: p.Graph, Score: p.Score, Ccov: p.Ccov, Lcov: p.Lcov,
			Div: p.Div, Cog: p.Cog, SourceCSG: p.SourceCSG,
		}
	}
	st := &StoredState{
		Dataset:   m.db.Name,
		Version:   m.version,
		Graphs:    m.db.Graphs,
		Patterns:  pats,
		Clusters:  m.clusters,
		Pending:   m.pending,
		Failures:  m.failures,
		NextRetry: m.nextRetry,
	}
	if m.lastErr != nil {
		st.LastErr = m.lastErr.Error()
	}
	return st
}

// persist writes the current state as the next snapshot generation,
// best-effort: the caller's context is stripped of cancellation (a
// refresh that failed *because* of cancellation must still persist its
// queued batch) but keeps its values, so pipeline traces and the chaos
// injector still see the write. No-op when persistence is disabled.
func (m *Maintainer) persist(stdctx context.Context) error {
	if m.store == nil {
		return nil
	}
	st := m.SnapshotState()
	st.SavedAt = m.now()
	start := time.Now()
	gen, err := m.store.WriteCtx(context.WithoutCancel(stdctx), st)
	m.lastPersist = err
	if err != nil {
		if m.sm != nil {
			m.sm.persistFailures.Inc()
		}
		return err
	}
	m.lastGen = gen
	if m.sm != nil {
		m.sm.persists.Inc()
		m.sm.generation.Set(float64(gen))
		m.sm.persistDur.Observe(time.Since(start).Seconds())
	}
	return nil
}

// storeMetrics are the persistence-side catapult_store_* series,
// registered once both EnableMetrics and EnablePersistence have run.
type storeMetrics struct {
	generation      metrics.Gauge     // newest committed snapshot generation
	persists        metrics.Counter   // committed snapshot writes
	persistFailures metrics.Counter   // failed snapshot writes (state stale on disk)
	persistDur      metrics.Histogram // persist duration distribution
}

// wireStoreMetrics registers the store series when both a registry and a
// store are present; called from EnableMetrics and EnablePersistence so
// either order works.
func (m *Maintainer) wireStoreMetrics() {
	if m.sm != nil || m.reg == nil || m.store == nil {
		return
	}
	m.sm = &storeMetrics{
		generation:      m.reg.Gauge("catapult_store_generation", "Newest committed snapshot generation in the state store."),
		persists:        m.reg.Counter("catapult_store_persists", "Committed snapshot writes (atomic rename + fsync)."),
		persistFailures: m.reg.Counter("catapult_store_persist_failures", "Failed snapshot writes; the on-disk state is stale until the next state transition retries."),
		persistDur:      m.reg.Histogram("catapult_store_persist_duration_seconds", "Distribution of snapshot persist durations (encode + durable write).", nil),
	}
}

// ObserveRecovery records a recovery scan's outcome on a metrics
// registry: catapult_store_recovery_total{outcome=clean|degraded|cold|
// failed}, the recovered generation, and how many generations were
// skipped as unverifiable. Call it with the RecoveryInfo from LoadState
// (or SnapshotStore.Recover) before serving traffic, so readiness and
// degraded starts are visible to scrapes.
func ObserveRecovery(m *Metrics, info *StoreRecovery) {
	if m == nil || info == nil {
		return
	}
	m.CounterVec("catapult_store_recovery",
		"Recovery scans by outcome: clean, degraded (fell back past corruption), cold (no snapshot), failed (nothing verifiable).",
		"outcome").With(info.Outcome()).Inc()
	m.Gauge("catapult_store_recovered_generation",
		"Snapshot generation loaded by the most recent recovery (0 when none).").
		Set(float64(info.Generation))
	m.Gauge("catapult_store_recovery_skipped_generations",
		"Generations the most recent recovery skipped as unverifiable.").
		Set(float64(len(info.Skipped)))
}

// SaveState writes st as the next snapshot generation in dir, creating
// the store as needed, and returns the committed generation number. The
// write is atomic and durable (temp file, fsync, rename, directory
// fsync).
func SaveState(ctx context.Context, dir string, st *StoredState) (uint64, error) {
	s, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	return s.WriteCtx(ctx, st)
}

// LoadState recovers the newest verifiable snapshot from dir, scanning
// generations newest-first and falling back past corruption. It returns
// the recovered state together with the scan report; when nothing
// verifies the error is ErrNoSnapshot and the report tells a clean cold
// start (Outcome "cold") apart from a degraded one ("failed").
func LoadState(dir string) (*StoredState, *StoreRecovery, error) {
	s, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	return s.Recover()
}

// NewMaintainerFromState warm-starts a maintainer from a recovered
// snapshot: the database is re-frozen (CSR arrays and interner warmed),
// the pattern set, cluster membership and retry bookkeeping resume
// exactly where the snapshot left them, and a batch that was queued
// before the crash is re-queued exactly once, at its persisted backoff
// ladder position. Cluster summary graphs are rebuilt lazily on the
// first refresh — they are derived state, cheap relative to mining.
//
// No pipeline run happens: construction is decode + freeze, which is
// what makes a service restart in milliseconds instead of a re-mine
// (make bench-gate-restart gates the ratio).
func NewMaintainerFromState(st *StoredState, cfg Config) (*Maintainer, error) {
	if st == nil {
		return nil, errors.New("catapult: nil stored state")
	}
	if len(st.Graphs) == 0 {
		return nil, errors.New("catapult: stored state has no graphs")
	}
	for ci, members := range st.Clusters {
		for _, g := range members {
			if g < 0 || g >= len(st.Graphs) {
				return nil, fmt.Errorf("catapult: stored cluster %d references missing graph %d", ci, g)
			}
		}
	}
	db := st.DB()
	db.Freeze()
	pats := make([]*core.Pattern, len(st.Patterns))
	for i := range st.Patterns {
		p := st.Patterns[i]
		pats[i] = &core.Pattern{
			Graph: p.G, Score: p.Score, Ccov: p.Ccov, Lcov: p.Lcov,
			Div: p.Div, Cog: p.Cog, SourceCSG: p.SourceCSG,
		}
	}
	m := &Maintainer{
		cfg:       refreshConfig(cfg),
		db:        db,
		clusters:  st.Clusters,
		patterns:  pats,
		pending:   st.Pending,
		failures:  st.Failures,
		nextRetry: st.NextRetry,
		now:       time.Now,
		version:   st.Version,
	}
	if st.LastErr != "" {
		m.lastErr = errors.New(st.LastErr)
	}
	return m, nil
}
