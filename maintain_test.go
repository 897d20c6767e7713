package catapult

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
)

func testMaintainer(t *testing.T) *Maintainer {
	t.Helper()
	db := dataset.AIDSLike(30, 15)
	m, err := NewMaintainerCtx(context.Background(), db, Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 5, Gamma: 5},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 8, MinSupport: 0.2},
		Seed:       17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A failed insert must leave the db/clusters/csgs/patterns quadruple exactly
// as it was: the maintainer keeps serving the last-good pattern set and the
// batch lands on the retry queue.
func TestMaintainerTransactionalRollback(t *testing.T) {
	m := testMaintainer(t)

	dbBefore := m.db
	patternsBefore := m.patterns
	csgsSnap := m.csgs
	clustersBefore := make([][]int, len(m.clusters))
	for i, c := range m.clusters {
		clustersBefore[i] = append([]int(nil), c...)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	extra := dataset.AIDSLike(5, 99)
	if _, err := m.AddGraphsCtx(cancelled, extra.Graphs); err == nil {
		t.Fatal("insert under cancelled context succeeded, want error")
	}

	if m.db != dbBefore {
		t.Error("db swapped despite failed insert")
	}
	if len(m.patterns) != len(patternsBefore) {
		t.Fatalf("pattern count changed: %d -> %d", len(patternsBefore), len(m.patterns))
	}
	for i := range m.patterns {
		if m.patterns[i] != patternsBefore[i] {
			t.Errorf("pattern %d replaced despite failed insert", i)
		}
	}
	if len(m.clusters) != len(clustersBefore) {
		t.Fatalf("cluster count changed: %d -> %d", len(clustersBefore), len(m.clusters))
	}
	for i := range m.clusters {
		if len(m.clusters[i]) != len(clustersBefore[i]) {
			t.Errorf("cluster %d membership changed", i)
			continue
		}
		for j := range m.clusters[i] {
			if m.clusters[i][j] != clustersBefore[i][j] {
				t.Errorf("cluster %d member %d changed", i, j)
			}
		}
	}
	for i := range m.csgs {
		if m.csgs[i] != csgsSnap[i] {
			t.Errorf("csg %d replaced despite failed insert", i)
		}
	}

	if m.Pending() != 5 {
		t.Errorf("Pending() = %d, want 5", m.Pending())
	}
	if m.LastErr() == nil {
		t.Error("LastErr() nil after failed insert")
	}
	if m.NextRetry().IsZero() {
		t.Error("NextRetry() zero after failed insert")
	}

	// The queued batch is folded into the next successful refresh.
	if _, err := m.AddGraphsCtx(context.Background(), nil); err != nil {
		t.Fatalf("retrying queued batch: %v", err)
	}
	if m.DB().Len() != 35 {
		t.Errorf("db size after recovery = %d, want 35", m.DB().Len())
	}
	if m.Pending() != 0 || m.LastErr() != nil || !m.NextRetry().IsZero() {
		t.Errorf("retry state not cleared: pending=%d lastErr=%v nextRetry=%v",
			m.Pending(), m.LastErr(), m.NextRetry())
	}
	if len(m.Patterns()) == 0 {
		t.Error("patterns lost after recovered insert")
	}
}

// Consecutive failures double the backoff delay up to the cap, RetryCtx
// refuses to run inside the window, and a successful retry resets the state.
func TestMaintainerRetryBackoff(t *testing.T) {
	m := testMaintainer(t)
	cur := time.Unix(1000, 0)
	m.now = func() time.Time { return cur }

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	extra := dataset.AIDSLike(5, 99)

	if _, err := m.AddGraphsCtx(cancelled, extra.Graphs); err == nil {
		t.Fatal("want failure under cancelled context")
	}
	if got, want := m.NextRetry().Sub(cur), retryBaseDelay; got != want {
		t.Errorf("first backoff = %v, want %v", got, want)
	}

	// Not due yet: RetryCtx must refuse without touching state.
	if _, err := m.RetryCtx(context.Background()); !errors.Is(err, ErrRetryNotDue) {
		t.Fatalf("RetryCtx inside window: err = %v, want ErrRetryNotDue", err)
	}
	if m.Pending() != 5 {
		t.Errorf("Pending() = %d after refused retry, want 5", m.Pending())
	}

	// Due, but the retry itself fails again: delay doubles and the batch is
	// not duplicated.
	cur = cur.Add(retryBaseDelay)
	if _, err := m.RetryCtx(cancelled); err == nil {
		t.Fatal("want failure on retry under cancelled context")
	}
	if got, want := m.NextRetry().Sub(cur), 2*retryBaseDelay; got != want {
		t.Errorf("second backoff = %v, want %v", got, want)
	}
	if m.Pending() != 5 {
		t.Errorf("Pending() = %d after failed retry, want 5 (batch duplicated?)", m.Pending())
	}

	// Due again, valid context: the refresh lands.
	cur = cur.Add(2 * retryBaseDelay)
	if _, err := m.RetryCtx(context.Background()); err != nil {
		t.Fatalf("due retry failed: %v", err)
	}
	if m.DB().Len() != 35 {
		t.Errorf("db size after retry = %d, want 35", m.DB().Len())
	}
	if m.Pending() != 0 || m.failures != 0 {
		t.Errorf("retry state not reset: pending=%d failures=%d", m.Pending(), m.failures)
	}
}

// TestMaintainerRetryBackoffFullSchedule drives the fake clock through the
// entire capped-exponential ladder, failure by failure, pinning three
// deterministic properties at every rung k:
//
//  1. the scheduled delay is exactly min(retryBaseDelay·2^(k-1),
//     retryMaxDelay) — the cap engages at the precise rung the doubling
//     crosses it, never earlier;
//  2. one nanosecond before the deadline RetryCtx still refuses with
//     ErrRetryNotDue and leaves the retry state untouched;
//  3. exactly at the deadline the retry is due (the window is closed-open:
//     due means now >= nextRetry, not now > nextRetry).
//
// A successful retry at the top of the ladder must then reset it: the next
// failure starts over at retryBaseDelay.
func TestMaintainerRetryBackoffFullSchedule(t *testing.T) {
	m := testMaintainer(t)
	cur := time.Unix(1_700_000_000, 0)
	m.now = func() time.Time { return cur }

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	extra := dataset.AIDSLike(2, 5)
	if _, err := m.AddGraphsCtx(cancelled, extra.Graphs); err == nil {
		t.Fatal("want failure under cancelled context")
	}

	const rungs = 25 // well past the rung where the cap engages (k=10)
	for k := 1; k <= rungs; k++ {
		want := retryBaseDelay << (k - 1)
		if want > retryMaxDelay {
			want = retryMaxDelay
		}
		if got := m.NextRetry().Sub(cur); got != want {
			t.Fatalf("rung %d: backoff = %v, want %v", k, got, want)
		}
		if m.failures != k {
			t.Fatalf("rung %d: failures = %d", k, m.failures)
		}

		// 1ns before the deadline: still refused, nothing disturbed.
		pendingBefore, nextBefore := m.Pending(), m.NextRetry()
		cur = nextBefore.Add(-time.Nanosecond)
		if _, err := m.RetryCtx(cancelled); !errors.Is(err, ErrRetryNotDue) {
			t.Fatalf("rung %d, 1ns early: err = %v, want ErrRetryNotDue", k, err)
		}
		if m.Pending() != pendingBefore || !m.NextRetry().Equal(nextBefore) || m.failures != k {
			t.Fatalf("rung %d: refused retry disturbed state", k)
		}

		// Exactly at the deadline: due. The attempt runs (and fails again,
		// climbing to the next rung).
		cur = nextBefore
		if _, err := m.RetryCtx(cancelled); err == nil || errors.Is(err, ErrRetryNotDue) {
			t.Fatalf("rung %d, at deadline: err = %v, want a real attempt failure", k, err)
		}
	}

	// Recovery at the top of the ladder: the queued batch lands and the
	// schedule resets to the base delay on the next failure.
	cur = m.NextRetry()
	if _, err := m.RetryCtx(context.Background()); err != nil {
		t.Fatalf("recovery retry: %v", err)
	}
	if m.DB().Len() != 32 || m.Pending() != 0 || m.failures != 0 {
		t.Fatalf("recovery did not land/reset: len=%d pending=%d failures=%d",
			m.DB().Len(), m.Pending(), m.failures)
	}
	if _, err := m.AddGraphsCtx(cancelled, dataset.AIDSLike(1, 6).Graphs); err == nil {
		t.Fatal("want failure under cancelled context")
	}
	if got := m.NextRetry().Sub(cur); got != retryBaseDelay {
		t.Errorf("post-recovery backoff = %v, want base %v (ladder not reset)", got, retryBaseDelay)
	}
}

func TestMaintainerBackoffCapped(t *testing.T) {
	m := testMaintainer(t)
	cur := time.Unix(2000, 0)
	m.now = func() time.Time { return cur }

	// Simulate many consecutive failures; the delay must never exceed the
	// cap and must never overflow into a non-positive duration.
	for i := 0; i < 40; i++ {
		m.queueFailed(nil, context.Canceled)
		d := m.NextRetry().Sub(cur)
		if d <= 0 || d > retryMaxDelay {
			t.Fatalf("failure %d: backoff %v out of (0, %v]", i+1, d, retryMaxDelay)
		}
	}
	if got := m.NextRetry().Sub(cur); got != retryMaxDelay {
		t.Errorf("backoff after 40 failures = %v, want cap %v", got, retryMaxDelay)
	}
}

// A Maintainer configured without a budget refreshes under the default
// budget its cold mine used, whichever constructor built it.
func TestMaintainerDefaultBudget(t *testing.T) {
	cfg := Config{Seed: 42}
	mined, err := NewMaintainerCtx(context.Background(), dataset.EMolLike(25, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewMaintainerFromState(mined.SnapshotState(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range []*Maintainer{mined, warm} {
		if _, err := m.AddGraphsCtx(context.Background(), dataset.EMolLike(5, 99).Graphs); err != nil {
			t.Fatalf("maintainer %d: refresh: %v", i, err)
		}
		if m.Pending() != 0 || len(m.Patterns()) == 0 {
			t.Fatalf("maintainer %d: %d graphs pending, %d patterns", i, m.Pending(), len(m.Patterns()))
		}
		for _, p := range m.Patterns() {
			if p.Size() < 3 || p.Size() > 12 {
				t.Errorf("maintainer %d: pattern size %d outside the default budget", i, p.Size())
			}
		}
	}
}
