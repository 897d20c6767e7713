package catapult

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// persistentMaintainer is testMaintainer with persistence enabled in a
// fresh temp directory.
func persistentMaintainer(t *testing.T) (*Maintainer, string) {
	t.Helper()
	m := testMaintainer(t)
	dir := t.TempDir()
	if err := m.EnablePersistence(dir); err != nil {
		t.Fatal(err)
	}
	return m, dir
}

// unstamped zeroes the write-time stamp so a recovered snapshot can be
// compared bit-for-bit against a live SnapshotState (which leaves SavedAt
// zero by contract).
func unstamped(st *StoredState) *StoredState {
	st.SavedAt = time.Time{}
	return st
}

// EnablePersistence must make the state durable immediately — before any
// refresh — and every committed refresh must write the next generation,
// recoverable bit-identically.
func TestMaintainerPersistenceLifecycle(t *testing.T) {
	m, dir := persistentMaintainer(t)
	if m.lastGen != 1 || m.LastPersistErr() != nil {
		t.Fatalf("after EnablePersistence: gen=%d err=%v, want gen 1", m.lastGen, m.LastPersistErr())
	}

	st, info, err := LoadState(dir)
	if err != nil || info.Outcome() != "clean" {
		t.Fatalf("LoadState after construction: %v (%s)", err, info.Outcome())
	}
	if ok, err := store.Equal(unstamped(st), m.SnapshotState()); err != nil || !ok {
		t.Fatalf("recovered construction state not bit-identical: %v", err)
	}
	if st.Version != 1 || m.StateVersion() != 1 {
		t.Fatalf("versions = disk %d / live %d, want 1/1", st.Version, m.StateVersion())
	}

	extra := dataset.AIDSLike(4, 99)
	if _, err := m.AddGraphsCtx(context.Background(), extra.Graphs); err != nil {
		t.Fatal(err)
	}
	if m.lastGen != 2 || m.StateVersion() != 2 {
		t.Fatalf("after refresh: gen=%d version=%d, want 2/2", m.lastGen, m.StateVersion())
	}
	st, info, err = LoadState(dir)
	if err != nil || info.Generation != 2 {
		t.Fatalf("LoadState after refresh: gen %d, %v", info.Generation, err)
	}
	if ok, _ := store.Equal(unstamped(st), m.SnapshotState()); !ok {
		t.Fatal("recovered post-refresh state not bit-identical to live state")
	}
	if len(st.Graphs) != 34 {
		t.Fatalf("recovered db has %d graphs, want 34", len(st.Graphs))
	}

	// PersistNow (the shutdown flush) commits another generation even with
	// no state change.
	gen, err := m.PersistNow(context.Background())
	if err != nil || gen != 3 {
		t.Fatalf("PersistNow = %d, %v; want gen 3", gen, err)
	}
}

// snapshotSections splits CSNAP1 bytes into their framed sections (tag,
// length, payload and checksum each).
func snapshotSections(t *testing.T, snap []byte) [][]byte {
	t.Helper()
	off := len(store.Magic)
	n, w := binary.Uvarint(snap[off:])
	off += w
	var secs [][]byte
	for i := uint64(0); i < n; i++ {
		start := off
		plen, w := binary.Uvarint(snap[off+4:])
		off += 4 + w + int(plen) + 4
		secs = append(secs, snap[start:off])
	}
	if off != len(snap) {
		t.Fatalf("snapshot framing ends at byte %d of %d", off, len(snap))
	}
	return secs
}

// withIndexSection re-frames a snapshot as earlier versions wrote it: with
// a GIDX section before the final MNTR section. Its payload is the header
// of the saved gindex over db those versions wrote; the decoder skips the
// section unread.
func withIndexSection(t *testing.T, snap []byte, db *graph.DB) []byte {
	t.Helper()
	idx := bytes.NewBufferString(fmt.Sprintf("gindex 1 3 %d\n", db.Len()))
	secs := snapshotSections(t, snap)
	last := secs[len(secs)-1]
	if string(last[:4]) != "MNTR" {
		t.Fatalf("last section is %q, want MNTR", last[:4])
	}
	gidx := binary.AppendUvarint([]byte("GIDX"), uint64(idx.Len()))
	gidx = append(gidx, idx.Bytes()...)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	gidx = binary.LittleEndian.AppendUint32(gidx,
		crc32.Update(crc32.Checksum([]byte("GIDX"), castagnoli), castagnoli, idx.Bytes()))
	out := binary.AppendUvarint([]byte(store.Magic), uint64(len(secs)+1))
	for _, sec := range secs[:len(secs)-1] {
		out = append(out, sec...)
	}
	out = append(out, gidx...)
	return append(out, last...)
}

// Snapshots carry no GIDX section, and one written by an earlier version
// with it must decode to the same state, warm-start, and re-encode to the
// current format byte for byte.
func TestMaintainerWarmStartFromIndexedSnapshot(t *testing.T) {
	m := testMaintainer(t)
	st := m.SnapshotState()
	current, err := store.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range snapshotSections(t, current) {
		if string(sec[:4]) == "GIDX" {
			t.Fatal("a new snapshot carries a GIDX section")
		}
	}

	got, err := store.Decode(withIndexSection(t, current, m.DB()))
	if err != nil {
		t.Fatalf("snapshot with a GIDX section rejected: %v", err)
	}
	if re, err := store.Encode(got); err != nil || !bytes.Equal(re, current) {
		t.Fatalf("snapshot with a GIDX section does not re-encode to the current format (err %v)", err)
	}
	warm, err := NewMaintainerFromState(got, m.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := store.Equal(warm.SnapshotState(), st); err != nil || !ok {
		t.Fatalf("warm start from a snapshot with a GIDX section differs from the live state (err %v)", err)
	}
	if _, err := warm.AddGraphsCtx(context.Background(), dataset.AIDSLike(3, 7).Graphs); err != nil {
		t.Fatalf("refresh after the warm start: %v", err)
	}
}

// A warm-started maintainer must serve the persisted pattern set
// unchanged, resume the version counter, and absorb its next refresh
// normally (cluster summaries are rebuilt lazily on that first refresh).
func TestMaintainerWarmStartServesAndRefreshes(t *testing.T) {
	m, dir := persistentMaintainer(t)
	if _, err := m.AddGraphsCtx(context.Background(), dataset.AIDSLike(4, 99).Graphs); err != nil {
		t.Fatal(err)
	}

	st, _, err := LoadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewMaintainerFromState(st, m.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.StateVersion() != 2 || warm.DB().Len() != m.DB().Len() {
		t.Fatalf("warm start: version=%d len=%d, want %d/%d",
			warm.StateVersion(), warm.DB().Len(), m.StateVersion(), m.DB().Len())
	}
	if len(warm.Patterns()) != len(m.Patterns()) {
		t.Fatalf("warm start pattern count %d, want %d", len(warm.Patterns()), len(m.Patterns()))
	}
	for i, p := range warm.Patterns() {
		q := m.Patterns()[i]
		if p.Graph.String() != q.Graph.String() || p.Score != q.Score ||
			p.Ccov != q.Ccov || p.Lcov != q.Lcov || p.Div != q.Div || p.Cog != q.Cog {
			t.Fatalf("warm pattern %d differs from live pattern", i)
		}
	}

	// First refresh on the warm instance: ensureCSGs rebuilds the derived
	// summaries, then the refresh commits.
	if warm.csgs != nil {
		t.Fatal("warm start eagerly built CSGs; they should be lazy")
	}
	if _, err := warm.AddGraphsCtx(context.Background(), dataset.AIDSLike(3, 7).Graphs); err != nil {
		t.Fatalf("first refresh after warm start: %v", err)
	}
	if warm.DB().Len() != 37 || warm.StateVersion() != 3 {
		t.Fatalf("after warm refresh: len=%d version=%d, want 37/3", warm.DB().Len(), warm.StateVersion())
	}
	if len(warm.csgs) != len(warm.clusters) {
		t.Fatalf("CSGs not rebuilt: %d summaries for %d clusters", len(warm.csgs), len(warm.clusters))
	}

	// Rejects for hostile stored states stay typed errors, never panics.
	if _, err := NewMaintainerFromState(nil, m.cfg); err == nil {
		t.Error("nil stored state accepted")
	}
	if _, err := NewMaintainerFromState(&StoredState{}, m.cfg); err == nil {
		t.Error("empty stored state accepted")
	}
	bad := *st
	bad.Clusters = [][]int{{len(st.Graphs)}}
	if _, err := NewMaintainerFromState(&bad, m.cfg); err == nil {
		t.Error("out-of-range cluster member accepted")
	}
}

// A batch that was queued by a failed refresh and then lost to a crash
// must come back exactly once: the warm-started maintainer re-queues it
// at the persisted ladder position, honors the persisted deadline, and a
// successful retry absorbs it without duplication.
func TestMaintainerWarmStartPendingRequeuedExactlyOnce(t *testing.T) {
	m, dir := persistentMaintainer(t)
	cur := time.Unix(1_700_000_000, 0)
	m.now = func() time.Time { return cur }

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.AddGraphsCtx(cancelled, dataset.AIDSLike(5, 99).Graphs); err == nil {
		t.Fatal("want failure under cancelled context")
	}
	// The failure transition itself must have been persisted (the batch
	// must survive the crash we are about to simulate).
	if m.lastGen != 2 || m.LastPersistErr() != nil {
		t.Fatalf("failure transition not persisted: gen=%d err=%v", m.lastGen, m.LastPersistErr())
	}
	wantRetry := m.NextRetry()

	// "Crash": drop the maintainer, recover from disk.
	st, info, err := LoadState(dir)
	if err != nil || info.Generation != 2 {
		t.Fatalf("LoadState: gen %d, %v", info.Generation, err)
	}
	warm, err := NewMaintainerFromState(st, m.cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm.now = func() time.Time { return cur }

	if warm.Pending() != 5 {
		t.Fatalf("warm Pending() = %d, want the queued batch of 5", warm.Pending())
	}
	if warm.failures != 1 {
		t.Fatalf("warm failures = %d, want 1", warm.failures)
	}
	if !warm.NextRetry().Equal(wantRetry) {
		t.Fatalf("warm NextRetry = %v, want persisted %v", warm.NextRetry(), wantRetry)
	}
	if warm.LastErr() == nil {
		t.Fatal("warm LastErr lost")
	}

	// Still inside the backoff window: refused, nothing disturbed.
	if _, err := warm.RetryCtx(context.Background()); !errors.Is(err, ErrRetryNotDue) {
		t.Fatalf("retry inside window: %v, want ErrRetryNotDue", err)
	}
	if warm.Pending() != 5 {
		t.Fatalf("refused retry disturbed pending: %d", warm.Pending())
	}

	// Due: the batch lands exactly once.
	cur = wantRetry
	if _, err := warm.RetryCtx(context.Background()); err != nil {
		t.Fatalf("due retry after warm start: %v", err)
	}
	if warm.DB().Len() != 35 {
		t.Fatalf("db after recovery retry = %d graphs, want 35 (batch exactly once)", warm.DB().Len())
	}
	if warm.Pending() != 0 || warm.failures != 0 || !warm.NextRetry().IsZero() {
		t.Fatalf("retry state not cleared: pending=%d failures=%d", warm.Pending(), warm.failures)
	}
	// A second retry must be a no-op, not a re-absorption.
	if _, err := warm.RetryCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if warm.DB().Len() != 35 {
		t.Fatalf("idle retry duplicated the batch: %d graphs", warm.DB().Len())
	}
}

// The backoff ladder must survive a restart mid-climb: a maintainer that
// crashed at rung k resumes doubling from rung k, not from the base.
func TestMaintainerWarmStartBackoffLadderRestored(t *testing.T) {
	m, dir := persistentMaintainer(t)
	cur := time.Unix(1_700_000_000, 0)
	m.now = func() time.Time { return cur }

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.AddGraphsCtx(cancelled, dataset.AIDSLike(2, 5).Graphs); err == nil {
		t.Fatal("want failure under cancelled context")
	}
	const rungs = 3
	for k := 1; k < rungs; k++ {
		cur = m.NextRetry()
		if _, err := m.RetryCtx(cancelled); err == nil || errors.Is(err, ErrRetryNotDue) {
			t.Fatalf("rung %d: %v, want attempt failure", k, err)
		}
	}
	if m.failures != rungs {
		t.Fatalf("failures = %d, want %d", m.failures, rungs)
	}

	st, _, err := LoadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewMaintainerFromState(st, m.cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm.now = func() time.Time { return cur }
	if warm.failures != rungs || !warm.NextRetry().Equal(m.NextRetry()) {
		t.Fatalf("ladder not restored: failures=%d next=%v, want %d/%v",
			warm.failures, warm.NextRetry(), rungs, m.NextRetry())
	}

	// The next failure continues the schedule at rung+1, not at the base.
	cur = warm.NextRetry()
	if _, err := warm.RetryCtx(cancelled); err == nil || errors.Is(err, ErrRetryNotDue) {
		t.Fatalf("post-restart rung: %v, want attempt failure", err)
	}
	if got, want := warm.NextRetry().Sub(cur), retryBaseDelay<<rungs; got != want {
		t.Fatalf("post-restart backoff = %v, want rung %d delay %v", got, rungs+1, want)
	}
}

// A crash in the middle of the persist that follows a committed refresh
// must leave the previous generation recoverable bit-identically — the
// torn temp file is invisible to recovery — and the surviving process can
// simply persist again.
func TestMaintainerChaosPersistCrashMidWrite(t *testing.T) {
	m, dir := persistentMaintainer(t)
	before, _, err := LoadState(dir)
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New().PanicAfter(pipeline.CounterStoreBytes, 1, "kill persist")
	ctx := pipeline.WithTrace(context.Background(), inj)
	extra := dataset.AIDSLike(4, 99)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("persist kill did not fire")
			}
			if _, ok := r.(*faultinject.Panic); !ok {
				panic(r)
			}
		}()
		m.AddGraphsCtx(ctx, extra.Graphs)
	}()

	// The refresh committed in memory before the persist was killed; on
	// disk only generation 1 exists and it must be untouched.
	if m.StateVersion() != 2 {
		t.Fatalf("in-memory version = %d, want committed 2", m.StateVersion())
	}
	st, info, err := LoadState(dir)
	if err != nil || info.Generation != 1 || info.Outcome() != "clean" {
		t.Fatalf("recovery after mid-persist kill: gen %d (%s), %v",
			info.Generation, info.Outcome(), err)
	}
	if ok, _ := store.Equal(st, before); !ok {
		t.Fatal("previous generation damaged by the killed persist")
	}

	// The surviving process retries: the committed state becomes durable.
	if gen, err := m.PersistNow(context.Background()); err != nil || gen != 2 {
		t.Fatalf("retry persist: gen %d, %v", gen, err)
	}
	st, info, err = LoadState(dir)
	if err != nil || info.Generation != 2 {
		t.Fatalf("post-retry recovery: gen %d, %v", info.Generation, err)
	}
	if ok, _ := store.Equal(unstamped(st), m.SnapshotState()); !ok {
		t.Fatal("retried persist not bit-identical to live state")
	}
}

// Store metrics: generation gauge and persist counters appear on the
// registry once both EnableMetrics and EnablePersistence have run, in
// either order, and ObserveRecovery records the scan outcome.
func TestMaintainerStoreMetrics(t *testing.T) {
	m, dir := persistentMaintainer(t)
	reg := NewMetrics()
	m.EnableMetrics(reg) // persistence first, metrics second
	if _, err := m.PersistNow(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, info, err := LoadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	ObserveRecovery(reg, info)

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"catapult_store_generation 2",
		"catapult_store_persists_total 1",
		`catapult_store_recovery_total{outcome="clean"} 1`,
		"catapult_store_recovered_generation 2",
		"catapult_store_recovery_skipped_generations 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestDifferentialWarmRestartState pins the durability contract across
// parallelism: the snapshot a maintainer persists is byte-identical no
// matter how many workers mined it, and a warm restart re-encodes to the
// same bytes — state crosses the crash boundary bit-for-bit, at any
// GOMAXPROCS on either side.
func TestDifferentialWarmRestartState(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	db := func() *DB { return dataset.AIDSLike(20, 11) }
	cfg := Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 5, Gamma: 5},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 8, MinSupport: 0.2},
		Seed:       11,
	}

	var ref []byte
	for _, w := range []int{1, 4, prev} {
		runtime.GOMAXPROCS(w)
		m, err := NewMaintainerCtx(context.Background(), db(), cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := store.Encode(m.SnapshotState())
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = enc
		} else if !bytes.Equal(enc, ref) {
			t.Fatalf("snapshot bytes diverge at GOMAXPROCS=%d", w)
		}

		// Round-trip through disk and a warm restart at a different worker
		// count: the re-encoded state must still be the same bytes.
		dir := t.TempDir()
		if _, err := SaveState(context.Background(), dir, m.SnapshotState()); err != nil {
			t.Fatal(err)
		}
		st, _, err := LoadState(dir)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := NewMaintainerFromState(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reenc, err := store.Encode(warm.SnapshotState())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reenc, ref) {
			t.Fatalf("warm-restart re-encode diverges at GOMAXPROCS=%d", w)
		}
	}
}
