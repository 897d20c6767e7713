package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

// testState builds a representative state: a small database with explicit
// edge labels, scored patterns, clusters and queued maintainer
// bookkeeping — every section non-trivially populated.
func testState(seed int) *State {
	mk := func(id, n int, label string) *graph.Graph {
		g := graph.New(n, n)
		for i := 0; i < n; i++ {
			g.AddVertex(label)
		}
		for i := 1; i < n; i++ {
			g.MustAddEdge(graph.VertexID(i-1), graph.VertexID(i))
		}
		if n >= 3 {
			g.MustAddEdge(0, graph.VertexID(n-1))
			if err := g.SetEdgeLabel(0, graph.VertexID(n-1), "bond-"+label); err != nil {
				panic(err)
			}
		}
		g.ID = id
		return g
	}
	labels := []string{"C", "N", "O", "S"}
	var gs []*graph.Graph
	for i := 0; i < 6+seed%3; i++ {
		gs = append(gs, mk(i, 3+i%4, labels[i%len(labels)]))
	}
	return &State{
		Dataset: "testdb",
		Version: uint64(7 + seed),
		SavedAt: time.Unix(1700000000, 123456789),
		Graphs:  gs,
		Patterns: []Pattern{
			{G: mk(0, 3, "C"), Score: 0.75, Ccov: 0.5, Lcov: 0.25, Div: 1, Cog: 1.5, SourceCSG: 0},
			{G: mk(1, 4, "N"), Score: 0.0625, Ccov: 0.125, Lcov: 0.0315, Div: 3.000000001, Cog: 2.25, SourceCSG: 2},
		},
		Clusters:  [][]int{{0, 2, 4}, {1, 3}, {5}},
		Pending:   []*graph.Graph{mk(0, 5, "O")},
		Failures:  3,
		NextRetry: time.Unix(1700000100, 42),
		LastErr:   "reselect after insert: injected",
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, err := Encode(testState(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(testState(0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodes of the same state differ")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := testState(1)
	data, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-identity: re-encoding the decoded state reproduces the bytes.
	data2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("decode→encode round trip is not bit-identical")
	}
	// Spot-check fields the byte comparison could theoretically alias.
	if got.Dataset != st.Dataset || got.Version != st.Version {
		t.Fatalf("meta mismatch: %q v%d", got.Dataset, got.Version)
	}
	if !got.SavedAt.Equal(st.SavedAt) || !got.NextRetry.Equal(st.NextRetry) {
		t.Fatalf("time mismatch: %v %v", got.SavedAt, got.NextRetry)
	}
	if got.Failures != st.Failures || got.LastErr != st.LastErr {
		t.Fatalf("maintainer bookkeeping mismatch: %d %q", got.Failures, got.LastErr)
	}
	if len(got.Graphs) != len(st.Graphs) || len(got.Pending) != len(st.Pending) {
		t.Fatalf("graph counts: %d/%d", len(got.Graphs), len(got.Pending))
	}
	for i, p := range got.Patterns {
		if p.Score != st.Patterns[i].Score || p.Div != st.Patterns[i].Div || p.SourceCSG != st.Patterns[i].SourceCSG {
			t.Fatalf("pattern %d score breakdown not exact", i)
		}
	}
	var want, have bytes.Buffer
	if err := graph.Write(&want, graph.NewDB(st.Dataset, st.Graphs)); err != nil {
		t.Fatal(err)
	}
	if err := graph.Write(&have, got.DB()); err != nil {
		t.Fatal(err)
	}
	if want.String() != have.String() {
		t.Fatal("database transaction text differs after round trip (edge labels lost?)")
	}
}

func TestEqual(t *testing.T) {
	if ok, err := Equal(testState(2), testState(2)); err != nil || !ok {
		t.Fatalf("Equal(same) = %v, %v", ok, err)
	}
	other := testState(2)
	other.Version++
	if ok, err := Equal(testState(2), other); err != nil || ok {
		t.Fatalf("Equal(different) = %v, %v", ok, err)
	}
}

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	for i, content := range [][]byte{[]byte("first"), bytes.Repeat([]byte("x"), 3*writeChunk+17)} {
		if err := AtomicWriteFileCtx(context.Background(), path, content, 0o644); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("write %d: content mismatch (%d vs %d bytes)", i, len(got), len(content))
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestStoreWriteRecoverRetention(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	for i := 0; i < 5; i++ {
		st := testState(0)
		st.Version = uint64(i + 1)
		gen, err := s.WriteCtx(ctx, st)
		if err != nil {
			t.Fatal(err)
		}
		if gen != uint64(i+1) {
			t.Fatalf("generation %d, want %d", gen, i+1)
		}
	}
	gens, err := s.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != DefaultRetain || gens[0] != 3 || gens[len(gens)-1] != 5 {
		t.Fatalf("retained generations %v, want [3 4 5]", gens)
	}
	st, info, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 5 || info.Generation != 5 || info.Outcome() != "clean" {
		t.Fatalf("recovered v%d from gen %d (%s)", st.Version, info.Generation, info.Outcome())
	}
}

func TestRecoverFallsBackPastCorruption(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	stA := testState(0)
	stA.Version = 1
	if _, err := s.WriteCtx(ctx, stA); err != nil {
		t.Fatal(err)
	}
	stB := testState(0)
	stB.Version = 2
	if _, err := s.WriteCtx(ctx, stB); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the newest generation.
	path := s.Path(2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, info, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 || info.Generation != 1 || !info.Degraded || info.Outcome() != "degraded" {
		t.Fatalf("recovered v%d from gen %d (%s)", got.Version, info.Generation, info.Outcome())
	}
	if len(info.Skipped) != 1 || info.Skipped[0].Generation != 2 {
		t.Fatalf("skipped = %+v", info.Skipped)
	}
	var ce *CorruptError
	if !errors.As(info.Skipped[0].Err, &ce) {
		t.Fatalf("skip error %T is not *CorruptError: %v", info.Skipped[0].Err, info.Skipped[0].Err)
	}
	if ok, err := Equal(got, stA); err != nil || !ok {
		t.Fatalf("fallback state not bit-identical to generation 1: %v", err)
	}
}

func TestRecoverColdStart(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, info, err := s.Recover()
	if !errors.Is(err, ErrNoSnapshot) || st != nil {
		t.Fatalf("Recover on empty dir = %v, %v", st, err)
	}
	if info.Outcome() != "cold" || info.Scanned != 0 {
		t.Fatalf("info = %+v", info)
	}
}

func TestRecoverAllCorrupt(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteCtx(t.Context(), testState(0)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path(1), []byte("CSNAP1\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, info, err := s.Recover()
	if !errors.Is(err, ErrNoSnapshot) || st != nil {
		t.Fatalf("Recover = %v, %v", st, err)
	}
	if info.Outcome() != "failed" || len(info.Skipped) != 1 {
		t.Fatalf("info = %+v", info)
	}
}

func TestStaleTmpIgnoredAndPruned(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	if _, err := s.WriteCtx(ctx, testState(0)); err != nil {
		t.Fatal(err)
	}
	// A torn write leaves a temp file behind; recovery must not read it
	// and the next successful write must clean it up.
	stale := s.Path(2) + ".tmp"
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, info, err := s.Recover(); err != nil || info.Generation != 1 || info.Scanned != 1 {
		t.Fatalf("recover with stale tmp: gen %d, err %v", info.Generation, err)
	}
	if _, err := s.WriteCtx(ctx, testState(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived pruning: %v", err)
	}
}

func TestDecodeRejectsMismatchedMetaCounts(t *testing.T) {
	// Splice the GRDB section of a 2-graph state into an otherwise valid
	// snapshot that declares a different graph count: every section CRC
	// still verifies, but the cross-section count check must refuse it.
	big := testState(0)
	data, err := Encode(big)
	if err != nil {
		t.Fatal(err)
	}
	small := testState(0)
	small.Patterns = small.Patterns[:1]
	dataSmall, err := Encode(small)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := scanSections(data)
	if err != nil {
		t.Fatal(err)
	}
	secsSmall, err := scanSections(dataSmall)
	if err != nil {
		t.Fatal(err)
	}
	// Re-frame section by section: big's sections with the PATS payload
	// swapped for small's (every CRC recomputed, so framing stays valid).
	out := append([]byte(nil), data[:len(Magic)+1]...) // magic + 1-byte section count
	for i, s := range secs {
		payload := s.payload(data)
		if s.tag == tagPats {
			payload = secsSmall[i].payload(dataSmall)
		}
		out = appendSection(out, s.tag, payload)
	}
	if _, err := Decode(out); err == nil {
		t.Fatal("Decode accepted a snapshot with mismatched META counts")
	} else if !strings.Contains(err.Error(), "count mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
}
