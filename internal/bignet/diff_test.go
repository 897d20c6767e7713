package bignet

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// Differential tests for network decomposition: the partition is
// sequential and the summarizer parallel with per-region seeded RNGs, so
// Decompose must be a pure function of (network, options) —
// bit-identical across GOMAXPROCS {1, 4, default} and across repeated
// runs with the same seed. Run by `make diff-race`.

func assertSameDecomposition(t *testing.T, label string, got, want *Decomposition) {
	t.Helper()
	if !reflect.DeepEqual(got.Regions, want.Regions) {
		t.Fatalf("%s: regions diverge (%d vs %d)", label, len(got.Regions), len(want.Regions))
	}
	if got.Reps != want.Reps || len(got.DB.Graphs) != len(want.DB.Graphs) {
		t.Fatalf("%s: rep counts diverge: %d vs %d", label, got.Reps, want.Reps)
	}
	if got.DB.Name != want.DB.Name {
		t.Errorf("%s: DB name %q vs %q", label, got.DB.Name, want.DB.Name)
	}
	for i := range got.DB.Graphs {
		ga, gb := got.DB.Graphs[i], want.DB.Graphs[i]
		if ga.ID != gb.ID || ga.String() != gb.String() {
			t.Fatalf("%s: representative %d diverges:\n got:  %v\n want: %v", label, i, ga, gb)
		}
	}
}

func TestDifferentialDecomposeAcrossWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	workerCounts := []int{1, 4, prev}

	for seed := int64(1); seed <= 3; seed++ {
		f := ringFrozen(t, 500)
		opts := Options{MaxRegionEdges: 37, Reps: 3, Seed: seed}
		want, err := Decompose(context.Background(), f, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			runtime.GOMAXPROCS(w)
			got, err := Decompose(context.Background(), f, opts)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			assertSameDecomposition(t, fmt.Sprintf("seed %d workers %d", seed, w), got, want)
		}
	}
}

// TestDifferentialDecomposeRepeatability pins run-to-run determinism for
// a fixed seed, including through a binary round trip of the network
// (WriteBinary, then LoadBinaryCtx: the loader must not perturb the
// partition).
func TestDifferentialDecomposeRepeatability(t *testing.T) {
	f := ringFrozen(t, 300)
	opts := Options{MaxRegionEdges: 53, Reps: 2, Seed: 9}
	want, err := Decompose(context.Background(), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompose(context.Background(), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDecomposition(t, "rerun", got, want)

	// Round-trip the network through the binary format and decompose the
	// reloaded copy: same CSR, same decomposition.
	var buf bytes.Buffer
	if err := WriteBinary(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, _, err := LoadBinaryCtx(context.Background(), &buf, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := Decompose(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDecomposition(t, "binary round trip", got2, want)
}
