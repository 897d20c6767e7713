package treemine

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/subiso"
)

// mineT runs MineCtx under a background context, failing the test on
// error.
func mineT(tb testing.TB, db *graph.DB, opts MineOptions) []*FrequentTree {
	tb.Helper()
	trees, err := MineCtx(context.Background(), db, opts)
	if err != nil {
		tb.Fatalf("MineCtx: %v", err)
	}
	return trees
}

// recountT runs RecountCtx under a background context, failing the test
// on error.
func recountT(t *testing.T, db *graph.DB, trees []*FrequentTree, minSupport float64) []*FrequentTree {
	t.Helper()
	out, err := RecountCtx(context.Background(), db, trees, minSupport)
	if err != nil {
		t.Fatalf("RecountCtx: %v", err)
	}
	return out
}

func TestRecountVerifiesSupports(t *testing.T) {
	db := miningDB()
	// Mine on a biased "sample" (just the first two graphs) at a low
	// threshold, then recount on the full database.
	sample := graph.NewDB("sample", []*graph.Graph{db.Graph(0).Clone(), db.Graph(1).Clone()})
	mined := mineT(t, sample, MineOptions{MinSupport: 0.4, MaxEdges: 2})
	if len(mined) == 0 {
		t.Fatal("nothing mined from sample")
	}
	verified := recountT(t, db, mined, 0.5)
	for _, ft := range verified {
		if len(ft.Support) < 3 { // 0.5 × 6 = 3
			t.Errorf("tree %s survived recount with support %d", ft.Canon, len(ft.Support))
		}
		// Supports must be exact against the full database.
		for gi := 0; gi < db.Len(); gi++ {
			want := subiso.Contains(db.Graph(gi), ft.Pattern)
			got := containsIdx(ft.Support, gi)
			if want != got {
				t.Errorf("tree %s: recount support for graph %d = %v, want %v", ft.Canon, gi, got, want)
			}
		}
	}
}

func TestRecountDropsInfrequent(t *testing.T) {
	db := miningDB()
	// A tree frequent only in a sample: S-C-O path occurs in 3/6 graphs
	// (the two stars and the C-O-S path); at min 0.9 recount drops it.
	mined := mineT(t, db, MineOptions{MinSupport: 0.2, MaxEdges: 2})
	verified := recountT(t, db, mined, 0.9)
	for _, ft := range verified {
		if ft.Frequency(db.Len()) < 0.9 {
			t.Errorf("tree %s kept below threshold: %v", ft.Canon, ft.Frequency(db.Len()))
		}
	}
	if len(verified) >= len(mined) {
		t.Error("recount at a stricter threshold should drop trees")
	}
}

func TestRecountEmpty(t *testing.T) {
	db := miningDB()
	if out := recountT(t, db, nil, 0.5); len(out) != 0 {
		t.Errorf("recount of nothing returned %d trees", len(out))
	}
}
