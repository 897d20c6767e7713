package core

import (
	"context"
	"testing"

	"repro/internal/graph"
)

func TestQueryLogFrequency(t *testing.T) {
	p := pathGraph("C", "C", "C")
	log := []*graph.Graph{
		pathGraph("C", "C", "C", "C"), // contains p
		pathGraph("N", "O", "S"),      // does not
	}
	got, err := NewContext(graph.NewDB("empty", nil), nil).queryLogFrequencyCtx(context.Background(), p, log)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Errorf("qfreq = %v, want 0.5", got)
	}
}

func TestQueryLogBoostsScore(t *testing.T) {
	db, csgs := testSetup()
	ctx := NewContext(db, csgs)
	p := pathGraph("C", "C", "C", "C")
	log := []*graph.Graph{pathGraph("C", "C", "C", "C", "C")}
	base, _, _, _, _ := ctx.scoreWith(p, nil, Options{})
	boosted, _, _, _, _ := ctx.scoreWith(p, nil, Options{QueryLog: log})
	if !closeF(boosted, base*2) { // qfreq = 1 → ×(1+1)
		t.Errorf("boosted = %v, want %v", boosted, base*2)
	}
	// A pattern absent from the log gets no boost.
	unrelated := []*graph.Graph{pathGraph("S", "S")}
	same, _, _, _, _ := ctx.scoreWith(p, nil, Options{QueryLog: unrelated})
	if !closeF(same, base) {
		t.Errorf("unboosted = %v, want %v", same, base)
	}
}

func TestSelectWithQueryLogPrefersLoggedStructures(t *testing.T) {
	db, csgs := testSetup()
	// Log full of the N-C-O-S path family structures.
	log := []*graph.Graph{
		pathGraph("N", "C", "O", "S"),
		pathGraph("N", "C", "O", "S", "N"),
		pathGraph("C", "O", "S"),
	}
	with, err := SelectCtx(context.Background(), NewContext(db, csgs), Budget{EtaMin: 3, EtaMax: 4, Gamma: 1},
		Options{Seed: 9, QueryLog: log})
	if err != nil {
		t.Fatal(err)
	}
	if len(with.Patterns) == 0 {
		t.Fatal("nothing selected")
	}
	// The winner should be usable for the logged queries: it embeds in at
	// least one log query.
	if naiveQueryLogFrequency(with.Patterns[0].Graph, log) == 0 {
		t.Errorf("log-boosted selection chose a pattern absent from the log: %v",
			with.Patterns[0].Graph)
	}
}
