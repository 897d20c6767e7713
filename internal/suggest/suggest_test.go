package suggest

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// path builds a labeled path graph A-B-C-... from the given labels.
func path(labels ...string) *graph.Graph {
	g := graph.New(len(labels), len(labels))
	var prev graph.VertexID
	for i, l := range labels {
		v := g.AddVertex(l)
		if i > 0 {
			g.MustAddEdge(prev, v)
		}
		prev = v
	}
	return g
}

func pat(g *graph.Graph, score float64) *core.Pattern {
	return &core.Pattern{Graph: g, Score: score}
}

// unbudgeted disables the keystroke budget so tests are deterministic.
var unbudgeted = Options{Budget: -1}

func TestSuggestRanksContainersFirst(t *testing.T) {
	eng := NewEngine([]*core.Pattern{
		pat(path("A", "B", "C"), 0.2), // contains A-B, delta 2
		pat(path("C", "D"), 0.9),      // does not contain A-B
		pat(path("A", "B"), 0.1),      // equals the partial, delta 0
	})
	res, err := eng.SuggestCtx(context.Background(), path("A", "B"), unbudgeted)
	if err != nil {
		t.Fatalf("SuggestCtx: %v", err)
	}
	if got := len(res.Suggestions); got != 3 {
		t.Fatalf("suggestions = %d, want 3", got)
	}
	// Containers first: the exact match (distance 0) outranks the
	// extension (distance 2) despite its lower score; the non-container
	// comes last even with the highest score.
	if s := res.Suggestions[0]; s.Pattern != 2 || !s.Contained || s.Distance != 0 {
		t.Errorf("top suggestion = %+v, want pattern 2 contained at distance 0", s)
	}
	if s := res.Suggestions[1]; s.Pattern != 0 || !s.Contained || s.Distance != 2 ||
		s.AddVertices != 1 || s.AddEdges != 1 {
		t.Errorf("second suggestion = %+v, want pattern 0 contained, +1v +1e", s)
	}
	if s := res.Suggestions[2]; s.Pattern != 1 || s.Contained {
		t.Errorf("third suggestion = %+v, want non-contained pattern 1", s)
	}
	if !res.Stats.Verified || res.Stats.Contained != 2 || res.Stats.Degraded {
		t.Errorf("stats = %+v, want verified, 2 contained, not degraded", res.Stats)
	}
}

func TestSuggestColdStart(t *testing.T) {
	eng := NewEngine([]*core.Pattern{
		pat(path("A", "B"), 0.1),
		pat(path("C", "D", "E"), 0.5),
		pat(path("F"), 0.3),
	})
	res, err := eng.SuggestCtx(context.Background(), graph.New(0, 0), Options{Budget: -1, TopK: 2})
	if err != nil {
		t.Fatalf("SuggestCtx: %v", err)
	}
	if len(res.Suggestions) != 2 {
		t.Fatalf("suggestions = %d, want 2", len(res.Suggestions))
	}
	if res.Suggestions[0].Pattern != 1 || res.Suggestions[1].Pattern != 2 {
		t.Errorf("cold-start order = %d,%d, want 1,2 (by score)",
			res.Suggestions[0].Pattern, res.Suggestions[1].Pattern)
	}
	if s := res.Suggestions[0]; !s.Contained || s.AddVertices != 3 || s.AddEdges != 2 {
		t.Errorf("cold-start top = %+v, want contained with full completion delta", s)
	}
}

func TestSuggestTopKTruncates(t *testing.T) {
	var ps []*core.Pattern
	for i := 0; i < 10; i++ {
		ps = append(ps, pat(path("A", "B", "C"), float64(i)/10))
	}
	eng := NewEngine(ps)
	res, err := eng.SuggestCtx(context.Background(), path("A", "B"), Options{Budget: -1, TopK: 3})
	if err != nil {
		t.Fatalf("SuggestCtx: %v", err)
	}
	if len(res.Suggestions) != 3 {
		t.Fatalf("suggestions = %d, want 3", len(res.Suggestions))
	}
	if res.Stats.Ranked != 10 {
		t.Errorf("ranked = %d, want 10", res.Stats.Ranked)
	}
}

func TestSuggestMaxCandidatesCap(t *testing.T) {
	var ps []*core.Pattern
	for i := 0; i < 70; i++ {
		ps = append(ps, pat(path("A", "B", "C"), float64(i)/100))
	}
	eng := NewEngine(ps)
	res, err := eng.SuggestCtx(context.Background(), path("A", "B"), Options{Budget: -1, TopK: 70})
	if err != nil {
		t.Fatalf("SuggestCtx: %v", err)
	}
	if res.Stats.Capped != 6 || res.Stats.Ranked != 64 {
		t.Errorf("capped = %d ranked = %d, want 6 capped, 64 ranked", res.Stats.Capped, res.Stats.Ranked)
	}
	// Highest-scored candidates must survive the cap.
	for _, s := range res.Suggestions {
		if s.Score < 0.06 {
			t.Errorf("capped ranking kept low-score pattern %d (score %.2f)", s.Pattern, s.Score)
		}
	}
}

func TestSuggestExhaustedBudgetReturnsPrefixNotError(t *testing.T) {
	var ps []*core.Pattern
	for i := 0; i < 20; i++ {
		ps = append(ps, pat(path("A", "B", "C", "D"), float64(i)/20))
	}
	eng := NewEngine(ps)
	res, err := eng.SuggestCtx(context.Background(), path("A", "B"), Options{Budget: time.Nanosecond})
	if err != nil {
		t.Fatalf("exhausted budget must not error, got %v", err)
	}
	if !res.Stats.Degraded {
		t.Errorf("stats = %+v, want degraded under a 1ns budget", res.Stats)
	}
	if res.Stats.Ranked != len(res.Suggestions) && len(res.Suggestions) > res.Stats.Ranked {
		t.Errorf("suggestions = %d > ranked = %d", len(res.Suggestions), res.Stats.Ranked)
	}
}

func TestSuggestNilAndEmptyEngine(t *testing.T) {
	eng := NewEngine(nil)
	if _, err := eng.SuggestCtx(context.Background(), nil, unbudgeted); err == nil {
		t.Error("nil query must error")
	}
	res, err := eng.SuggestCtx(context.Background(), path("A"), unbudgeted)
	if err != nil {
		t.Fatalf("empty engine: %v", err)
	}
	if len(res.Suggestions) != 0 {
		t.Errorf("empty engine returned %d suggestions", len(res.Suggestions))
	}
}

func TestSuggestMemoizesAcrossKeystrokes(t *testing.T) {
	eng := NewEngine([]*core.Pattern{
		pat(path("A", "B", "C"), 0.5),
		pat(path("A", "B", "C", "D"), 0.4),
	})
	q := path("A", "B")
	if _, err := eng.SuggestCtx(context.Background(), q, unbudgeted); err != nil {
		t.Fatal(err)
	}
	first := eng.CoverStats()
	if _, err := eng.SuggestCtx(context.Background(), q, unbudgeted); err != nil {
		t.Fatal(err)
	}
	second := eng.CoverStats()
	if second.Misses != first.Misses {
		t.Errorf("replayed keystroke missed the verdict memo: %d -> %d misses",
			first.Misses, second.Misses)
	}
	if second.Hits <= first.Hits {
		t.Errorf("replayed keystroke did not hit the verdict memo: %d -> %d hits",
			first.Hits, second.Hits)
	}
}
