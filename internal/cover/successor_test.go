package cover

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/subiso"
)

// checkNaive runs every pattern through e and fails on any verdict that
// differs from the naive VF2 loop over e's hosts.
func checkNaive(t *testing.T, e *Engine, pats []*graph.Graph) {
	t.Helper()
	for _, p := range pats {
		got, err := e.Verdicts(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range e.hosts {
			if want := subiso.Contains(h, p); got[i] != want {
				t.Fatalf("verdict[%d] = %v, want %v for pattern %v", i, got[i], want, p)
			}
		}
	}
}

// An isomorphic copy of a predecessor's host, at the same index and with
// the same canonical key, is not the host the predecessor verified
// against, so it carries nothing; the host itself carries every verdict.
func TestSuccessorCarriesOnlyTheSameHost(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	hosts := dataset.AIDSLike(6, 8).Graphs
	pats := randomPatterns(hosts, 30, rng)
	prev := New(hosts)
	checkNaive(t, prev, pats)

	copyOf := permuted(hosts[0], rng)
	cp := NewSuccessor(prev, []*graph.Graph{copyOf})
	if cp.hostKeys[0] != prev.hostKeys[0] {
		t.Fatal("the isomorphic copy keys differently from its original")
	}
	checkNaive(t, cp, pats)
	if s := cp.Stats(); s.Carried != 0 || s.VF2Calls == 0 {
		t.Errorf("isomorphic copy: %+v, want no carried verdict and its own VF2 searches", s)
	}

	same := NewSuccessor(prev, []*graph.Graph{hosts[0]})
	checkNaive(t, same, pats)
	if s := same.Stats(); s.Carried == 0 || s.VF2Calls != 0 {
		t.Errorf("same host: %+v, want every verdict carried and no VF2 search", s)
	}
}

// An identity-keyed host that moves to another index keeps its own
// verdicts: its key in the predecessor ("id:<old index>") is not its key
// in the successor, and the successor's key for the old index names
// another graph there.
func TestSuccessorMovedIdentityHost(t *testing.T) {
	path, grid := labeledPath(canon.MaxKeyVertices+12), gridGraph(7, 8)
	prev := New([]*graph.Graph{path, grid})
	for i, h := range prev.hosts {
		if h.NumVertices() <= canon.MaxKeyVertices || !strings.HasPrefix(prev.hostKeys[i], "id:") {
			t.Fatalf("host %d (%d vertices) keyed %.20q, want an identity key", i, h.NumVertices(), prev.hostKeys[i])
		}
	}
	pats := []*graph.Graph{labeledPath(4), labeledPath(7), gridGraph(2, 2), gridGraph(2, 3), oddCycle(5), gridGraph(1, 5)}
	checkNaive(t, prev, pats)

	moved := NewSuccessor(prev, []*graph.Graph{grid, path})
	checkNaive(t, moved, pats)
	if s := moved.Stats(); s.Carried == 0 || s.VF2Calls != 0 {
		t.Errorf("moved hosts: %+v, want every verdict carried and no VF2 search", s)
	}
	// The carried verdicts landed under the successor's own keys.
	again := moved.Stats()
	checkNaive(t, moved, pats)
	if s := moved.Stats(); s.Carried != again.Carried || s.VF2Calls != 0 {
		t.Errorf("repeat batch: %+v, want only own-memo hits", s)
	}
}

// memoPatterns returns the distinct pattern keys of e's memo.
func memoPatterns(e *Engine) map[string]bool {
	out := make(map[string]bool)
	for k := range e.memo {
		out[k.pattern] = true
	}
	return out
}

// Twenty generations of successors, each detached once its successor is
// built (a refresh's commit): a live engine's memo holds only the pattern
// keys its own generation touched, its predecessor's only those of the
// generation before, and no engine reaches two generations back.
func TestSuccessorChainKeepsTwoGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	hosts := dataset.AIDSLike(10, 13).Graphs
	pats := randomPatterns(hosts, 22, rng)
	touched := func(g int) map[string]bool {
		return map[string]bool{canon.String(pats[g]): true, canon.String(pats[g+1]): true}
	}

	var prev *Engine
	var carried int64
	for g := 0; g < 20; g++ {
		// Each generation swaps one host for a fresh copy, as a refresh
		// rebuilds the summaries it changes.
		gen := append([]*graph.Graph(nil), hosts...)
		gen[g%len(gen)] = hosts[g%len(gen)].Clone()
		e := NewSuccessor(prev, gen)
		checkNaive(t, e, pats[g:g+2])
		carried += e.Stats().Carried
		for k := range memoPatterns(e) {
			if !touched(g)[k] {
				t.Fatalf("generation %d: memo holds a pattern it never queried", g)
			}
		}
		if prev != nil {
			if e.prev != prev {
				t.Fatalf("generation %d is not linked to its predecessor", g)
			}
			if prev.prev != nil {
				t.Fatalf("generation %d's predecessor still references its own predecessor", g)
			}
			for k := range memoPatterns(prev) {
				if !touched(g - 1)[k] {
					t.Fatalf("generation %d's predecessor holds a pattern of an older generation", g)
				}
			}
		}
		e.Detach()
		if e.prev != nil || e.carry != nil {
			t.Fatalf("generation %d: Detach left the link in place", g)
		}
		prev = e
	}
	if carried == 0 {
		t.Error("no generation carried a verdict from its predecessor")
	}
}

// A cancelled batch of a successor caches neither its VF2 results nor the
// verdicts it carried, and leaves the predecessor's memo alone.
func TestSuccessorCancelledBatchCachesNothing(t *testing.T) {
	shared, fresh := gridGraph(5, 6), gridGraph(6, 6)
	prev := New([]*graph.Graph{shared, gridGraph(5, 5)})
	checkNaive(t, prev, []*graph.Graph{oddCycle(11)})
	prevMemo := make(map[pairKey]bool, len(prev.memo))
	for k, v := range prev.memo {
		prevMemo[k] = v
	}

	e := NewSuccessor(prev, []*graph.Graph{shared, fresh})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = pipeline.WithTrace(ctx, &cancelOnVF2{cancel: cancel})
	if _, err := e.Verdicts(ctx, oddCycle(11)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(e.memo) != 0 || e.Stats().Carried != 0 {
		t.Errorf("cancelled batch cached %d verdicts and counted %d carried", len(e.memo), e.Stats().Carried)
	}
	if !reflect.DeepEqual(prev.memo, prevMemo) {
		t.Error("the successor's cancelled batch changed its predecessor's memo")
	}

	checkNaive(t, e, []*graph.Graph{oddCycle(11)})
	if s := e.Stats(); s.Carried != 1 || s.VF2Calls != 2 {
		t.Errorf("retried batch: %+v, want 1 carried verdict and the fresh host's VF2 search", s)
	}
}
