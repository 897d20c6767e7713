package cover

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/subiso"
)

// randomPatterns draws connected subgraphs from the hosts (guaranteed
// contained somewhere) plus label-scrambled variants (mostly not).
func randomPatterns(hosts []*graph.Graph, n int, rng *rand.Rand) []*graph.Graph {
	var out []*graph.Graph
	labels := []string{"C", "N", "O", "S", "P"}
	for len(out) < n {
		h := hosts[rng.Intn(len(hosts))]
		size := 3 + rng.Intn(5)
		p := graph.RandomConnectedSubgraph(h, size, rng)
		if p == nil || p.NumVertices() == 0 {
			continue
		}
		out = append(out, p)
		if len(out) < n && rng.Intn(2) == 0 {
			q := p.Clone()
			q.SetLabel(graph.VertexID(rng.Intn(q.NumVertices())), labels[rng.Intn(len(labels))])
			out = append(out, q)
		}
	}
	return out
}

func TestVerdictsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hosts := dataset.AIDSLike(25, 11).Graphs
	e := New(hosts)
	for _, p := range randomPatterns(hosts, 40, rng) {
		got, err := e.Verdicts(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hosts {
			if want := subiso.Contains(h, p); got[i] != want {
				t.Fatalf("verdict[%d] = %v, want %v for pattern %v", i, got[i], want, p)
			}
		}
	}
	s := e.Stats()
	if s.Misses == 0 || s.VF2Calls == 0 {
		t.Errorf("stats = %+v, want misses and VF2 calls > 0", s)
	}
	if s.VF2Calls > s.Misses {
		t.Errorf("VF2 calls %d > misses %d: grouping by host key broken", s.VF2Calls, s.Misses)
	}
}

func TestVerdictsMemoHitsOnRepeat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	hosts := dataset.AIDSLike(10, 5).Graphs
	e := New(hosts)
	p := randomPatterns(hosts, 1, rng)[0]
	first, err := e.Verdicts(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	vf2After := e.Stats().VF2Calls
	// Second query with an isomorphic copy (relabeled vertex order) must be
	// all hits: same canonical key, zero new VF2 work.
	second, err := e.Verdicts(context.Background(), permuted(p, rng))
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("verdicts diverge at host %d", i)
		}
	}
	s := e.Stats()
	if s.VF2Calls != vf2After {
		t.Errorf("repeat query ran %d extra VF2 searches, want 0", s.VF2Calls-vf2After)
	}
	if s.Hits == 0 {
		t.Error("repeat query produced no cache hits")
	}
}

// permuted rebuilds p with a random vertex order (an isomorphic graph).
func permuted(p *graph.Graph, rng *rand.Rand) *graph.Graph {
	n := p.NumVertices()
	perm := rng.Perm(n)
	q := graph.New(n, p.NumEdges())
	pos := make([]graph.VertexID, n)
	for i := 0; i < n; i++ {
		pos[perm[i]] = graph.VertexID(i)
	}
	for i := 0; i < n; i++ {
		q.AddVertex(p.Label(graph.VertexID(perm[i])))
	}
	for _, e := range p.Edges() {
		q.MustAddEdge(pos[e.U], pos[e.V])
	}
	return q
}

func TestPrunedPairsReported(t *testing.T) {
	hosts := dataset.AIDSLike(20, 3).Graphs
	e := New(hosts)
	// A pattern with a label path absent from every molecule-like host.
	p := graph.New(2, 1)
	a := p.AddVertex("Xx")
	b := p.AddVertex("Yy")
	p.MustAddEdge(a, b)
	rec := pipeline.NewRecorder()
	ctx := pipeline.WithTrace(context.Background(), rec)
	verdicts, err := e.Verdicts(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range verdicts {
		if ok {
			t.Errorf("host %d reported containing an impossible pattern", i)
		}
	}
	s := e.Stats()
	if s.Pruned != int64(len(hosts)) {
		t.Errorf("pruned = %d, want all %d hosts", s.Pruned, len(hosts))
	}
	if s.VF2Calls != 0 {
		t.Errorf("VF2 ran %d times on a fully pruned pattern", s.VF2Calls)
	}
	if rec.Total(pipeline.CounterCoverPruned) != int64(len(hosts)) {
		t.Errorf("pipeline pruned counter = %d, want %d",
			rec.Total(pipeline.CounterCoverPruned), len(hosts))
	}
}

func TestEmptyHostsAndEmptyPattern(t *testing.T) {
	e := New(nil)
	v, err := e.Verdicts(context.Background(), graph.New(0, 0))
	if err != nil || len(v) != 0 {
		t.Fatalf("empty engine: verdicts=%v err=%v", v, err)
	}

	hosts := dataset.EMolLike(5, 2).Graphs
	e = New(hosts)
	// The empty pattern embeds trivially into every host.
	v, err = e.Verdicts(context.Background(), graph.New(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range v {
		if !ok {
			t.Errorf("host %d does not contain the empty pattern", i)
		}
	}
}

// labeledPath returns a path of n vertices labeled C, N, O, C, N, O, ...
func labeledPath(n int) *graph.Graph {
	labels := []string{"C", "N", "O"}
	g := graph.New(n, n-1)
	for i := 0; i < n; i++ {
		g.AddVertex(labels[i%len(labels)])
		if i > 0 {
			g.MustAddEdge(graph.VertexID(i-1), graph.VertexID(i))
		}
	}
	return g
}

// TestOversizePatternBypassesMemo: a pattern above canon.MaxKeyVertices is
// verified afresh on every call, against a host that is itself above the
// cap and so keyed by identity.
func TestOversizePatternBypassesMemo(t *testing.T) {
	e := New([]*graph.Graph{labeledPath(canon.MaxKeyVertices + 12)})
	if !strings.HasPrefix(e.hostKeys[0], "id:") {
		t.Fatalf("oversize host keyed %.20q, want an identity key", e.hostKeys[0])
	}
	p := labeledPath(canon.MaxKeyVertices + 1)
	for call := int64(1); call <= 2; call++ {
		v, err := e.Verdicts(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if !v[0] {
			t.Fatal("a path was not found in a longer path with the same label cycle")
		}
		if got := e.Stats().VF2Calls; got != call {
			t.Errorf("after call %d: VF2 calls %d, want %d (oversize pattern memoized)", call, got, call)
		}
	}
	if e.Stats().Hits != 0 {
		t.Errorf("oversize pattern produced %d cache hits", e.Stats().Hits)
	}
}

func TestAlreadyCancelled(t *testing.T) {
	hosts := dataset.AIDSLike(5, 4).Graphs
	e := New(hosts)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Verdicts(ctx, hosts[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A cancelled batch must not poison the cache: the same query afterwards
	// succeeds and agrees with the naive oracle.
	v, err := e.Verdicts(context.Background(), hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hosts {
		if want := subiso.Contains(h, hosts[0]); v[i] != want {
			t.Errorf("verdict[%d] = %v, want %v after cancelled batch", i, v[i], want)
		}
	}
}
