package dataset

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/subiso"
)

func TestGenerateBasicInvariants(t *testing.T) {
	db := Generate(Config{Name: "t", NumGraphs: 30, MinVertices: 12, MaxVertices: 25, Seed: 1})
	if db.Len() != 30 {
		t.Fatalf("generated %d graphs, want 30", db.Len())
	}
	for i, g := range db.Graphs {
		if !g.IsConnected() {
			t.Errorf("graph %d not connected", i)
		}
		if g.NumVertices() < 12 {
			t.Errorf("graph %d has %d vertices, want >= 12", i, g.NumVertices())
		}
		if g.ID != i {
			t.Errorf("graph %d has ID %d", i, g.ID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Name: "d", NumGraphs: 10, MinVertices: 12, MaxVertices: 20, Seed: 7}
	a := Generate(cfg)
	b := Generate(cfg)
	for i := range a.Graphs {
		if a.Graph(i).String() != b.Graph(i).String() {
			t.Fatalf("graph %d differs between identical-seed runs", i)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a := Generate(Config{Name: "a", NumGraphs: 5, Seed: 1})
	b := Generate(Config{Name: "b", NumGraphs: 5, Seed: 2})
	same := true
	for i := range a.Graphs {
		if a.Graph(i).String() != b.Graph(i).String() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical databases")
	}
}

func TestLabelDistributionSkew(t *testing.T) {
	db := Generate(Config{Name: "skew", NumGraphs: 50, Seed: 3})
	counts := map[string]int{}
	for _, g := range db.Graphs {
		for v := 0; v < g.NumVertices(); v++ {
			counts[g.Label(graph.VertexID(v))]++
		}
	}
	if counts["C"] <= counts["O"] || counts["C"] <= counts["N"] {
		t.Errorf("carbon should dominate: %v", counts)
	}
	if counts["O"] == 0 || counts["N"] == 0 {
		t.Errorf("heteroatoms missing: %v", counts)
	}
}

func TestFamilySharedScaffold(t *testing.T) {
	// With one family, every molecule contains the family core.
	cfg := Config{Name: "fam", NumGraphs: 8, Families: 1, Seed: 11, MinVertices: 18, MaxVertices: 25}
	db := Generate(cfg)
	core := familyCore(rand.New(rand.NewSource(cfg.Seed + 1000)))
	for i, g := range db.Graphs {
		if !subiso.Contains(g, core) {
			t.Errorf("molecule %d does not contain its family core", i)
		}
	}
}

func TestUreaMotifPresent(t *testing.T) {
	// The urea motif from Example 1.1 should appear in a reasonable share
	// of generated molecules (it is both a core motif and a decoration).
	db := Generate(Config{Name: "urea", NumGraphs: 40, Seed: 13})
	urea := graph.New(4, 3)
	n1 := urea.AddVertex("N")
	c := urea.AddVertex("C")
	o := urea.AddVertex("O")
	n2 := urea.AddVertex("N")
	urea.MustAddEdge(n1, c)
	urea.MustAddEdge(c, o)
	urea.MustAddEdge(c, n2)
	hits := 0
	for _, g := range db.Graphs {
		if subiso.Contains(g, urea) {
			hits++
		}
	}
	if hits < db.Len()/10 {
		t.Errorf("urea motif in only %d/%d molecules", hits, db.Len())
	}
}

func TestNamedAnalogs(t *testing.T) {
	aids := AIDSLike(20, 1)
	pub := PubChemLike(20, 1)
	emol := EMolLike(20, 1)
	for _, db := range []*graph.DB{aids, pub, emol} {
		if db.Len() != 20 {
			t.Errorf("%s: %d graphs", db.Name, db.Len())
		}
		st := db.ComputeStats()
		if st.AvgVertices <= 0 || st.VertexLabels < 3 {
			t.Errorf("%s stats implausible: %+v", db.Name, st)
		}
	}
	// Average sizes should be ordered eMol < AIDS < PubChem by construction.
	if !(emol.ComputeStats().AvgVertices < pub.ComputeStats().AvgVertices) {
		t.Error("eMol analog should be smaller than PubChem analog")
	}
}

func TestQueriesWorkload(t *testing.T) {
	db := AIDSLike(20, 5)
	qs := Queries(db, 25, 4, 12, 9)
	if len(qs) != 25 {
		t.Fatalf("got %d queries", len(qs))
	}
	for i, q := range qs {
		if !q.IsConnected() {
			t.Errorf("query %d not connected", i)
		}
		if q.NumEdges() < 4 || q.NumEdges() > 12 {
			t.Errorf("query %d size %d outside [4,12]", i, q.NumEdges())
		}
	}
}

func TestQueriesAreSubgraphs(t *testing.T) {
	db := AIDSLike(10, 6)
	qs := Queries(db, 10, 4, 8, 7)
	for i, q := range qs {
		found := false
		for _, g := range db.Graphs {
			if subiso.Contains(g, q) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("query %d not contained in any data graph", i)
		}
	}
}

func TestSupportExactAndSampled(t *testing.T) {
	db := AIDSLike(15, 8)
	rng := rand.New(rand.NewSource(1))
	// The single C-C edge is ubiquitous.
	q := graph.New(2, 1)
	a := q.AddVertex("C")
	b := q.AddVertex("C")
	q.MustAddEdge(a, b)
	exact := Support(db, q, 0, rng)
	if exact < 0.9 {
		t.Errorf("C-C support = %v, want near 1", exact)
	}
	sampled := Support(db, q, 10, rng)
	if sampled < 0.5 {
		t.Errorf("sampled support = %v, implausibly low", sampled)
	}
	empty := graph.NewDB("e", nil)
	if Support(empty, q, 0, rng) != 0 {
		t.Error("support in empty DB should be 0")
	}
}

func TestMixedQueriesComposition(t *testing.T) {
	db := AIDSLike(30, 10)
	qs := MixedQueries(db, 20, 0.3, 0.5, 11)
	if len(qs) == 0 {
		t.Fatal("no mixed queries generated")
	}
	if len(qs) > 20 {
		t.Fatalf("generated %d > requested 20", len(qs))
	}
	// Re-classify and check both classes are represented for x=0.3.
	rng := rand.New(rand.NewSource(2))
	freq, infreq := 0, 0
	for _, q := range qs {
		if Support(db, q, 0, rng) >= 0.5 {
			freq++
		} else {
			infreq++
		}
	}
	if freq == 0 {
		t.Error("no frequent queries in Q0.3")
	}
	if infreq == 0 {
		t.Error("no infrequent queries in Q0.3")
	}
}

func TestMixedQueriesAllFrequent(t *testing.T) {
	db := AIDSLike(20, 12)
	qs := MixedQueries(db, 10, 0, 0.3, 13)
	rng := rand.New(rand.NewSource(3))
	for i, q := range qs {
		// Sampled classification at generation time used 100 graphs; with
		// 20 graphs classification is exact, so queries must be frequent.
		if s := Support(db, q, 0, rng); s < 0.3 {
			t.Errorf("Q0 query %d has support %v < 0.3", i, s)
		}
	}
}

// TestMixedQueriesDeterministic pins MixedQueries to its seed: the rare
// walk draws among tied frontier edges collected from a map, so it must
// order them before the draw.
func TestMixedQueriesDeterministic(t *testing.T) {
	db := AIDSLike(200, 1)
	render := func() string {
		var s string
		for _, q := range MixedQueries(db, 50, 0.5, 0.05, 1) {
			s += q.String() + "\n"
		}
		return s
	}
	want := render()
	for run := 1; run < 3; run++ {
		if got := render(); got != want {
			t.Fatalf("run %d drew a different workload from the same seed", run)
		}
	}
}

func BenchmarkGenerateAIDSLike(b *testing.B) {
	for i := 0; i < b.N; i++ {
		AIDSLike(100, int64(i))
	}
}
