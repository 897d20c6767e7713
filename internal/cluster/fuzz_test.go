package cluster

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/simcache"
)

// Fuzz tests for the clustering primitives: whatever the shape of the
// input — k <= 0, k > n, empty databases, all-identical points — the
// algorithms must return a sane partition and never panic.

func FuzzKMeansInvariants(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), uint8(4))
	f.Add(int64(2), uint8(0), uint8(1), uint8(1)) // no points
	f.Add(int64(3), uint8(4), uint8(9), uint8(2)) // k > n
	f.Add(int64(4), uint8(6), uint8(0), uint8(3)) // k <= 0
	f.Add(int64(9), uint8(12), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nn, kk, dd uint8) {
		n := int(nn) % 41
		k := int(kk)%17 - 4 // exercise k <= 0 as well
		dim := 1 + int(dd)%6
		rng := rand.New(rand.NewSource(seed))

		vecs := make([]Vector, n)
		identical := seed%3 == 0
		for i := range vecs {
			v := make(Vector, dim)
			if !identical {
				for d := range v {
					v[d] = float64(rng.Intn(2))
				}
			}
			vecs[i] = v
		}

		assign := KMeans(vecs, k, rng, 0)
		if n == 0 {
			if assign != nil {
				t.Fatalf("KMeans on no points returned %v, want nil", assign)
			}
			return
		}
		if len(assign) != n {
			t.Fatalf("len(assign) = %d, want %d", len(assign), n)
		}
		effK := k
		if effK <= 0 {
			effK = 1
		}
		if effK > n {
			effK = n
		}
		for i, a := range assign {
			if a < 0 || a >= effK {
				t.Fatalf("assign[%d] = %d outside [0, %d)", i, a, effK)
			}
		}
	})
}

// fuzzGraph builds a small random labeled graph: a random tree plus a few
// extra edges. nv == 0 yields the empty graph.
func fuzzGraph(rng *rand.Rand, nv int) *graph.Graph {
	labels := []string{"C", "N", "O"}
	g := graph.New(nv, 2*nv)
	for i := 0; i < nv; i++ {
		g.AddVertex(labels[rng.Intn(len(labels))])
	}
	for i := 1; i < nv; i++ {
		g.MustAddEdge(graph.VertexID(rng.Intn(i)), graph.VertexID(i))
	}
	for e := rng.Intn(nv + 1); e > 0; e-- {
		u, v := rng.Intn(nv), rng.Intn(nv)
		if u != v && !g.HasEdge(graph.VertexID(u), graph.VertexID(v)) {
			g.MustAddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return g
}

func FuzzKMedoidsInvariants(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2))
	f.Add(int64(2), uint8(0), uint8(3)) // empty database
	f.Add(int64(3), uint8(3), uint8(9)) // k > n
	f.Add(int64(4), uint8(5), uint8(0)) // k <= 0
	f.Add(int64(7), uint8(9), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nn, kk uint8) {
		n := int(nn) % 13
		k := int(kk)%17 - 4
		rng := rand.New(rand.NewSource(seed))

		gs := make([]*graph.Graph, n)
		for i := range gs {
			gs[i] = fuzzGraph(rng, rng.Intn(8))
		}
		db := graph.NewDB("fuzz", gs)
		eng := simcache.New(db.Graphs, simcache.Options{Budget: 500})
		cs, err := KMedoidsCtx(context.Background(), db, k, eng, seed, 5)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			if cs != nil {
				t.Fatalf("KMedoidsCtx on empty db returned %v, want nil", cs)
			}
			return
		}

		// The clusters must partition [0, n): every index exactly once.
		seen := make([]int, n)
		for _, c := range cs {
			if c.Len() == 0 {
				t.Fatal("empty cluster in output")
			}
			for _, m := range c.Members {
				if m < 0 || m >= n {
					t.Fatalf("member %d outside [0, %d)", m, n)
				}
				seen[m]++
			}
		}
		for i, s := range seen {
			if s != 1 {
				t.Fatalf("index %d appears %d times, want exactly once", i, s)
			}
		}
		effK := k
		if effK <= 0 {
			effK = 1
		}
		if effK > n {
			effK = n
		}
		if len(cs) > effK {
			t.Fatalf("%d clusters for k=%d over %d graphs", len(cs), k, n)
		}

		// GOMAXPROCS independence: a single-worker run on a fresh engine
		// yields the identical clustering.
		prev := runtime.GOMAXPROCS(1)
		want, err := KMedoidsCtx(context.Background(), db, k,
			simcache.New(db.Graphs, simcache.Options{Budget: 500}), seed, 5)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cs, want) {
			t.Fatalf("clusterings diverge across worker counts:\n GOMAXPROCS %d: %v\n GOMAXPROCS 1: %v",
				prev, cs, want)
		}
	})
}
