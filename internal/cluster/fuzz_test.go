package cluster

import (
	"math/rand"
	"testing"
)

// Fuzz test for k-means: whatever the shape of the input — k <= 0, k > n,
// no points, all-identical points — it must return a sane partition and
// never panic.

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
