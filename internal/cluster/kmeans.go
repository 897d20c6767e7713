// Package cluster implements CATAPULT's small graph clustering (Sec 4.1):
// a coarse, feature-vector pass (frequent-subtree features + k-means with
// k-means++ seeding, Algorithm 2) followed by a fine, structure-based pass
// that splits oversize clusters around dissimilar MCCS seeds (Algorithm 3).
// The strategies used as baselines in Exp 1 (CC, mcsFC, mccsFC, mcsH,
// mccsH) are exposed through Config.
package cluster

import (
	"math"
	"math/rand"
)

// Vector is a feature vector; coarse clustering uses binary subtree
// occurrence vectors converted to float64.
type Vector []float64

// FromBits converts a binary vector to a Vector.
func FromBits(bits []bool) Vector {
	v := make(Vector, len(bits))
	for i, b := range bits {
		if b {
			v[i] = 1
		}
	}
	return v
}

func sqDist(a, b Vector) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// KMeans clusters the vectors into at most k clusters using k-means with
// k-means++ seeding. It returns the assignment of each vector to a cluster
// index in [0, k). Empty input yields a nil assignment. maxIter bounds the
// Lloyd iterations (default 50 when <= 0).
func KMeans(vecs []Vector, k int, rng *rand.Rand, maxIter int) []int {
	n := len(vecs)
	if n == 0 {
		return nil
	}
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	dim := len(vecs[0])
	centers := seedPlusPlus(vecs, k, rng)
	assign := make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, v := range vecs {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := sqDist(v, ctr); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centers.
		counts := make([]int, k)
		sums := make([]Vector, k)
		for c := range sums {
			sums[c] = make(Vector, dim)
		}
		for i, v := range vecs {
			c := assign[i]
			counts[c]++
			for d := range v {
				sums[c][d] += v[d]
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				continue // keep previous center for empty clusters
			}
			for d := range sums[c] {
				sums[c][d] /= float64(counts[c])
			}
			centers[c] = sums[c]
		}
	}
	return assign
}

// seedPlusPlus picks k initial centers with the k-means++ D² weighting
// (Arthur & Vassilvitskii 2007).
func seedPlusPlus(vecs []Vector, k int, rng *rand.Rand) []Vector {
	n := len(vecs)
	centers := make([]Vector, 0, k)
	centers = append(centers, vecs[rng.Intn(n)])
	d2 := make([]float64, n)
	for len(centers) < k {
		total := 0.0
		for i, v := range vecs {
			best := math.Inf(1)
			for _, c := range centers {
				if d := sqDist(v, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All points coincide with existing centers; duplicate one.
			centers = append(centers, vecs[rng.Intn(n)])
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick := n - 1
		for i, d := range d2 {
			acc += d
			if acc >= r {
				pick = i
				break
			}
		}
		centers = append(centers, vecs[pick])
	}
	// Copy centers so later recomputation does not alias input vectors.
	for i, c := range centers {
		cp := make(Vector, len(c))
		copy(cp, c)
		centers[i] = cp
	}
	return centers
}
