package cluster

import (
	"context"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/simcache"
)

// K-medoids clustering over a graph distance. The paper notes coarse
// clustering is pluggable ("the Catapult framework is orthogonal to the
// choice of a feature vector-based clustering approach as k-means can be
// replaced with an alternative clustering algorithm", Sec 4.1 remark);
// k-medoids works directly on structural distances (1 - ωmccs) without
// feature vectors, trading the subtree-mining stage for pairwise MCCS
// computations.

// DistanceFunc measures dissimilarity between two data graphs in [0, 1].
type DistanceFunc func(a, b *graph.Graph) float64

// MCCSDistance returns 1 - ωmccs with the given node budget per
// computation.
func MCCSDistance(budget int) DistanceFunc {
	return func(a, b *graph.Graph) float64 {
		// context.Background is never cancelled, so the search cannot fail.
		s, _ := mcs.SimilarityMCCSCtx(context.Background(), a, b, budget)
		return 1 - s
	}
}

// KMedoidsCtx clusters db into at most k clusters with the PAM-style
// alternating algorithm: medoids seeded by a k-means++-like D² rule,
// points assigned to the nearest medoid, medoids re-chosen as the
// assignment cost minimizer, until stable or maxIter rounds. Distances
// are computed once into a matrix, so this is intended for the modest
// database sizes the fine-clustering stage handles (N·k ≲ a few hundred).
// The pairwise distance matrix is computed through a simcache engine:
// matrix rows fan out across workers via
// par.ForCtx and isomorphic pairs share one memoized MCS/MCCS search.
// Distances are 1 - similarity under the engine's configured measure.
// Because every engine value is a pure function of its canonical pair, the
// resulting clustering is bit-identical for any worker count. On
// cancellation it returns (nil, ctx.Err()).
func KMedoidsCtx(ctx context.Context, db *graph.DB, k int, eng *simcache.Engine, seed int64, maxIter int) ([]*Cluster, error) {
	n := db.Len()
	if n == 0 {
		return nil, ctx.Err()
	}
	d := newDistMatrix(n)
	// Row i covers pairs (i, j>i); rows are independent batches, each of
	// which parallelizes its cache misses internally.
	for i := 0; i < n-1; i++ {
		row := make([]int, 0, n-1-i)
		for j := i + 1; j < n; j++ {
			row = append(row, j)
		}
		sims, err := eng.BatchCtx(ctx, row, i)
		if err != nil {
			return nil, err
		}
		for ri, j := range row {
			v := 1 - sims[ri]
			d[i][j] = v
			d[j][i] = v
		}
	}
	return pamCluster(d, k, seed, maxIter), nil
}

func newDistMatrix(n int) [][]float64 {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	return d
}

// pamCluster runs the PAM alternation on a precomputed distance matrix.
func pamCluster(d [][]float64, k int, seed int64, maxIter int) []*Cluster {
	n := len(d)
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	if maxIter <= 0 {
		maxIter = 20
	}
	rng := rand.New(rand.NewSource(seed))

	// D² seeding on the distance matrix.
	medoids := []int{rng.Intn(n)}
	for len(medoids) < k {
		total := 0.0
		best := make([]float64, n)
		for i := 0; i < n; i++ {
			m := 1e18
			for _, md := range medoids {
				if d[i][md] < m {
					m = d[i][md]
				}
			}
			best[i] = m * m
			total += best[i]
		}
		if total == 0 {
			medoids = append(medoids, rng.Intn(n))
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick := n - 1
		for i, b := range best {
			acc += b
			if acc >= r {
				pick = i
				break
			}
		}
		medoids = append(medoids, pick)
	}

	assign := make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		// Assignment step.
		for i := 0; i < n; i++ {
			best, bestD := 0, 1e18
			for ci, md := range medoids {
				if d[i][md] < bestD {
					best, bestD = ci, d[i][md]
				}
			}
			assign[i] = best
		}
		// Update step: each cluster's new medoid minimizes intra-cluster
		// distance sum.
		changed := false
		for ci := range medoids {
			var members []int
			for i, a := range assign {
				if a == ci {
					members = append(members, i)
				}
			}
			if len(members) == 0 {
				continue
			}
			bestM, bestCost := medoids[ci], 1e18
			for _, cand := range members {
				cost := 0.0
				for _, m := range members {
					cost += d[cand][m]
				}
				if cost < bestCost {
					bestM, bestCost = cand, cost
				}
			}
			if bestM != medoids[ci] {
				medoids[ci] = bestM
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	byCluster := map[int][]int{}
	for i, a := range assign {
		byCluster[a] = append(byCluster[a], i)
	}
	var out []*Cluster
	for ci := 0; ci < k; ci++ {
		if ms := byCluster[ci]; len(ms) > 0 {
			out = append(out, &Cluster{Members: ms})
		}
	}
	return out
}
