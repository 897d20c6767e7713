package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/pipeline"
	"repro/internal/resilience"
	"repro/internal/simcache"
	"repro/internal/treemine"
)

// Cluster is a set of data-graph indices into the clustered database.
type Cluster struct {
	Members []int
}

// Len returns the cluster size.
func (c *Cluster) Len() int { return len(c.Members) }

// Strategy selects the clustering pipeline, matching the Exp 1 scenarios.
type Strategy int

const (
	// CoarseOnly runs only frequent-subtree k-means clustering (CC).
	CoarseOnly Strategy = iota
	// FineOnlyMCCS splits the whole database with MCCS-based fine
	// clustering (mccsFC).
	FineOnlyMCCS
	// FineOnlyMCS splits with (unconnected) MCS similarity (mcsFC).
	FineOnlyMCS
	// HybridMCCS runs coarse then MCCS fine clustering (mccsH) — the
	// paper's recommended configuration.
	HybridMCCS
	// HybridMCS runs coarse then MCS fine clustering (mcsH).
	HybridMCS
)

func (s Strategy) String() string {
	switch s {
	case CoarseOnly:
		return "CC"
	case FineOnlyMCCS:
		return "mccsFC"
	case FineOnlyMCS:
		return "mcsFC"
	case HybridMCCS:
		return "mccsH"
	case HybridMCS:
		return "mcsH"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Config controls small graph clustering.
type Config struct {
	Strategy Strategy
	// N is the maximum cluster size (paper default 20). Clusters above N
	// are split by fine clustering; it also drives k = |D|/N for k-means.
	N int
	// MinSupport is the frequent-subtree support threshold for coarse
	// features.
	MinSupport float64
	// MCSBudget bounds each MCS/MCCS computation during fine clustering.
	MCSBudget int
	// Seed drives k-means++ and fine-clustering seed choices.
	Seed int64
}

// Coarse clustering's feature mining: subtrees of at most MaxTreeEdges
// edges are mined, and facility-location selection keeps at most
// MaxFeatures of them.
const (
	MaxTreeEdges = 3
	MaxFeatures  = 40
)

// WithDefaults returns c with every unset field at its default: N = 20
// (the paper's), MinSupport = 0.1 and MCSBudget = 20000. Strategy and Seed
// are returned as given.
func (c Config) WithDefaults() Config {
	if c.N <= 0 {
		c.N = 20
	}
	if c.MinSupport <= 0 {
		c.MinSupport = 0.1
	}
	if c.MCSBudget <= 0 {
		c.MCSBudget = 20000
	}
	return c
}

// Result is the output of small graph clustering.
type Result struct {
	Clusters []*Cluster
	// Features is the selected frequent-subtree feature set (nil for
	// fine-only strategies).
	Features []*treemine.FrequentTree
}

// RunCtx performs small graph clustering of db under the given
// configuration (Algorithm 1, lines 1-2), with cooperative cancellation
// and tracing: the coarse and
// fine phases check ctx at iteration boundaries and report StageCoarse /
// StageFine spans to the context's pipeline tracer. On cancellation it
// returns (nil, ctx.Err()) — no partial clustering.
func RunCtx(ctx context.Context, db *graph.DB, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	coarseRng, fineRng := stageRngs(cfg.Seed)
	switch cfg.Strategy {
	case CoarseOnly:
		cs, feats, err := coarse(ctx, db, cfg, coarseRng)
		if err != nil {
			return nil, err
		}
		return &Result{Clusters: cs, Features: feats}, nil
	case FineOnlyMCCS, FineOnlyMCS:
		all := &Cluster{Members: allIndices(db.Len())}
		cs, err := fine(ctx, db, []*Cluster{all}, cfg, fineRng)
		if err != nil {
			return nil, err
		}
		return &Result{Clusters: cs}, nil
	case HybridMCCS, HybridMCS:
		cs, feats, err := coarse(ctx, db, cfg, coarseRng)
		if err != nil {
			return nil, err
		}
		cs, err = fine(ctx, db, cs, cfg, fineRng)
		if err != nil {
			return nil, err
		}
		return &Result{Clusters: cs, Features: feats}, nil
	default:
		panic(fmt.Sprintf("cluster: unknown strategy %v", cfg.Strategy))
	}
}

// stageRngs derives independent coarse- and fine-stage RNGs from one root
// stream seeded by the configured seed. Seeding each stage directly with
// cfg.Seed — as every entry point once did — silently gave the coarse
// k-means++ pass and every fine-splitting pass the *same* random stream,
// so stage choices were correlated and separately invoked stages
// (CoarseCtx + FineCtx) diverged from the composed RunCtx. Deriving both
// seeds from a single root stream keeps every entry point on the same two
// stage streams: RunCtx ≡ CoarseCtx followed by FineCtx, bit for bit.
func stageRngs(seed int64) (coarseRng, fineRng *rand.Rand) {
	root := rand.New(rand.NewSource(seed))
	coarseSeed := root.Int63()
	fineSeed := root.Int63()
	return rand.New(rand.NewSource(coarseSeed)), rand.New(rand.NewSource(fineSeed))
}

// CoarseCtx runs only the coarse (Algorithm 2) phase under cfg and returns
// the clusters and selected subtree features, with cooperative cancellation
// and tracing. Exposed for pipelines that need to intervene between the
// coarse and fine phases (lazy sampling, Sec 4.3).
func CoarseCtx(ctx context.Context, db *graph.DB, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	rng, _ := stageRngs(cfg.Seed)
	cs, feats, err := coarse(ctx, db, cfg, rng)
	if err != nil {
		return nil, err
	}
	return &Result{Clusters: cs, Features: feats}, nil
}

// FineCtx runs only the fine (Algorithm 3) phase on the given clusters,
// splitting any cluster larger than cfg.N, with cooperative cancellation
// and tracing: ctx is checked before every split and inside the MCS/MCCS
// similarity searches.
func FineCtx(ctx context.Context, db *graph.DB, in []*Cluster, cfg Config) ([]*Cluster, error) {
	cfg = cfg.WithDefaults()
	_, rng := stageRngs(cfg.Seed)
	return fine(ctx, db, in, cfg, rng)
}

// CoarseWithFeaturesCtx runs the k-means part of coarse clustering with
// an externally supplied feature set — the entry point for the
// eager-sampling pipeline (Sec 4.3), where frequent subtrees are mined on a
// sample but every graph of the full database is clustered — with
// cooperative cancellation and tracing (StageCoarse).
func CoarseWithFeaturesCtx(ctx context.Context, db *graph.DB, features []*treemine.FrequentTree, cfg Config) ([]*Cluster, error) {
	cfg = cfg.WithDefaults()
	ctx, done := pipeline.Scope(ctx, pipeline.StageCoarse)
	defer done()
	rng, _ := stageRngs(cfg.Seed)
	if len(features) == 0 {
		return []*Cluster{{Members: allIndices(db.Len())}}, nil
	}
	bits, err := treemine.FeatureVectorsCtx(ctx, db, features)
	if err != nil {
		return nil, err
	}
	return kmeansClusters(bits, db.Len(), cfg, rng), nil
}

// kmeansClusters runs k-means over binary feature vectors and groups the
// assignment into clusters ordered by cluster key.
func kmeansClusters(bits [][]bool, dbLen int, cfg Config, rng *rand.Rand) []*Cluster {
	k := dbLen / cfg.N
	if k < 1 {
		k = 1
	}
	vecs := make([]Vector, len(bits))
	for i, b := range bits {
		vecs[i] = FromBits(b)
	}
	assign := KMeans(vecs, k, rng, 0)
	byCluster := map[int][]int{}
	for i, c := range assign {
		byCluster[c] = append(byCluster[c], i)
	}
	keys := make([]int, 0, len(byCluster))
	for c := range byCluster {
		keys = append(keys, c)
	}
	sort.Ints(keys)
	var out []*Cluster
	for _, c := range keys {
		out = append(out, &Cluster{Members: byCluster[c]})
	}
	return out
}

func allIndices(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// Chunks partitions [0, n) into contiguous clusters of at most size members;
// size is a defaulted N (see Config.WithDefaults), so it is positive. It is
// the degradation fallback when coarse clustering cannot finish within
// budget: structure-blind but valid, so CSG construction and pattern
// selection can still run.
func Chunks(n, size int) []*Cluster {
	var out []*Cluster
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		members := make([]int, hi-lo)
		for i := range members {
			members[i] = lo + i
		}
		out = append(out, &Cluster{Members: members})
	}
	return out
}

// coarse implements Algorithm 2: mine frequent subtrees, refine them with
// facility-location selection, build binary feature vectors, k-means.
//
// Under a resilience controller, a panic anywhere in the phase or a
// salvageable cancellation (soft-budget expiry, hard-deadline backstop)
// degrades to structure-blind uniform Chunks clusters instead of failing:
// every downstream phase still gets a valid clustering to work with.
func coarse(ctx context.Context, db *graph.DB, cfg Config, rng *rand.Rand) ([]*Cluster, []*treemine.FrequentTree, error) {
	if resilience.From(ctx) == nil {
		return coarseImpl(ctx, db, cfg, rng)
	}
	var (
		cs    []*Cluster
		feats []*treemine.FrequentTree
		err   error
	)
	fault := resilience.Guard(ctx, pipeline.StageCoarse, func() {
		cs, feats, err = coarseImpl(ctx, db, cfg, rng)
	})
	if fault == nil && err == nil {
		return cs, feats, nil
	}
	if fault == nil && !resilience.Salvageable(err) {
		return nil, nil, err
	}
	resilience.Count(ctx, "coarse_fallback", 1)
	resilience.Degraded(ctx, "coarse clustering fell back to uniform chunks")
	return Chunks(db.Len(), cfg.N), nil, nil
}

func coarseImpl(ctx context.Context, db *graph.DB, cfg Config, rng *rand.Rand) ([]*Cluster, []*treemine.FrequentTree, error) {
	ctx, done := pipeline.Scope(ctx, pipeline.StageCoarse)
	defer done()
	all, err := treemine.MineCtx(ctx, db, treemine.MineOptions{
		MinSupport: cfg.MinSupport,
		MaxEdges:   MaxTreeEdges,
	})
	if err != nil {
		return nil, nil, err
	}
	sel := treemine.SelectFeatures(all, MaxFeatures)
	if len(sel) == 0 {
		// No frequent structure at all: a single cluster.
		return []*Cluster{{Members: allIndices(db.Len())}}, nil, nil
	}
	bits, err := treemine.FeatureVectorsCtx(ctx, db, sel)
	if err != nil {
		return nil, nil, err
	}
	return kmeansClusters(bits, db.Len(), cfg, rng), sel, nil
}

// simKind maps a fine-clustering strategy to its similarity measure.
func (s Strategy) simKind() mcs.Kind {
	if s == FineOnlyMCS || s == HybridMCS {
		return mcs.KindMCS
	}
	return mcs.KindMCCS
}

// fine implements Algorithm 3: every cluster larger than N is split into
// two around a random seed and the graph most dissimilar to it (by
// MCS/MCCS similarity); splits repeat until all clusters are within N.
// Similarities run through a simcache engine — memoized by canonical pair
// and fanned out with par.ForCtx — which schedules work in member order
// over pure per-pair values, so cluster assignments are bit-identical for
// any worker count. ctx is checked before every split
// and inside each similarity search; each split is counted as
// CounterClustersSplit.
func fine(ctx context.Context, db *graph.DB, in []*Cluster, cfg Config, rng *rand.Rand) ([]*Cluster, error) {
	ctx, endStage := pipeline.Scope(ctx, pipeline.StageFine)
	defer endStage()
	tr := pipeline.From(ctx)
	anytime := resilience.From(ctx) != nil
	// Built on first use so the common no-oversize-clusters case costs
	// nothing.
	var eng *simcache.Engine
	engine := func() *simcache.Engine {
		if eng == nil {
			eng = simcache.New(db.Graphs, simcache.Options{
				Kind:   cfg.Strategy.simKind(),
				Budget: cfg.MCSBudget,
			})
		}
		return eng
	}

	var done []*Cluster
	var large []*Cluster
	for _, c := range in {
		if c.Len() > cfg.N {
			large = append(large, c)
		} else {
			done = append(done, c)
		}
	}

	// salvage accepts every unprocessed oversize cluster as-is (coarse-only
	// assignment) — the fine phase's best partial result under a deadline.
	salvage := func(rest []*Cluster, why string) []*Cluster {
		resilience.Count(ctx, "clusters_unsplit", int64(len(rest)))
		resilience.Degraded(ctx, fmt.Sprintf("%d oversize clusters left unsplit (%s)", len(rest), why))
		return append(done, rest...)
	}

	for len(large) > 0 {
		if err := ctx.Err(); err != nil {
			if cause := context.Cause(ctx); cause != nil {
				err = cause
			}
			if anytime && resilience.Salvageable(err) {
				return salvage(large, "deadline"), nil
			}
			return nil, err
		}
		if anytime && resilience.Overrun(ctx) {
			return salvage(large, "soft budget"), nil
		}
		cur := large[0]
		large = large[1:]

		// The split body runs under a panic guard: a contained fault keeps
		// cur with its coarse-only assignment and moves on to the next
		// oversize cluster. Without a controller, Guard runs it unguarded.
		var splitErr error
		fault := resilience.Guard(ctx, pipeline.StageFine, func() {
			tr.Add(pipeline.CounterClustersSplit, 1)

			// Seed1: random member. Seed2: member most dissimilar to Seed1.
			mi := rng.Intn(cur.Len())
			seed1 := cur.Members[mi]
			rest := make([]int, 0, cur.Len()-1)
			for _, m := range cur.Members {
				if m != seed1 {
					rest = append(rest, m)
				}
			}
			sims1, err := engine().BatchCtx(ctx, rest, seed1)
			if err != nil {
				splitErr = err
				return
			}
			seed2 := rest[0]
			worst := 2.0
			for i, m := range rest {
				if sims1[i] < worst {
					worst = sims1[i]
					seed2 = m
				}
			}

			rest2 := make([]int, 0, len(rest)-1)
			toSeed1 := make([]float64, 0, len(rest)-1)
			for i, m := range rest {
				if m != seed2 {
					rest2 = append(rest2, m)
					toSeed1 = append(toSeed1, sims1[i])
				}
			}
			sims2, err := engine().BatchCtx(ctx, rest2, seed2)
			if err != nil {
				splitErr = err
				return
			}

			c1 := &Cluster{Members: []int{seed1}}
			c2 := &Cluster{Members: []int{seed2}}
			for i, m := range rest2 {
				if toSeed1[i] > sims2[i] {
					c1.Members = append(c1.Members, m)
				} else {
					c2.Members = append(c2.Members, m)
				}
			}
			for _, nc := range []*Cluster{c1, c2} {
				if nc.Len() > cfg.N && nc.Len() < cur.Len() {
					large = append(large, nc)
				} else {
					// Either within budget or the split made no progress
					// (all graphs equally similar); accept to guarantee
					// termination.
					done = append(done, nc)
				}
			}
		})
		if fault != nil {
			resilience.Count(ctx, "clusters_unsplit", 1)
			done = append(done, cur)
			continue
		}
		if splitErr != nil {
			if anytime && resilience.Salvageable(splitErr) {
				return salvage(append([]*Cluster{cur}, large...), "deadline"), nil
			}
			return nil, splitErr
		}
	}
	return done, nil
}
