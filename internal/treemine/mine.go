package treemine

import (
	"context"
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/subiso"
)

// FrequentTree is a mined frequent free tree with its support information.
type FrequentTree struct {
	Pattern *graph.Graph // the tree as a graph pattern
	Canon   string       // canonical string identity
	Support []int        // indices (positions in the mined DB) of graphs containing it
}

// Frequency returns the relative support of the tree in a database of the
// given size.
func (f *FrequentTree) Frequency(dbSize int) float64 {
	if dbSize == 0 {
		return 0
	}
	return float64(len(f.Support)) / float64(dbSize)
}

// MineOptions configures frequent subtree mining.
type MineOptions struct {
	// MinSupport is the minimum relative support (min_fr in the paper),
	// e.g. 0.1 for 10%.
	MinSupport float64
	// MaxEdges caps the size of mined trees. Frequent subtrees are used as
	// clustering features, where small trees carry most of the signal
	// (footnote 8: "frequent subtrees describe crucial topology of graphs
	// but demand lower computational cost"). Default 4.
	MaxEdges int
}

func (o *MineOptions) defaults() {
	if o.MaxEdges <= 0 {
		o.MaxEdges = 4
	}
	if o.MinSupport <= 0 {
		o.MinSupport = 0.1
	}
}

// MineCtx enumerates frequent free subtrees of db by pattern growth (Chi et
// al. style): frequent single edges are grown one leaf at a time, with
// canonical-string deduplication and anti-monotone support pruning (a
// child's support is counted only within its parent's supporting graphs).
// The growth checks ctx between parent trees and returns ctx.Err() cleanly
// (no partial result), and the run is reported to the context's pipeline
// tracer as StageMine with CounterTreesMined.
func MineCtx(ctx context.Context, db *graph.DB, opts MineOptions) ([]*FrequentTree, error) {
	done := pipeline.StartStage(ctx, pipeline.StageMine)
	defer done()
	trees, err := mine(ctx, db, opts)
	if err != nil {
		return nil, err
	}
	pipeline.From(ctx).Add(pipeline.CounterTreesMined, int64(len(trees)))
	return trees, nil
}

func mine(ctx context.Context, db *graph.DB, opts MineOptions) ([]*FrequentTree, error) {
	opts.defaults()
	minCount := int(opts.MinSupport*float64(db.Len()) + 0.999999)
	if minCount < 1 {
		minCount = 1
	}

	// Level 1: frequent single-edge trees keyed by canonical edge label.
	type seed struct {
		a, b    string
		support []int
	}
	seedMap := make(map[string]*seed)
	for gi, g := range db.Graphs {
		seen := make(map[string]bool)
		for _, e := range g.Edges() {
			la, lb := g.Label(e.U), g.Label(e.V)
			if la > lb {
				la, lb = lb, la
			}
			key := la + "\x00" + lb
			if seen[key] {
				continue
			}
			seen[key] = true
			s, ok := seedMap[key]
			if !ok {
				s = &seed{a: la, b: lb}
				seedMap[key] = s
			}
			s.support = append(s.support, gi)
		}
	}

	// Global frequent vertex labels, used to propose leaf extensions.
	labelCount := make(map[string]int)
	for _, g := range db.Graphs {
		seen := make(map[string]bool)
		for v := 0; v < g.NumVertices(); v++ {
			l := g.Label(graph.VertexID(v))
			if !seen[l] {
				seen[l] = true
				labelCount[l]++
			}
		}
	}
	var freqLabels []string
	for l, c := range labelCount {
		if c >= minCount {
			freqLabels = append(freqLabels, l)
		}
	}
	sort.Strings(freqLabels)

	var level []*FrequentTree
	seenCanon := make(map[string]bool)
	for _, s := range seedMap {
		if len(s.support) < minCount {
			continue
		}
		g := graph.New(2, 1)
		u := g.AddVertex(s.a)
		v := g.AddVertex(s.b)
		g.MustAddEdge(u, v)
		c := CanonicalFreeTree(g)
		if seenCanon[c] {
			continue
		}
		seenCanon[c] = true
		level = append(level, &FrequentTree{Pattern: g, Canon: c, Support: s.support})
	}
	sortTrees(level)
	all := append([]*FrequentTree(nil), level...)

	// Pattern growth: attach one new leaf with a frequent label to every
	// vertex of every frequent tree of the previous level.
	for size := 2; size <= opts.MaxEdges && len(level) > 0; size++ {
		var next []*FrequentTree
		for _, ft := range level {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for attach := 0; attach < ft.Pattern.NumVertices(); attach++ {
				for _, nl := range freqLabels {
					cand := ft.Pattern.Clone()
					nv := cand.AddVertex(nl)
					cand.MustAddEdge(graph.VertexID(attach), nv)
					c := CanonicalFreeTree(cand)
					if seenCanon[c] {
						continue
					}
					seenCanon[c] = true
					var sup []int
					for _, gi := range ft.Support {
						if subiso.Contains(db.Graph(gi), cand) {
							sup = append(sup, gi)
						}
					}
					if len(sup) >= minCount {
						next = append(next, &FrequentTree{Pattern: cand, Canon: c, Support: sup})
					}
				}
			}
		}
		sortTrees(next)
		all = append(all, next...)
		level = next
	}
	return all, ctx.Err()
}

// sortTrees orders by support descending, then canon ascending for
// determinism.
func sortTrees(ts []*FrequentTree) {
	sort.Slice(ts, func(i, j int) bool {
		if len(ts[i].Support) != len(ts[j].Support) {
			return len(ts[i].Support) > len(ts[j].Support)
		}
		return ts[i].Canon < ts[j].Canon
	})
}

// RecountCtx recomputes every tree's support over db and drops trees
// below minSupport, with cooperative cancellation checked between trees
// (each tree costs one VF2 containment test per database graph). Used by
// the eager-sampling pipeline (Sec 4.3): trees are mined on a sample at a
// lowered threshold low_fr, then verified against the full database at
// the original threshold min_fr.
func RecountCtx(ctx context.Context, db *graph.DB, trees []*FrequentTree, minSupport float64) ([]*FrequentTree, error) {
	minCount := int(minSupport*float64(db.Len()) + 0.999999)
	if minCount < 1 {
		minCount = 1
	}
	var out []*FrequentTree
	for _, t := range trees {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var sup []int
		for gi, g := range db.Graphs {
			if subiso.Contains(g, t.Pattern) {
				sup = append(sup, gi)
			}
		}
		if len(sup) >= minCount {
			out = append(out, &FrequentTree{Pattern: t.Pattern, Canon: t.Canon, Support: sup})
		}
	}
	sortTrees(out)
	return out, nil
}

// FeatureVectorsCtx builds the |Tsel|-dimensional binary feature vector
// of every graph in db (Algorithm 2, lines 3-10): bit j is set iff the
// graph contains tree j. Support lists recorded during mining accelerate
// the common case where db is the mined database itself; containment is
// verified with VF2 otherwise. The parallel per-graph loop stops claiming
// graphs once ctx is cancelled.
func FeatureVectorsCtx(ctx context.Context, db *graph.DB, sel []*FrequentTree) ([][]bool, error) {
	vecs := make([][]bool, db.Len())
	err := par.ForCtx(ctx, db.Len(), func(i int) {
		vecs[i] = make([]bool, len(sel))
		g := db.Graph(i)
		for j, ft := range sel {
			vecs[i][j] = subiso.Contains(g, ft.Pattern)
		}
	})
	if err != nil {
		return nil, err
	}
	return vecs, nil
}
