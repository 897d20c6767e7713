// Package core implements CATAPULT's canned pattern selection (Sec 5,
// Algorithm 4): weighted cluster summary graphs are sampled with weighted
// random walks to propose candidate patterns, candidates are scored on
// cluster coverage, label coverage, diversity and cognitive load (Eq 2),
// and the winning pattern's clusters and edge labels are discounted with
// multiplicative weight updates before the next round.
package core

import (
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/cover"
	"repro/internal/csg"
	"repro/internal/graph"
)

// Budget is the pattern budget b = (ηmin, ηmax, γ) of Definition 3.1.
// Sizes are counted in edges; ηmin must be > 2 per the paper (smaller
// patterns are basic GUI widgets, not canned patterns).
type Budget struct {
	EtaMin int // minimum pattern size (edges)
	EtaMax int // maximum pattern size (edges)
	Gamma  int // number of patterns to select
	// SizeDist optionally overrides the uniform size distribution (the
	// Ψdist extension of Sec 5): SizeDist[k] is the maximum number of
	// patterns of size k. When nil, each size in [EtaMin, EtaMax] gets at
	// most ceil(Gamma / (EtaMax-EtaMin+1)) patterns.
	SizeDist map[int]int
}

// Validate reports whether the budget is well-formed.
func (b Budget) Validate() error {
	if b.EtaMin <= 2 {
		return fmt.Errorf("core: ηmin must be > 2, got %d", b.EtaMin)
	}
	if b.EtaMax < b.EtaMin {
		return fmt.Errorf("core: ηmax (%d) < ηmin (%d)", b.EtaMax, b.EtaMin)
	}
	if b.Gamma <= 0 {
		return fmt.Errorf("core: γ must be positive, got %d", b.Gamma)
	}
	for k, q := range b.SizeDist {
		if k < b.EtaMin || k > b.EtaMax {
			return fmt.Errorf("core: SizeDist size %d outside [ηmin, ηmax]", k)
		}
		if q < 0 {
			return fmt.Errorf("core: SizeDist quota for size %d is negative", k)
		}
	}
	return nil
}

// quota returns the maximum number of patterns of size k.
func (b Budget) quota(k int) int {
	if b.SizeDist != nil {
		return b.SizeDist[k]
	}
	span := b.EtaMax - b.EtaMin + 1
	q := b.Gamma / span
	if b.Gamma%span != 0 {
		q++
	}
	return q
}

// Options tunes the selection algorithm.
type Options struct {
	// Walks is the number of random walks per (CSG, size) pair used to
	// build the PCP library (x in Algorithm 4). Default 20.
	Walks int
	// Seed drives the random walks.
	Seed int64
	// TopCSGs, when positive, restricts candidate proposals in each
	// iteration to the TopCSGs highest-weight CSGs. Bounds the per-
	// iteration VF2 cost on large clusterings; 0 proposes from all CSGs.
	TopCSGs int

	// QueryLog, when non-empty, enables the paper's sketched extension
	// (Sec 3.3 remark): the pattern score is additionally multiplied by
	// 1 + qfreq(p), where qfreq is the fraction of logged queries that
	// contain the candidate. CATAPULT stays log-oblivious by default —
	// logs are often unavailable in cold-start settings.
	QueryLog []*graph.Graph
}

func (o *Options) defaults() {
	if o.Walks <= 0 {
		o.Walks = 20
	}
}

// Pattern is a selected canned pattern with its score breakdown.
type Pattern struct {
	Graph *graph.Graph
	Score float64
	Ccov  float64 // estimated subgraph coverage via cluster weights
	Lcov  float64 // label coverage of the pattern alone
	Div   float64 // min GED to previously selected patterns (1 for the first)
	Cog   float64 // cognitive load |Ep|·ρp
	// SourceCSG is the index of the CSG that proposed the pattern.
	SourceCSG int
}

// Size returns the pattern size in edges.
func (p *Pattern) Size() int { return p.Graph.NumEdges() }

// Result is the output of Select.
type Result struct {
	Patterns []*Pattern
	// Iterations is the number of greedy rounds executed.
	Iterations int
	// Exhausted is true when selection stopped because no scoring
	// candidate remained, before reaching γ patterns.
	Exhausted bool
}

// Context carries the database-level statistics needed to score patterns:
// cluster weights, edge-label weights and per-label coverage sets.
type Context struct {
	DB   *graph.DB
	CSGs []*csg.CSG

	cw          []float64              // cluster weight per CSG
	elw         map[string]float64     // edge label weight (global lcov)
	labelGraphs map[string]*bitset.Set // graphs containing each edge label

	// Coverage engine (internal/cover) over the CSG summary graphs, built
	// lazily on first use, as a successor of coverPrev when one is set.
	coverOnce sync.Once
	coverPrev *cover.Engine
	coverEng  *cover.Engine

	// Query-log engine, built lazily per log slice (Options.QueryLog is
	// stable across one Select run).
	qlogMu  sync.Mutex
	qlogEng *cover.Engine
	qlog    []*graph.Graph
}

// NewContext builds selection context from a database and its CSGs
// (Algorithm 1, lines 4-5). Cluster weights are |Ci| / |D|; edge label
// weights are the global label coverage lcov(e, D).
func NewContext(db *graph.DB, csgs []*csg.CSG) *Context {
	sizes := make([]float64, len(csgs))
	for i, c := range csgs {
		sizes[i] = float64(len(c.Members))
	}
	return NewContextSized(db, csgs, sizes)
}

// NewContextSized builds selection context with explicit effective cluster
// sizes, used when lazy sampling shrank clusters before CSG generation: a
// CSG built from a sample still represents its full cluster, so its weight
// should reflect the original size (Sec 4.3).
func NewContextSized(db *graph.DB, csgs []*csg.CSG, effectiveSizes []float64) *Context {
	ctx := &Context{
		DB:          db,
		CSGs:        csgs,
		cw:          make([]float64, len(csgs)),
		elw:         make(map[string]float64),
		labelGraphs: make(map[string]*bitset.Set),
	}
	for i := range csgs {
		ctx.cw[i] = effectiveSizes[i] / float64(db.Len())
	}
	for gi, g := range db.Graphs {
		seen := make(map[string]struct{})
		for _, e := range g.Edges() {
			l := g.EdgeLabel(e.U, e.V)
			if _, dup := seen[l]; dup {
				continue
			}
			seen[l] = struct{}{}
			s, ok := ctx.labelGraphs[l]
			if !ok {
				s = bitset.New(db.Len())
				ctx.labelGraphs[l] = s
			}
			s.Add(gi)
		}
	}
	for l, s := range ctx.labelGraphs {
		ctx.elw[l] = float64(s.Count()) / float64(db.Len())
	}
	return ctx
}

// CarryVerdicts makes the context's coverage engine a successor of prev
// (cover.NewSuccessor): a CSG graph this context shares with prev's hosts
// answers ccov's memo misses from prev's memo. It must be called before
// the context is first used; a nil prev changes nothing.
func (sc *Context) CarryVerdicts(prev *cover.Engine) { sc.coverPrev = prev }

// CoverEngine returns the coverage engine over the CSG summary graphs,
// building it on first use.
func (sc *Context) CoverEngine() *cover.Engine {
	sc.coverOnce.Do(func() {
		hosts := make([]*graph.Graph, len(sc.CSGs))
		for i, c := range sc.CSGs {
			hosts[i] = c.G
		}
		sc.coverEng = cover.NewSuccessor(sc.coverPrev, hosts)
	})
	return sc.coverEng
}

// queryLogEngine returns a coverage engine over the logged queries,
// rebuilding only when the log slice changes identity.
func (sc *Context) queryLogEngine(log []*graph.Graph) *cover.Engine {
	sc.qlogMu.Lock()
	defer sc.qlogMu.Unlock()
	if sc.qlogEng == nil || !sameGraphs(sc.qlog, log) {
		sc.qlogEng = cover.New(log)
		sc.qlog = log
	}
	return sc.qlogEng
}

func sameGraphs(a, b []*graph.Graph) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
