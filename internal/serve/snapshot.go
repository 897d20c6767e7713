// Snapshot construction: the immutable unit of serving. A Tenant publishes
// a *Snapshot through an atomic.Pointer; request handlers load it once and
// answer entirely from it, so a concurrent refresh can never tear a
// response — every response is internally consistent with the snapshot's
// own stats, and readers never block on writers.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/suggest"
)

// State is the input to a snapshot build: what a pattern source (the
// transactional Maintainer, via its export hook) currently serves. The
// slices and graphs must be immutable-by-replacement: a refresh installs
// new slices rather than mutating the old ones, so a State captured before
// the swap stays valid forever.
type State struct {
	// Dataset names the underlying database.
	Dataset string
	// DB is the current database; search answers containment against its
	// graphs.
	DB *graph.DB
	// Patterns is the current canned pattern set.
	Patterns []*core.Pattern
	// Clusters holds the member indices of each cluster.
	Clusters [][]int
}

// Source is the serving layer's view of a pattern maintainer. State must be
// cheap (no copying of graph data, just slice headers); Refresh may be
// arbitrarily expensive — the Tenant serializes Refresh calls and keeps
// serving the previous snapshot until a new one is built. Implementations
// must be safe for concurrent use.
type Source interface {
	// State returns the current pattern set and database.
	State() State
	// Refresh absorbs new graphs (nil means "retry pending work, if any")
	// into the source. On error the source must keep its last-good state.
	Refresh(ctx context.Context, gs []*graph.Graph) error
}

// Stats identifies a snapshot and summarizes its contents. Every response
// of the v1 API embeds the serving snapshot's stats, so a client (or the
// load harness) can check each response for internal consistency: the
// pattern array length must equal Stats.Patterns, hit indices must stay
// below Stats.Graphs, and Version must never regress.
type Stats struct {
	Tenant   string `json:"tenant"`
	Version  uint64 `json:"version"`
	Dataset  string `json:"dataset"`
	Patterns int    `json:"patterns"`
	Clusters int    `json:"clusters"`
	Graphs   int    `json:"graphs"`
	// Labels and GraphBytes are the frozen-database statistics captured at
	// snapshot build time (graph.DB.Freeze): shared-interner cardinality
	// and the flat CSR footprint of the hosts the search endpoint matches
	// against.
	Labels     int   `json:"labels"`
	GraphBytes int64 `json:"graph_bytes"`
}

// PatternView is the JSON projection of one canned pattern as served by
// GET /v1/patterns. Text is the pattern graph in transaction text format —
// directly postable to /v1/search as a query.
type PatternView struct {
	Index    int     `json:"index"`
	Vertices int     `json:"vertices"`
	Edges    int     `json:"edges"`
	Score    float64 `json:"score"`
	Ccov     float64 `json:"ccov"`
	Lcov     float64 `json:"lcov"`
	Div      float64 `json:"div"`
	Cog      float64 `json:"cog"`
	Text     string  `json:"text"`
}

// PatternsResponse is the GET /v1/patterns payload.
type PatternsResponse struct {
	Stats    Stats         `json:"stats"`
	Patterns []PatternView `json:"patterns"`
}

// SearchResponse is the POST /v1/search payload: the database graphs (by
// index into the snapshot's database) that contain the posted query graph.
type SearchResponse struct {
	Stats   Stats `json:"stats"`
	Matches int   `json:"matches"`
	Graphs  []int `json:"graphs"`
}

// CoverageEntry is one pattern's containment coverage over the snapshot's
// database.
type CoverageEntry struct {
	Pattern  int     `json:"pattern"`
	Count    int     `json:"count"`
	Fraction float64 `json:"fraction"`
}

// CoverageResponse is the GET /v1/coverage payload.
type CoverageResponse struct {
	Stats    Stats           `json:"stats"`
	Coverage []CoverageEntry `json:"coverage"`
}

// RefreshResponse is the POST /v1/tenants/{id}/refresh payload: the stats
// of the snapshot installed by the refresh.
type RefreshResponse struct {
	Stats Stats `json:"stats"`
	Added int   `json:"added"`
}

// SuggestionView is one ranked completion as served by POST /v1/suggest:
// the engine's suggestion plus the pattern in transaction text format, so
// a client can apply the completion (or post it straight to /v1/search)
// without a second round trip to /v1/patterns.
type SuggestionView struct {
	suggest.Suggestion
	Text string `json:"text"`
}

// SuggestResponse is the POST /v1/suggest payload. Suggest carries the
// engine's per-call stats — how far the prune → verify → rank ladder got
// under the keystroke budget — so clients and the load harness can tell a
// full ranking from a degraded prefix.
type SuggestResponse struct {
	Stats       Stats            `json:"stats"`
	Suggest     suggest.Stats    `json:"suggest"`
	Suggestions []SuggestionView `json:"suggestions"`
}

// Snapshot is one immutable serving state: the pattern set rendered once at
// build time, a containment engine over the database (memoized verdicts,
// gindex pruning, parallel VF2), and the stats every response embeds.
// All methods are safe for concurrent use; nothing in a snapshot mutates
// after Build except the verdict memo and the lazily computed coverage
// table, both of which are internally synchronized.
type Snapshot struct {
	stats    Stats
	patterns []*core.Pattern
	db       *graph.DB
	engine   *cover.Engine

	// sugg is the autocompletion engine over this snapshot's pattern set;
	// its containment memo warms across keystrokes, users and coalesced
	// requests for the snapshot's lifetime. patternTexts are the
	// pre-rendered transaction-text forms /v1/suggest embeds per
	// suggestion.
	sugg         *suggest.Engine
	patternTexts []string

	// patternsBody is the pre-rendered GET /v1/patterns response. Serving
	// the hot endpoint is a single buffer write — no per-request encoding.
	patternsBody []byte

	// Coverage is computed once per snapshot, on first successful request;
	// concurrent requests coalesce on the mutex, and a failed attempt
	// (cancellation, deadline) is retried by the next caller instead of
	// poisoning the snapshot.
	coverageMu   sync.Mutex
	coverageBody []byte
}

// BuildSnapshot renders st into an immutable snapshot with the given
// identity. It freezes the database (warming the CSR matcher form) and
// builds the containment engine's path index once, off the request path.
func BuildSnapshot(tenant string, version uint64, st State) (*Snapshot, error) {
	if st.DB == nil {
		return nil, fmt.Errorf("serve: tenant %q: source state has no database", tenant)
	}
	fs := st.DB.Freeze()
	s := &Snapshot{
		stats: Stats{
			Tenant:     tenant,
			Version:    version,
			Dataset:    st.Dataset,
			Patterns:   len(st.Patterns),
			Clusters:   len(st.Clusters),
			Graphs:     st.DB.Len(),
			Labels:     fs.Labels,
			GraphBytes: fs.Bytes,
		},
		patterns: st.Patterns,
		db:       st.DB,
		engine:   cover.New(st.DB.Graphs, cover.Options{}),
		sugg:     suggest.NewEngine(st.Patterns),
	}
	views := make([]PatternView, len(st.Patterns))
	s.patternTexts = make([]string, len(st.Patterns))
	var buf bytes.Buffer
	for i, p := range st.Patterns {
		buf.Reset()
		if err := graph.WriteGraph(&buf, p.Graph); err != nil {
			return nil, fmt.Errorf("serve: render pattern %d: %w", i, err)
		}
		views[i] = PatternView{
			Index:    i,
			Vertices: p.Graph.NumVertices(),
			Edges:    p.Graph.NumEdges(),
			Score:    p.Score,
			Ccov:     p.Ccov,
			Lcov:     p.Lcov,
			Div:      p.Div,
			Cog:      p.Cog,
			Text:     buf.String(),
		}
		s.patternTexts[i] = views[i].Text
	}
	body, err := json.Marshal(PatternsResponse{Stats: s.stats, Patterns: views})
	if err != nil {
		return nil, fmt.Errorf("serve: render patterns: %w", err)
	}
	s.patternsBody = append(body, '\n')
	return s, nil
}

// Stats returns the snapshot's identity and summary.
func (s *Snapshot) Stats() Stats { return s.stats }

// Version returns the snapshot's monotone version number.
func (s *Snapshot) Version() uint64 { return s.stats.Version }

// Patterns returns the snapshot's canned pattern set. Callers must not
// modify the returned slice or its patterns.
func (s *Snapshot) Patterns() []*core.Pattern { return s.patterns }

// PatternsJSON returns the pre-rendered GET /v1/patterns body. Callers must
// not modify the returned slice.
func (s *Snapshot) PatternsJSON() []byte { return s.patternsBody }

// Search returns the indices of the snapshot's database graphs that contain
// q, via the memoized containment engine (gindex pruning + parallel VF2).
func (s *Snapshot) Search(ctx context.Context, q *graph.Graph) ([]int, error) {
	verdicts, err := s.engine.Verdicts(ctx, q)
	if err != nil {
		return nil, err
	}
	var hits []int
	for i, ok := range verdicts {
		if ok {
			hits = append(hits, i)
		}
	}
	return hits, nil
}

// Suggest ranks the snapshot's patterns as completions of the partial
// query q through the snapshot's memoized suggestion engine.
func (s *Snapshot) Suggest(ctx context.Context, q *graph.Graph, opts suggest.Options) (*suggest.Result, error) {
	return s.sugg.SuggestCtx(ctx, q, opts)
}

// PatternText returns the i-th pattern in transaction text format, as
// pre-rendered at snapshot build time.
func (s *Snapshot) PatternText(i int) string { return s.patternTexts[i] }

// CoverageJSON returns the GET /v1/coverage body: per-pattern containment
// counts over the snapshot's database, computed once per snapshot on first
// successful request (later and concurrent requests reuse the rendered
// bytes).
func (s *Snapshot) CoverageJSON(ctx context.Context) ([]byte, error) {
	s.coverageMu.Lock()
	defer s.coverageMu.Unlock()
	if s.coverageBody != nil {
		return s.coverageBody, nil
	}
	entries := make([]CoverageEntry, len(s.patterns))
	for i, p := range s.patterns {
		n, err := s.engine.Count(ctx, p.Graph)
		if err != nil {
			return nil, err
		}
		frac := 0.0
		if s.stats.Graphs > 0 {
			frac = float64(n) / float64(s.stats.Graphs)
		}
		entries[i] = CoverageEntry{Pattern: i, Count: n, Fraction: frac}
	}
	body, err := json.Marshal(CoverageResponse{Stats: s.stats, Coverage: entries})
	if err != nil {
		return nil, err
	}
	s.coverageBody = append(body, '\n')
	return s.coverageBody, nil
}
