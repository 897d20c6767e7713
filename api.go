package catapult

// This file closes the internal-type leak in the facade: every internal
// type that appears in the package's exported signatures is re-exported
// here as a root-package alias, so an external module can configure a run,
// consume its full Result and wire up observability using only catapult.*
// names — `repro/internal/...` packages cannot be imported from outside
// this module. api_lock_test.go walks the exported surface with go/types
// and fails if an unaliased internal type ever reappears.

import (
	"io"

	"repro/internal/bignet"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/csg"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/suggest"
)

// Graph is a small labeled data graph (vertices with string labels,
// optionally labeled undirected edges). Construct with NewGraph, then
// AddVertex / AddEdge / SetEdgeLabel.
type Graph = graph.Graph

// VertexID identifies a vertex within one Graph (returned by
// Graph.AddVertex, accepted by Graph.AddEdge).
type VertexID = graph.VertexID

// DB is a database of data graphs. Construct with NewDB or ReadDB.
type DB = graph.DB

// Frozen is the immutable, cache-friendly form of a Graph: flat CSR
// adjacency arrays and interned label IDs, produced by Graph.Freeze() and
// consumed by the matcher hot paths. Freezing is memoized per graph and
// invalidated by mutation, so callers may freeze freely.
type Frozen = graph.Frozen

// Interner is the process-wide string↔LabelID table behind frozen graphs
// (graph.SharedInterner re-exported via SharedInterner).
type Interner = graph.Interner

// LabelID is a dense interned vertex-label identifier.
type LabelID = graph.LabelID

// FrozenStats summarizes a frozen database: graph count, distinct interned
// labels, and the flat-array memory footprint in bytes (DB.Freeze).
type FrozenStats = graph.FrozenStats

// SharedInterner returns the process-wide label interner used by every
// frozen graph.
func SharedInterner() *Interner { return graph.SharedInterner() }

// Budget is the pattern budget b = (ηmin, ηmax, γ) of Definition 3.1.
type Budget = core.Budget

// Pattern is a selected canned pattern with its score breakdown.
type Pattern = core.Pattern

// SelectionOptions tunes the pattern selector (Config.Selection).
type SelectionOptions = core.Options

// ClusterConfig controls small graph clustering (Config.Clustering).
type ClusterConfig = cluster.Config

// ClusterStrategy selects the clustering pipeline.
type ClusterStrategy = cluster.Strategy

// Clustering strategies, re-exported for external configuration.
const (
	// CoarseOnly runs only frequent-subtree k-means clustering.
	CoarseOnly = cluster.CoarseOnly
	// FineOnlyMCCS splits the whole database with MCCS fine clustering.
	FineOnlyMCCS = cluster.FineOnlyMCCS
	// FineOnlyMCS splits with (unconnected) MCS similarity.
	FineOnlyMCS = cluster.FineOnlyMCS
	// HybridMCCS runs coarse then MCCS fine clustering — the paper's
	// recommended configuration.
	HybridMCCS = cluster.HybridMCCS
	// HybridMCS runs coarse then MCS fine clustering.
	HybridMCS = cluster.HybridMCS
)

// CSG is a cluster summary graph (Sec 4.2), as returned in Result.CSGs.
type CSG = csg.CSG

// DegradationConfig is the anytime-degradation knob set
// (Config.Degradation).
type DegradationConfig = resilience.Config

// Health is the per-stage degradation report attached to Result.Health
// when degradation is enabled.
type Health = resilience.Health

// StageReport is the health record of one pipeline phase (Health.Stages).
type StageReport = resilience.StageReport

// StageFault describes one contained worker panic (Health.Faults).
type StageFault = resilience.StageFault

// Stage names one phase of the pipeline ("clustering", "mine", "coarse",
// "fine", "csg", "select", ...).
type Stage = pipeline.Stage

// Counter names a monotonically accumulated pipeline statistic; Result.
// Counters maps every counter of the run (vf2_calls, mcs_calls, ged_calls,
// cover_cache_hits/misses, simcache_hits/misses, walks, candidate
// statistics, and degrade_-prefixed resilience events) to its total.
type Counter = pipeline.Counter

// Observer receives pipeline execution events: stage start/end spans and
// counter deltas. Implementations must be safe for concurrent use — events
// arrive from parallel workers. Install one per run via Config.Observer,
// or on a context with pipeline.WithTrace inside this module.
type Observer = pipeline.Trace

// Metrics is a dependency-free, concurrency-safe metrics registry with
// OpenMetrics/Prometheus text exposition via its Handler method. Pass
// MetricsObserver(m) as Config.Observer to stream pipeline runs into it.
type Metrics = metrics.Registry

// NewMetrics returns an empty metrics registry. Serve m.Handler() on
// /metrics and install MetricsObserver(m) on runs to scrape per-stage
// latency histograms, pipeline counter totals, cache hit-ratio gauges and
// degradation counters.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// MetricsObserver adapts a metrics registry to the Observer interface:
// every stage span lands in catapult_stage_duration_seconds{stage=...},
// every counter delta in catapult_pipeline_events_total{counter=...}, with
// derived cover/simcache hit-ratio gauges and degradation counters.
// Multiple runs may share one observer; their metrics aggregate.
func MetricsObserver(m *Metrics) Observer { return metrics.NewTrace(m) }

// NewGraph returns an empty graph with capacity hints for n vertices and m
// edges.
func NewGraph(n, m int) *Graph { return graph.New(n, m) }

// NewDB builds a database from the given graphs, assigning sequential IDs.
func NewDB(name string, gs []*Graph) *DB { return graph.NewDB(name, gs) }

// ReadDB parses a database in the line-oriented transaction text format
// ("t # <id>" / "v <id> <label>" / "e <u> <v> [label]").
func ReadDB(r io.Reader, name string) (*DB, error) { return graph.Read(r, name) }

// WriteDB writes a database in the transaction text format read by ReadDB.
func WriteDB(w io.Writer, db *DB) error { return graph.Write(w, db) }

// PatternServer is the multi-tenant concurrent pattern service: lock-free
// snapshot reads on /v1/patterns, /v1/search and /v1/coverage, off-path
// refreshes via /v1/tenants/{id}/refresh, request coalescing and admission
// control. Create with NewPatternServer, register tenants with AddTenant
// (typically Maintainer.ServeSource()), and mount it as an http.Handler.
type PatternServer = serve.Server

// PatternServerOptions configures a PatternServer (metrics registry,
// suggest defaults).
type PatternServerOptions = serve.Options

// ServeSource supplies a tenant's pattern state and absorbs refresh
// batches; Maintainer.ServeSource() is the canonical implementation.
type ServeSource = serve.Source

// ServeDefaultTenant is the tenant id the API uses when a request names
// none.
const ServeDefaultTenant = serve.DefaultTenant

// ServeState is the immutable input captured into a serving snapshot
// (dataset name, database, patterns, clusters).
type ServeState = serve.State

// ServeSnapshot is one immutable published serving state: pre-rendered
// pattern panel, frozen database stats and a memoized containment engine.
type ServeSnapshot = serve.Snapshot

// ServeStats identifies a snapshot in every API response (tenant, version,
// pattern/cluster/graph counts, frozen byte size).
type ServeStats = serve.Stats

// ServeTenant is one registered pattern source with its atomically swapped
// snapshot.
type ServeTenant = serve.Tenant

// ServePatternView is one canned pattern as served by /v1/patterns (index,
// transaction text, score breakdown).
type ServePatternView = serve.PatternView

// ServePatternsResponse is the /v1/patterns payload.
type ServePatternsResponse = serve.PatternsResponse

// ServeSearchResponse is the /v1/search payload (matching graph indices on
// the snapshot the Stats describe).
type ServeSearchResponse = serve.SearchResponse

// ServeCoverageResponse is the /v1/coverage payload.
type ServeCoverageResponse = serve.CoverageResponse

// ServeCoverageEntry is one pattern's containment coverage of the
// snapshot's database (ServeCoverageResponse.Coverage).
type ServeCoverageEntry = serve.CoverageEntry

// ServeRefreshResponse is the /v1/tenants/{id}/refresh payload: the stats
// of the freshly swapped-in snapshot.
type ServeRefreshResponse = serve.RefreshResponse

// NewPatternServer builds an empty pattern service; add tenants with
// AddTenant and mount it on an HTTP server.
func NewPatternServer(opts PatternServerOptions) *PatternServer { return serve.NewServer(opts) }

// Suggester is the online query-autocompletion engine: given a partial
// query it prunes, verifies and ranks a pattern set as completions under
// an anytime per-keystroke budget. Create with NewSuggester (it memoizes
// containment verdicts across keystrokes) and call SuggestCtx per
// keystroke.
type Suggester = suggest.Engine

// SuggestOptions configures one suggestion call (or a server's defaults):
// top-k and the per-keystroke budget (0 = the ~100ms default, negative =
// unbudgeted).
type SuggestOptions = suggest.Options

// SuggestResult is one suggestion call's output: the ranked suggestions
// plus the per-call stats.
type SuggestResult = suggest.Result

// Suggestion is one ranked completion: the pattern index, whether the
// partial is contained in it, distance/overlap closeness, and the
// vertices/edges the completion would add.
type Suggestion = suggest.Suggestion

// SuggestStats reports how far one suggestion call's prune → verify →
// rank ladder got under its keystroke budget, including the first
// degradation reason when the budget cut work short.
type SuggestStats = suggest.Stats

// ServeSuggestResponse is the POST /v1/suggest payload: snapshot stats,
// the engine's per-call stats, and the ranked suggestions with pattern
// texts attached.
type ServeSuggestResponse = serve.SuggestResponse

// ServeSuggestionView is one suggestion as served by /v1/suggest: the
// engine's Suggestion plus the pattern in transaction text format.
type ServeSuggestionView = serve.SuggestionView

// NetworkOptions tunes large-network decomposition (Config.Network):
// region edge cap, representatives per region, and the sampling seed.
type NetworkOptions = bignet.Options

// NetworkLoadOptions tunes the streaming network loaders (builder size
// hints).
type NetworkLoadOptions = bignet.LoadOptions

// NetworkLoadStats reports what a streaming network load accepted and
// dropped (vertices, edges, labels; malformed / self-loop / duplicate
// lines).
type NetworkLoadStats = bignet.LoadStats

// NetworkRegion is one element of a network's edge partition: the edges
// claimed by one BFS-grown region, in claim order.
type NetworkRegion = bignet.Region

// NetworkDecomposition is the edge partition of a network plus the
// synthetic region-summary database the pipeline runs on.
type NetworkDecomposition = bignet.Decomposition

// StoredState is the full durable serving state captured in one CSNAP1
// snapshot: the database, the selected patterns, cluster membership and
// the Maintainer's retry bookkeeping. Produce
// one with Maintainer.SnapshotState, persist with SaveState, recover with
// LoadState, and resume with NewMaintainerFromState.
type StoredState = store.State

// StoredPattern is one canned pattern as persisted in a snapshot: the
// pattern graph plus its exact score breakdown (StoredState.Patterns).
type StoredPattern = store.Pattern

// SnapshotStore manages generation-numbered CSNAP1 snapshots in one
// directory: atomic durable writes (temp file, fsync, rename, directory
// fsync), bounded retention, newest-first verified recovery. Open one
// with OpenStateStore.
type SnapshotStore = store.Store

// StoreRecovery reports what a recovery scan did: the generation loaded,
// how many were examined, and every generation skipped as unverifiable
// with its typed fault. Feed it to ObserveRecovery for the
// catapult_store_* metrics.
type StoreRecovery = store.RecoveryInfo

// StoreSkippedGeneration is one snapshot generation recovery could not
// verify, with the typed corruption fault (StoreRecovery.Skipped).
type StoreSkippedGeneration = store.SkippedGeneration

// StoreCorruptError is the typed fault reported for any snapshot that
// fails verification — bad magic, CRC mismatch, truncation, hostile
// lengths. Recovery skips the generation and falls back; it never panics.
type StoreCorruptError = store.CorruptError

// ErrNoSnapshot is returned by LoadState when no verifiable snapshot
// exists; the accompanying StoreRecovery tells a clean cold start apart
// from a degraded one (every generation corrupt).
var ErrNoSnapshot = store.ErrNoSnapshot

// OpenStateStore opens (creating if needed) a snapshot store in dir.
func OpenStateStore(dir string) (*SnapshotStore, error) { return store.Open(dir) }
