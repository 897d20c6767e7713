// Package serve is the concurrent pattern-serving layer: a multi-tenant
// HTTP service in front of the transactional pattern Maintainer, built for
// many simultaneous GUI users fetching canned patterns at interactive
// latency (the workload CATAPULT's selection exists to feed — PAPER.md
// Sec 2, and the always-on interface of the plug-and-play successor).
//
// Architecture, in one paragraph: each tenant wraps a pattern Source (the
// Maintainer behind an adapter) and publishes an immutable *Snapshot
// through an atomic.Pointer. Reads — GET /v1/patterns, POST /v1/search,
// GET /v1/coverage — load the pointer once and answer entirely from the
// snapshot, so they are lock-free and can never observe a half-applied
// refresh; refreshes run off the request path under a per-tenant mutex,
// build the next snapshot on the side, and swap it in atomically (the
// copy-and-swap discipline the Maintainer already uses internally,
// extended to the serving tier). Identical in-flight search queries are
// coalesced singleflight-style on the query's canonical form, and an
// admission layer bounds concurrency, shedding excess load with 429 +
// Retry-After (deadline cause: resilience.ErrBudgetExhausted) instead of
// queueing unboundedly. Everything is observable through catapult_serve_*
// metrics on an internal/metrics registry.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/suggest"
)

// DefaultTenant is the tenant id used when a request names none.
const DefaultTenant = "default"

// DefaultMaxBodyBytes caps request bodies (query graphs, refresh batches).
const DefaultMaxBodyBytes = 1 << 20

// Options configures a Server.
type Options struct {
	// Admission bounds concurrent work; zero value adopts the defaults
	// (MaxInFlight DefaultMaxInFlight, MaxWait DefaultMaxWait). Set
	// MaxInFlight negative to disable admission control.
	Admission AdmissionConfig
	// Metrics, when non-nil, receives the catapult_serve_* families.
	Metrics *metrics.Registry
	// MaxBodyBytes caps request bodies (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Suggest configures the POST /v1/suggest autocompletion calls: the
	// per-keystroke budget, default top-k and candidate cap. The zero
	// value adopts the suggest package defaults (~100ms, top 5). A
	// request's ?k= parameter overrides TopK per call.
	Suggest suggest.Options
}

// Server is the multi-tenant pattern service. Create with NewServer, add
// tenants with AddTenant, and mount it (it implements http.Handler).
type Server struct {
	opts   Options
	mux    *http.ServeMux
	adm    *admission
	met    *serveMetrics
	flight flightGroup

	mu      sync.RWMutex
	tenants map[string]*Tenant
}

// NewServer builds an empty server; requests for tenants that were never
// added answer 404.
func NewServer(opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		adm:     newAdmission(opts.Admission),
		tenants: make(map[string]*Tenant),
	}
	if opts.Metrics != nil {
		s.met = newServeMetrics(opts.Metrics)
	}
	s.mux.HandleFunc("GET /v1/patterns", s.instrument("patterns", s.handlePatterns))
	s.mux.HandleFunc("POST /v1/search", s.instrument("search", s.handleSearch))
	s.mux.HandleFunc("POST /v1/suggest", s.instrument("suggest", s.handleSuggest))
	s.mux.HandleFunc("GET /v1/coverage", s.instrument("coverage", s.handleCoverage))
	s.mux.HandleFunc("POST /v1/tenants/{id}/refresh", s.instrument("refresh", s.handleRefresh))
	s.mux.HandleFunc("GET /v1/tenants", s.instrument("tenants", s.handleTenants))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// AddTenant registers a tenant backed by src and builds its first snapshot
// from the source's current state. Adding an existing id is an error.
func (s *Server) AddTenant(id string, src Source) (*Tenant, error) {
	if id == "" {
		return nil, fmt.Errorf("serve: empty tenant id")
	}
	t := &Tenant{id: id, src: src, met: s.met}
	snap, err := BuildSnapshot(id, 1, src.State())
	if err != nil {
		return nil, err
	}
	t.version = snap.Version()
	t.snap.Store(snap)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[id]; ok {
		return nil, fmt.Errorf("serve: tenant %q already registered", id)
	}
	s.tenants[id] = t
	s.met.observeSnapshot(snap.Stats())
	return t, nil
}

// Tenant returns the registered tenant, or nil.
func (s *Server) Tenant(id string) *Tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tenants[id]
}

// TenantIDs returns the registered tenant ids, sorted.
func (s *Server) TenantIDs() []string {
	s.mu.RLock()
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// Tenant serves one pattern source: an atomically swapped snapshot for
// lock-free reads, and a serialized refresh path.
type Tenant struct {
	id   string
	src  Source
	met  *serveMetrics
	snap atomic.Pointer[Snapshot]

	// refreshMu serializes refreshes; readers never take it.
	refreshMu sync.Mutex
	version   uint64 // last built snapshot version, guarded by refreshMu
}

// ID returns the tenant id.
func (t *Tenant) ID() string { return t.id }

// Snapshot returns the currently served snapshot (lock-free).
func (t *Tenant) Snapshot() *Snapshot { return t.snap.Load() }

// Refresh absorbs gs into the tenant's source (nil retries pending work),
// builds the next snapshot off the request path, and swaps it in. On any
// failure the last-good snapshot keeps serving and the error is returned;
// concurrent readers are never exposed to partial state. The source
// refreshes under par.WithSpareCore, so its parallel phases leave one core
// to the readers.
func (t *Tenant) Refresh(ctx context.Context, gs []*graph.Graph) (*Snapshot, error) {
	t.refreshMu.Lock()
	defer t.refreshMu.Unlock()
	if err := t.src.Refresh(par.WithSpareCore(ctx), gs); err != nil {
		if t.met != nil {
			t.met.refreshes.With(t.id, "error").Inc()
		}
		return nil, err
	}
	snap, err := BuildSnapshot(t.id, t.version+1, t.src.State())
	if err != nil {
		if t.met != nil {
			t.met.refreshes.With(t.id, "error").Inc()
		}
		return nil, err
	}
	t.version = snap.Version()
	t.snap.Store(snap)
	if t.met != nil {
		t.met.refreshes.With(t.id, "ok").Inc()
		t.met.observeSnapshot(snap.Stats())
	}
	return snap, nil
}
