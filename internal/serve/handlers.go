// HTTP handlers of the v1 pattern API. Every handler runs behind the
// admission layer and the metrics wrapper; read handlers answer entirely
// from one atomically loaded snapshot, so concurrent refreshes can never
// tear a response.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/resilience"
	"repro/internal/suggest"
)

// searchBudget bounds a coalesced containment evaluation: detached from the
// leader request's cancellation (so a leader disconnect cannot poison
// followers) but still deadline-bounded, with the budget-exhaustion cause.
const searchBudget = 10 * time.Second

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// instrument wraps h with admission control and the per-endpoint metrics:
// in-flight gauge, duration histogram, request counter by status code, and
// the shed counter for 429s.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		release, err := s.adm.admit(r.Context())
		if err != nil {
			s.shed(w, endpoint, err)
			return
		}
		defer release()
		if s.met != nil {
			s.met.inflight.Add(1)
			defer s.met.inflight.Add(-1)
		}
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		if s.met != nil {
			s.met.duration.With(endpoint).ObserveSince(start)
			s.met.requests.With(endpoint, strconv.Itoa(sw.code)).Inc()
		}
	}
}

// shed answers a request the admission layer rejected: 429 with a
// Retry-After hint, counted separately from served requests.
func (s *Server) shed(w http.ResponseWriter, endpoint string, cause error) {
	w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
	http.Error(w, "overloaded: "+cause.Error(), http.StatusTooManyRequests)
	if s.met != nil {
		s.met.shed.Inc()
		s.met.requests.With(endpoint, strconv.Itoa(http.StatusTooManyRequests)).Inc()
	}
}

// tenantOf resolves the request's tenant from the ?tenant= parameter
// (DefaultTenant when absent). A nil return means the 404 was written.
func (s *Server) tenantOf(w http.ResponseWriter, r *http.Request) *Tenant {
	id := r.URL.Query().Get("tenant")
	if id == "" {
		id = DefaultTenant
	}
	t := s.Tenant(id)
	if t == nil {
		http.Error(w, fmt.Sprintf("unknown tenant %q", id), http.StatusNotFound)
	}
	return t
}

// setVersion names the snapshot a response answers from. Every handler
// that answers from one snapshot sets it, so a client can check the header
// against the body's stats.version.
func setVersion(w http.ResponseWriter, snap *Snapshot) {
	w.Header().Set("X-Snapshot-Version", strconv.FormatUint(snap.Version(), 10))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// handlePatterns serves the pre-rendered pattern panel of the tenant's
// current snapshot: one pointer load, one buffer write.
func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	snap := t.Snapshot()
	body := snap.PatternsJSON()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	setVersion(w, snap)
	_, _ = w.Write(body)
}

// handleSearch answers exact subgraph-containment search: the body is one
// query graph in transaction text format; the response lists the indices
// of the snapshot's database graphs containing it. Identical in-flight
// queries (same tenant, same snapshot, isomorphic query) are coalesced
// into one evaluation.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	qdb, err := graph.Read(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), "query")
	if err != nil {
		http.Error(w, fmt.Sprintf("bad query: %v", err), http.StatusBadRequest)
		return
	}
	if qdb.Len() != 1 {
		http.Error(w, fmt.Sprintf("need exactly one query graph, got %d", qdb.Len()), http.StatusBadRequest)
		return
	}
	q := qdb.Graph(0)
	snap := t.Snapshot()

	// Coalescing key: tenant + snapshot version + canonical form. The
	// version pin guarantees every follower receives a result computed on
	// the exact snapshot its response stats describe.
	key := fmt.Sprintf("%s\x00%d\x00%s", t.ID(), snap.Version(), canon.String(q))
	v, err, shared := s.flight.Do(key, func() (any, error) {
		ctx, cancel := context.WithDeadlineCause(context.WithoutCancel(r.Context()),
			time.Now().Add(searchBudget), resilience.ErrBudgetExhausted)
		defer cancel()
		return snap.Search(ctx, q)
	})
	if shared && s.met != nil {
		s.met.coalesced.Inc()
	}
	if err != nil {
		if errors.Is(err, resilience.ErrBudgetExhausted) {
			s.shed(w, "search", err)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	hits := v.([]int)
	setVersion(w, snap)
	writeJSON(w, SearchResponse{Stats: snap.Stats(), Matches: len(hits), Graphs: hits})
}

// handleSuggest answers the per-keystroke autocompletion call: the body
// is one partial query graph in transaction text format; the response is
// the top-k canned patterns of the tenant's snapshot ranked as
// completions, with the engine's degradation stats. Identical in-flight
// keystrokes (same tenant, snapshot, top-k and isomorphic partial — every
// user typing the same prefix of a popular query) coalesce into one
// engine call, and the snapshot's verdict memo makes replays cache hits.
// The suggestion engine degrades under its own budget instead of erroring,
// so unlike /v1/search a slow keystroke still answers 200 with a ranked
// prefix; only admission shedding answers 429.
func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	qdb, err := graph.Read(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), "partial")
	if err != nil {
		http.Error(w, fmt.Sprintf("bad partial query: %v", err), http.StatusBadRequest)
		return
	}
	if qdb.Len() != 1 {
		http.Error(w, fmt.Sprintf("need exactly one partial query graph, got %d", qdb.Len()), http.StatusBadRequest)
		return
	}
	q := qdb.Graph(0)
	opts := s.opts.Suggest
	if ks := r.URL.Query().Get("k"); ks != "" {
		k, err := strconv.Atoi(ks)
		if err != nil || k <= 0 {
			http.Error(w, fmt.Sprintf("bad k %q", ks), http.StatusBadRequest)
			return
		}
		opts.TopK = k
	}
	snap := t.Snapshot()

	// Coalescing key: endpoint + tenant + snapshot version + top-k +
	// canonical partial form (the endpoint prefix keeps suggest and
	// search flights for the same query graph apart).
	key := fmt.Sprintf("suggest\x00%s\x00%d\x00%d\x00%s", t.ID(), snap.Version(), opts.TopK, canon.String(q))
	v, err, shared := s.flight.Do(key, func() (any, error) {
		// The outer deadline is a backstop for unbudgeted configurations;
		// the engine's own keystroke budget fires far earlier.
		ctx, cancel := context.WithDeadlineCause(context.WithoutCancel(r.Context()),
			time.Now().Add(searchBudget), resilience.ErrBudgetExhausted)
		defer cancel()
		return snap.Suggest(ctx, q, opts)
	})
	if shared && s.met != nil {
		s.met.suggestCoalesced.Inc()
	}
	if err != nil {
		if errors.Is(err, resilience.ErrBudgetExhausted) {
			s.shed(w, "suggest", err)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	res := v.(*suggest.Result)
	if s.met != nil {
		s.met.suggestKeystroke.Observe(res.Stats.Elapsed.Seconds())
		s.met.suggestReturned.Observe(float64(len(res.Suggestions)))
		if res.Stats.Degraded {
			s.met.suggestDegraded.With(res.Stats.DegradeReason).Inc()
		}
	}
	views := make([]SuggestionView, len(res.Suggestions))
	for i, sg := range res.Suggestions {
		views[i] = SuggestionView{Suggestion: sg, Text: snap.PatternText(sg.Pattern)}
	}
	setVersion(w, snap)
	writeJSON(w, SuggestResponse{Stats: snap.Stats(), Suggest: res.Stats, Suggestions: views})
}

// handleCoverage serves the per-pattern containment coverage of the
// tenant's current snapshot (computed once per snapshot, then cached).
func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	t := s.tenantOf(w, r)
	if t == nil {
		return
	}
	snap := t.Snapshot()
	ctx, cancel := context.WithDeadlineCause(context.WithoutCancel(r.Context()),
		time.Now().Add(searchBudget), resilience.ErrBudgetExhausted)
	defer cancel()
	body, err := snap.CoverageJSON(ctx)
	if err != nil {
		if errors.Is(err, resilience.ErrBudgetExhausted) {
			s.shed(w, "coverage", err)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	setVersion(w, snap)
	_, _ = w.Write(body)
}

// handleRefresh triggers a tenant refresh: the optional body is a batch of
// graphs in transaction text format to absorb (an empty body retries
// pending work). The refresh runs under the tenant's refresh lock; readers
// keep serving the previous snapshot until the new one is swapped in.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	t := s.Tenant(r.PathValue("id"))
	if t == nil {
		http.Error(w, fmt.Sprintf("unknown tenant %q", r.PathValue("id")), http.StatusNotFound)
		return
	}
	var gs []*graph.Graph
	if r.ContentLength != 0 {
		gdb, err := graph.Read(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), "refresh")
		if err != nil {
			http.Error(w, fmt.Sprintf("bad refresh batch: %v", err), http.StatusBadRequest)
			return
		}
		gs = gdb.Graphs
	}
	snap, err := t.Refresh(r.Context(), gs)
	if err != nil {
		http.Error(w, fmt.Sprintf("refresh failed (still serving last-good snapshot): %v", err),
			http.StatusInternalServerError)
		return
	}
	setVersion(w, snap)
	writeJSON(w, RefreshResponse{Stats: snap.Stats(), Added: len(gs)})
}

// handleTenants lists the registered tenants with their snapshot stats.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	ids := s.TenantIDs()
	out := make([]Stats, 0, len(ids))
	for _, id := range ids {
		if t := s.Tenant(id); t != nil {
			out = append(out, t.Snapshot().Stats())
		}
	}
	writeJSON(w, struct {
		Tenants []Stats `json:"tenants"`
	}{out})
}
