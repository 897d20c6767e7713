package loadtest

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/bignet"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/serve"
)

// growingSource is a Source whose database grows on every refresh, with
// Maintainer-style replacement semantics (fresh slices per refresh). The
// initial state is pluggable, so the same replay harness runs against
// both the small-graph dataset and a bignet region-summary snapshot.
type growingSource struct {
	mu    sync.Mutex
	state serve.State
}

func chain(labels ...string) *graph.Graph {
	g := graph.New(len(labels), len(labels)-1)
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(graph.VertexID(i-1), graph.VertexID(i))
	}
	return g
}

func sourceFrom(st serve.State) *growingSource {
	return &growingSource{state: st}
}

func newGrowingSource() *growingSource {
	return sourceFrom(smallGraphState())
}

// smallGraphState is the original hand-built molecule-style snapshot.
func smallGraphState() serve.State {
	gs := []*graph.Graph{
		chain("C", "O", "N"),
		chain("C", "C", "O"),
		chain("N", "C", "O", "C"),
		chain("O", "O"),
	}
	patterns := []*core.Pattern{
		{Graph: chain("C", "O"), Score: 1, Ccov: 0.5, Lcov: 1, Div: 1, Cog: 1},
		{Graph: chain("C", "C"), Score: 0.8, Ccov: 0.4, Lcov: 1, Div: 1, Cog: 1},
	}
	members := make([]int, len(gs))
	for i := range gs {
		members[i] = i
	}
	return serve.State{
		Dataset:  "growing",
		DB:       graph.NewDB("growing", gs),
		Patterns: patterns,
		Clusters: [][]int{members},
	}
}

// bignetState decomposes a small generated R-MAT network and serves its
// region summaries: the DB is the synthetic per-region database and the
// pattern panel is drawn from the representatives, exactly the shape a
// NetworkSource-backed tenant exposes.
func bignetState(tb testing.TB) serve.State {
	tb.Helper()
	f := dataset.NetworkFrozen(dataset.NetworkConfig{
		Name: "load-net", Vertices: 256, Edges: 1500, Labels: 5, Seed: 7,
	})
	dec, err := bignet.Decompose(context.Background(), f, bignet.Options{
		Name: "load-net", MaxRegionEdges: 64, Reps: 2, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if len(dec.DB.Graphs) == 0 {
		tb.Fatal("decomposition produced no region summaries")
	}
	patterns := make([]*core.Pattern, 0, 4)
	for i, g := range dec.DB.Graphs {
		if i == 4 {
			break
		}
		patterns = append(patterns, &core.Pattern{
			Graph: g, Score: 1 - float64(i)*0.1, Ccov: 0.5, Lcov: 1, Div: 1, Cog: 1,
		})
	}
	members := make([]int, len(dec.DB.Graphs))
	for i := range members {
		members[i] = i
	}
	return serve.State{
		Dataset:  dec.DB.Name,
		DB:       dec.DB,
		Patterns: patterns,
		Clusters: [][]int{members},
	}
}

func (s *growingSource) State() serve.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

func (s *growingSource) Refresh(ctx context.Context, gs []*graph.Graph) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	all := append(append([]*graph.Graph(nil), s.state.DB.Graphs...), gs...)
	members := make([]int, len(all))
	for i := range all {
		members[i] = i
	}
	s.state = serve.State{
		Dataset:  s.state.Dataset,
		DB:       graph.NewDB(s.state.Dataset, all),
		Patterns: append([]*core.Pattern(nil), s.state.Patterns...),
		Clusters: [][]int{members},
	}
	return nil
}

// TestLoadReplayUnderConcurrentRefresh is the core -race assertion of the
// serving layer: simulated users hammer the read endpoints while a
// refresher swaps snapshots underneath them, and every response must be
// internally consistent — zero torn reads, zero version regressions, zero
// request errors. It runs once against the small-graph dataset and once
// against a bignet region-summary snapshot, so the large-network serving
// path replays through the same usersim harness.
func TestLoadReplayUnderConcurrentRefresh(t *testing.T) {
	cases := []struct {
		name  string
		state func(testing.TB) serve.State
	}{
		{"smallgraphs", func(testing.TB) serve.State { return smallGraphState() }},
		{"bignet", bignetState},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			replayUnderRefresh(t, sourceFrom(tc.state(t)))
		})
	}
}

func replayUnderRefresh(t *testing.T, src *growingSource) {
	s := serve.NewServer(serve.Options{})
	tn, err := s.AddTenant(serve.DefaultTenant, src)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	users := 32
	duration := 900 * time.Millisecond
	if testing.Short() {
		users, duration = 8, 300*time.Millisecond
	}

	// Refresher: continuous snapshot churn for the whole run.
	stop := make(chan struct{})
	refresherDone := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				refresherDone <- n
				return
			default:
			}
			g := chain("C", fmt.Sprintf("L%d", n))
			if _, err := tn.Refresh(context.Background(), []*graph.Graph{g}); err != nil {
				t.Errorf("refresh %d: %v", n, err)
				refresherDone <- n
				return
			}
			n++
		}
	}()

	res, err := Run(context.Background(), Options{
		BaseURL:        srv.URL,
		Users:          users,
		Seed:           42,
		Duration:       duration,
		ThinkScale:     0.001,
		SearchFraction: 0.3,
	})
	close(stop)
	refreshes := <-refresherDone
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("requests=%d rps=%.0f shed=%d refreshes=%d versions=[%d,%d] p50=%v p99=%v",
		res.Requests, res.RPS, res.Shed, refreshes, res.MinVersion, res.MaxVersion, res.P50, res.P99)
	if res.Requests == 0 {
		t.Fatal("no requests issued")
	}
	if res.Errors > 0 {
		t.Errorf("%d request errors (first: %s)", res.Errors, res.FirstError)
	}
	if !res.Consistent() {
		t.Errorf("consistency violated: %d torn reads, %d version regressions",
			res.TornReads, res.VersionRegressions)
	}
	if refreshes == 0 {
		t.Error("refresher made no progress; the run did not exercise snapshot churn")
	}
	if res.MaxVersion <= res.MinVersion {
		t.Errorf("users observed no version movement ([%d,%d]); churn not visible",
			res.MinVersion, res.MaxVersion)
	}
	if res.P99 <= 0 {
		t.Errorf("p99 = %v, want > 0 (latency histogram empty)", res.P99)
	}
}

// TestLoadDetectsServerErrors: a server with admission disabled but a
// tenant-less URL must surface request errors, not hang or panic.
func TestLoadDetectsServerErrors(t *testing.T) {
	s := serve.NewServer(serve.Options{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	res, err := Run(context.Background(), Options{
		BaseURL:  srv.URL,
		Users:    2,
		Duration: 100 * time.Millisecond,
		Tenant:   "ghost",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Error("404s not accounted as errors")
	}
}

// TestLoadShedAccounting: 429s must land in Result.Shed, never in
// Result.Errors. A stub server sheds every search deterministically (shed
// timing on a real server depends on scheduler collisions, which a
// single-CPU runner may never produce), while serving a valid pattern
// panel so users have queries to issue.
func TestLoadShedAccounting(t *testing.T) {
	src := newGrowingSource()
	real := serve.NewServer(serve.Options{})
	if _, err := real.AddTenant(serve.DefaultTenant, src); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/patterns", real.ServeHTTP)
	mux.HandleFunc("POST /v1/search", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded", http.StatusTooManyRequests)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	res, err := Run(context.Background(), Options{
		BaseURL:        srv.URL,
		Users:          4,
		Duration:       200 * time.Millisecond,
		SearchFraction: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Errorf("%d errors (first: %s); sheds must not count as errors", res.Errors, res.FirstError)
	}
	if res.Shed == 0 {
		t.Error("no sheds recorded against an always-shedding search endpoint")
	}
	if !res.Consistent() {
		t.Errorf("consistency violated under shedding: %+v", res)
	}
}

// TestLoadCountsVersionHeaderMismatchAsTorn: a 200 whose
// X-Snapshot-Version header is missing, or names another version than its
// body's stats.version, is a torn read. A proxy in front of a real server
// rewrites the header on one endpoint.
func TestLoadCountsVersionHeaderMismatchAsTorn(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		rewrite    func(http.Header)
	}{
		{"panel missing", "/v1/patterns", func(h http.Header) { h.Del("X-Snapshot-Version") }},
		{"search disagreeing", "/v1/search", func(h http.Header) { h.Set("X-Snapshot-Version", "999") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			real := serve.NewServer(serve.Options{})
			if _, err := real.AddTenant(serve.DefaultTenant, newGrowingSource()); err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				rec := httptest.NewRecorder()
				real.ServeHTTP(rec, r)
				for k, v := range rec.Header() {
					w.Header()[k] = v
				}
				if r.URL.Path == tc.path {
					tc.rewrite(w.Header())
				}
				w.WriteHeader(rec.Code)
				_, _ = w.Write(rec.Body.Bytes())
			}))
			defer srv.Close()

			res, err := Run(context.Background(), Options{
				BaseURL:        srv.URL,
				Users:          2,
				Duration:       200 * time.Millisecond,
				SearchFraction: 0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors > 0 {
				t.Fatalf("%d errors (first: %s)", res.Errors, res.FirstError)
			}
			if res.TornReads == 0 {
				t.Errorf("no torn reads counted in %d requests", res.Requests)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(sorted, 0.50); p != 5 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile(sorted, 0.99); p != 9 {
		t.Errorf("p99 = %v", p)
	}
	if p := percentile(sorted, 1.0); p != 10 {
		t.Errorf("p100 = %v", p)
	}
}
