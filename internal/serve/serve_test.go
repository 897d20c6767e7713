package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/par"
)

// fakeSource is a Source over a static database, with replacement-style
// refreshes like the real Maintainer: every Refresh installs fresh slices.
type fakeSource struct {
	mu    sync.Mutex
	state State
	fail  error // when set, Refresh fails without touching state
}

func pathGraph(labels ...string) *graph.Graph {
	g := graph.New(len(labels), len(labels)-1)
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(graph.VertexID(i-1), graph.VertexID(i))
	}
	return g
}

func newFakeSource(name string) *fakeSource {
	gs := []*graph.Graph{
		pathGraph("C", "O", "N"),
		pathGraph("C", "C", "C", "O"),
		pathGraph("N", "N"),
	}
	db := graph.NewDB(name, gs)
	return &fakeSource{state: State{
		Dataset:  name,
		DB:       db,
		Patterns: []*core.Pattern{{Graph: pathGraph("C", "O"), Score: 0.5, Ccov: 0.4, Lcov: 1, Div: 1, Cog: 1}},
		Clusters: [][]int{{0, 1, 2}},
	}}
}

func (f *fakeSource) State() State {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state
}

func (f *fakeSource) Refresh(ctx context.Context, gs []*graph.Graph) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		return f.fail
	}
	all := append(append([]*graph.Graph(nil), f.state.DB.Graphs...), gs...)
	members := make([]int, len(all))
	for i := range all {
		members[i] = i
	}
	f.state = State{
		Dataset:  f.state.Dataset,
		DB:       graph.NewDB(f.state.Dataset, all),
		Patterns: append([]*core.Pattern(nil), f.state.Patterns...),
		Clusters: [][]int{members},
	}
	return nil
}

func newTestServer(t *testing.T, opts Options) (*Server, *fakeSource) {
	t.Helper()
	src := newFakeSource("fake")
	s := NewServer(opts)
	if _, err := s.AddTenant(DefaultTenant, src); err != nil {
		t.Fatal(err)
	}
	return s, src
}

func doReq(s *Server, method, path, body string) *httptest.ResponseRecorder {
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, r)
	return rec
}

func decodePatterns(t *testing.T, body []byte) PatternsResponse {
	t.Helper()
	var out PatternsResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad patterns JSON: %v\n%s", err, body)
	}
	return out
}

func TestPatternsEndpointConsistentPayload(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	rec := doReq(s, http.MethodGet, "/v1/patterns", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	out := decodePatterns(t, rec.Body.Bytes())
	if out.Stats.Tenant != DefaultTenant || out.Stats.Version != 1 || out.Stats.Dataset != "fake" {
		t.Errorf("stats identity wrong: %+v", out.Stats)
	}
	if p := out.Patterns[0]; p.Vertices != 2 || p.Edges != 1 || p.Score != 0.5 {
		t.Errorf("pattern view wrong: %+v", p)
	}
	if len(out.Patterns) != out.Stats.Patterns {
		t.Errorf("torn payload: %d patterns vs stats.patterns=%d", len(out.Patterns), out.Stats.Patterns)
	}
	if out.Stats.Graphs != 3 || out.Stats.Labels <= 0 || out.Stats.GraphBytes <= 0 {
		t.Errorf("frozen db stats missing: %+v", out.Stats)
	}
	// The pattern text must round-trip as a search query.
	if _, err := graph.Read(strings.NewReader(out.Patterns[0].Text), "q"); err != nil {
		t.Errorf("pattern text not parseable: %v", err)
	}
}

func TestSearchEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	// C-O occurs in graphs 0 and 1, not 2.
	rec := doReq(s, http.MethodPost, "/v1/search", "t # 0\nv 0 C\nv 1 O\ne 0 1\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Matches != 2 || len(out.Graphs) != 2 || out.Graphs[0] != 0 || out.Graphs[1] != 1 {
		t.Errorf("search result wrong: %+v", out)
	}
	if out.Stats.Version != 1 || out.Stats.Graphs != 3 {
		t.Errorf("stats wrong: %+v", out.Stats)
	}
}

func TestSearchErrors(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad body", http.MethodPost, "/v1/search", "garbage", http.StatusBadRequest},
		{"two graphs", http.MethodPost, "/v1/search", "t # 0\nv 0 C\nt # 1\nv 0 C\n", http.StatusBadRequest},
		{"wrong method", http.MethodGet, "/v1/search", "", http.StatusMethodNotAllowed},
		{"unknown tenant", http.MethodPost, "/v1/search?tenant=nope", "t # 0\nv 0 C\n", http.StatusNotFound},
	} {
		if rec := doReq(s, tc.method, tc.path, tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
}

func TestCoverageEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	rec := doReq(s, http.MethodGet, "/v1/coverage", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out CoverageResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Coverage) != out.Stats.Patterns {
		t.Fatalf("coverage entries %d != stats.patterns %d", len(out.Coverage), out.Stats.Patterns)
	}
	// Pattern C-O is contained in 2 of the 3 graphs.
	if out.Coverage[0].Count != 2 {
		t.Errorf("coverage count = %d, want 2", out.Coverage[0].Count)
	}
	// Second request serves the cached render.
	rec2 := doReq(s, http.MethodGet, "/v1/coverage", "")
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Error("second coverage response differs from first")
	}
}

func TestRefreshSwapsSnapshotAndBumpsVersion(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	before := decodePatterns(t, doReq(s, http.MethodGet, "/v1/patterns", "").Body.Bytes())

	rec := doReq(s, http.MethodPost, "/v1/tenants/default/refresh", "t # 0\nv 0 C\nv 1 N\ne 0 1\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("refresh status %d: %s", rec.Code, rec.Body.String())
	}
	var out RefreshResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Added != 1 || out.Stats.Version != before.Stats.Version+1 || out.Stats.Graphs != before.Stats.Graphs+1 {
		t.Errorf("refresh response wrong: %+v (before %+v)", out, before.Stats)
	}

	after := decodePatterns(t, doReq(s, http.MethodGet, "/v1/patterns", "").Body.Bytes())
	if after.Stats.Version != out.Stats.Version || after.Stats.Graphs != out.Stats.Graphs {
		t.Errorf("served snapshot not swapped: %+v", after.Stats)
	}
}

func TestFailedRefreshKeepsLastGoodSnapshot(t *testing.T) {
	s, src := newTestServer(t, Options{})
	before := decodePatterns(t, doReq(s, http.MethodGet, "/v1/patterns", "").Body.Bytes())

	src.mu.Lock()
	src.fail = errors.New("injected refresh failure")
	src.mu.Unlock()
	rec := doReq(s, http.MethodPost, "/v1/tenants/default/refresh", "t # 0\nv 0 C\n")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("failed refresh status %d, want 500", rec.Code)
	}

	after := decodePatterns(t, doReq(s, http.MethodGet, "/v1/patterns", "").Body.Bytes())
	if after.Stats != before.Stats {
		t.Errorf("snapshot changed across failed refresh: %+v -> %+v", before.Stats, after.Stats)
	}
}

func TestRefreshUnknownTenantAndWrongMethod(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	if rec := doReq(s, http.MethodPost, "/v1/tenants/nope/refresh", ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown tenant: status %d", rec.Code)
	}
	if rec := doReq(s, http.MethodGet, "/v1/tenants/default/refresh", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET refresh: status %d", rec.Code)
	}
}

// TestSnapshotVersionHeaderMatchesBody: every endpoint that answers from
// one snapshot names it in X-Snapshot-Version, and the header equals the
// stats.version embedded in the body. The refresh row runs first, so the
// reads that follow answer from version 2.
func TestSnapshotVersionHeaderMatchesBody(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	query := "t # 0\nv 0 C\nv 1 O\ne 0 1\n"
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/tenants/default/refresh", query},
		{http.MethodGet, "/v1/patterns", ""},
		{http.MethodPost, "/v1/search", query},
		{http.MethodPost, "/v1/suggest", query},
		{http.MethodGet, "/v1/coverage", ""},
	} {
		rec := doReq(s, tc.method, tc.path, tc.body)
		if rec.Code != http.StatusOK {
			t.Errorf("%s %s: status %d: %s", tc.method, tc.path, rec.Code, rec.Body.String())
			continue
		}
		var out struct {
			Stats Stats `json:"stats"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Errorf("%s %s: bad JSON: %v", tc.method, tc.path, err)
			continue
		}
		got := rec.Header().Get("X-Snapshot-Version")
		if got != strconv.FormatUint(out.Stats.Version, 10) || out.Stats.Version != 2 {
			t.Errorf("%s %s: X-Snapshot-Version %q, body stats.version %d, want both 2",
				tc.method, tc.path, got, out.Stats.Version)
		}
	}
}

func TestMultiTenantIsolation(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	other := newFakeSource("other")
	if _, err := s.AddTenant("other", other); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddTenant("other", other); err == nil {
		t.Error("duplicate AddTenant succeeded")
	}

	// Refresh only the "other" tenant; default must keep version 1.
	if rec := doReq(s, http.MethodPost, "/v1/tenants/other/refresh", "t # 0\nv 0 C\n"); rec.Code != http.StatusOK {
		t.Fatalf("refresh other: %d", rec.Code)
	}
	def := decodePatterns(t, doReq(s, http.MethodGet, "/v1/patterns", "").Body.Bytes())
	oth := decodePatterns(t, doReq(s, http.MethodGet, "/v1/patterns?tenant=other", "").Body.Bytes())
	if def.Stats.Version != 1 {
		t.Errorf("default tenant version moved: %+v", def.Stats)
	}
	if oth.Stats.Version != 2 || oth.Stats.Dataset != "other" {
		t.Errorf("other tenant wrong: %+v", oth.Stats)
	}

	rec := doReq(s, http.MethodGet, "/v1/tenants", "")
	var list struct {
		Tenants []Stats `json:"tenants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Tenants) != 2 || list.Tenants[0].Tenant != "default" || list.Tenants[1].Tenant != "other" {
		t.Errorf("tenant list wrong: %+v", list.Tenants)
	}
}

func TestServeMetricsFamilies(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := newTestServer(t, Options{Metrics: reg})
	doReq(s, http.MethodGet, "/v1/patterns", "")
	doReq(s, http.MethodPost, "/v1/search", "t # 0\nv 0 C\nv 1 O\ne 0 1\n")
	doReq(s, http.MethodPost, "/v1/tenants/default/refresh", "")

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`catapult_serve_requests_total{endpoint="patterns",code="200"} 1`,
		`catapult_serve_requests_total{endpoint="search",code="200"} 1`,
		`catapult_serve_requests_total{endpoint="refresh",code="200"} 1`,
		`catapult_serve_snapshot_version{tenant="default"} 2`,
		`catapult_serve_snapshot_patterns{tenant="default"} 1`,
		`catapult_serve_refreshes_total{tenant="default",outcome="ok"} 1`,
		`catapult_serve_request_duration_seconds_count{endpoint="patterns"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestSearchCoalescingSharesOneEvaluation(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := newTestServer(t, Options{Metrics: reg})

	// Hold the flight group's key busy with a slow leader, then issue a
	// follower with an isomorphic (relabeled-order) query: the follower
	// must share the leader's result.
	q := "t # 0\nv 0 C\nv 1 O\ne 0 1\n"
	snap := s.Tenant(DefaultTenant).Snapshot()
	release := make(chan struct{})
	started := make(chan struct{})
	key := "test-key"
	go func() {
		_, _, _ = s.flight.Do(key, func() (any, error) {
			close(started)
			<-release
			return []int{42}, nil
		})
	}()
	<-started
	done := make(chan []int)
	go func() {
		v, _, shared := s.flight.Do(key, func() (any, error) { return []int{0}, nil })
		if !shared {
			t.Error("follower did not share the leader's flight")
		}
		done <- v.([]int)
	}()
	for s.flight.waiters(key) < 1 {
		runtime.Gosched()
	}
	close(release)
	if got := <-done; len(got) != 1 || got[0] != 42 {
		t.Errorf("follower got %v, want leader's [42]", got)
	}

	// End-to-end: two sequential identical searches both succeed (the
	// second is a fresh flight — coalescing only spans in-flight overlap).
	for i := 0; i < 2; i++ {
		if rec := doReq(s, http.MethodPost, "/v1/search", q); rec.Code != http.StatusOK {
			t.Fatalf("search %d: status %d", i, rec.Code)
		}
	}
	_ = snap
}

func TestSnapshotBuildRejectsNilDB(t *testing.T) {
	if _, err := BuildSnapshot("x", 1, State{}); err == nil {
		t.Fatal("BuildSnapshot with nil DB succeeded")
	}
	s := NewServer(Options{})
	if _, err := s.AddTenant("", newFakeSource("x")); err == nil {
		t.Fatal("AddTenant with empty id succeeded")
	}
}

func TestUnknownPathsAnd404Tenant(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	if rec := doReq(s, http.MethodGet, "/v1/nope", ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path: %d", rec.Code)
	}
	if rec := doReq(s, http.MethodGet, "/v1/patterns?tenant=ghost", ""); rec.Code != http.StatusNotFound {
		t.Errorf("ghost tenant: %d", rec.Code)
	}
}

func TestPatternTextsServeAsQueries(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	out := decodePatterns(t, doReq(s, http.MethodGet, "/v1/patterns", "").Body.Bytes())
	for _, pv := range out.Patterns {
		rec := doReq(s, http.MethodPost, "/v1/search", pv.Text)
		if rec.Code != http.StatusOK {
			t.Fatalf("pattern %d text rejected as query: %d %s", pv.Index, rec.Code, rec.Body.String())
		}
		var res SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		for _, g := range res.Graphs {
			if g < 0 || g >= res.Stats.Graphs {
				t.Errorf("hit index %d outside [0, %d)", g, res.Stats.Graphs)
			}
		}
	}
}

func TestConcurrentReadsDuringRefreshAreConsistent(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := doReq(s, http.MethodGet, "/v1/patterns", "")
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("status %d", rec.Code)
					return
				}
				var out PatternsResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					errs <- fmt.Sprintf("bad json: %v", err)
					return
				}
				if len(out.Patterns) != out.Stats.Patterns {
					errs <- fmt.Sprintf("torn read: %d patterns vs stats %d", len(out.Patterns), out.Stats.Patterns)
					return
				}
				if out.Stats.Version < lastVersion {
					errs <- fmt.Sprintf("version regressed %d -> %d", lastVersion, out.Stats.Version)
					return
				}
				lastVersion = out.Stats.Version
			}
		}()
	}
	for i := 0; i < 10; i++ {
		body := fmt.Sprintf("t # 0\nv 0 X%d\n", i)
		if rec := doReq(s, http.MethodPost, "/v1/tenants/default/refresh", body); rec.Code != http.StatusOK {
			t.Fatalf("refresh %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// workerProbe is a fakeSource that records how many par workers its
// Refresh context allows.
type workerProbe struct {
	*fakeSource
	workers int
}

func (p *workerProbe) Refresh(ctx context.Context, gs []*graph.Graph) error {
	p.workers = par.Workers(ctx)
	return p.fakeSource.Refresh(ctx, gs)
}

// TestRefreshLeavesOneCoreToReaders checks that a served refresh hands
// its source a context under the spare-core mark, so the source's
// parallel phases leave one core to concurrent readers.
func TestRefreshLeavesOneCoreToReaders(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	probe := &workerProbe{fakeSource: newFakeSource("probe")}
	s := NewServer(Options{})
	if _, err := s.AddTenant(DefaultTenant, probe); err != nil {
		t.Fatal(err)
	}
	if rec := doReq(s, http.MethodPost, "/v1/tenants/default/refresh", "t # 0\nv 0 C\nv 1 N\ne 0 1\n"); rec.Code != http.StatusOK {
		t.Fatalf("refresh status %d: %s", rec.Code, rec.Body.String())
	}
	if probe.workers != 3 {
		t.Errorf("source refreshed with %d par workers at GOMAXPROCS 4, want 3", probe.workers)
	}
	if par.Workers(context.Background()) != 4 {
		t.Error("the mark leaked outside the refresh")
	}
}
