package webui

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
)

func testPatterns() []*core.Pattern {
	g1 := graph.New(3, 2)
	c := g1.AddVertex("C")
	o := g1.AddVertex("O")
	n := g1.AddVertex("N")
	g1.MustAddEdge(c, o)
	g1.MustAddEdge(o, n)
	g2 := graph.New(3, 3)
	a := g2.AddVertex("C")
	b := g2.AddVertex("C")
	d := g2.AddVertex("C")
	g2.MustAddEdge(a, b)
	g2.MustAddEdge(b, d)
	g2.MustAddEdge(d, a)
	return []*core.Pattern{
		{Graph: g1, Score: 0.5, Ccov: 0.4, Lcov: 1, Div: 1, Cog: 1.33},
		{Graph: g2, Score: 0.3, Ccov: 0.2, Lcov: 0.9, Div: 3, Cog: 3},
	}
}

// growingSource serves testPatterns over a one-graph database; each refresh
// installs a new pattern slice with every refreshed graph appended as one
// more pattern, the way the Maintainer replaces its slices.
type growingSource struct {
	mu    sync.Mutex
	state serve.State
}

func (s *growingSource) State() serve.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

func (s *growingSource) Refresh(ctx context.Context, gs []*graph.Graph) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pats := append([]*core.Pattern(nil), s.state.Patterns...)
	for _, g := range gs {
		pats = append(pats, &core.Pattern{Graph: g})
	}
	s.state.Patterns = pats
	return nil
}

// newTenant serves testPatterns, over a database of the one C-O-N path,
// as the default tenant of a pattern server.
func newTenant(t *testing.T) (*serve.Server, *serve.Tenant) {
	t.Helper()
	src := &growingSource{state: serve.State{
		Dataset:  "test-db",
		DB:       graph.NewDB("test-db", []*graph.Graph{testPatterns()[0].Graph}),
		Patterns: testPatterns(),
	}}
	api := serve.NewServer(serve.Options{})
	tn, err := api.AddTenant(serve.DefaultTenant, src)
	if err != nil {
		t.Fatal(err)
	}
	return api, tn
}

// newPanel returns the panel of newTenant's tenant.
func newPanel(t *testing.T) (http.Handler, *serve.Tenant) {
	t.Helper()
	_, tn := newTenant(t)
	return Panel(tn), tn
}

// newStack mounts the panel at / and the /v1 API on one mux, the way
// cmd/guiserve assembles its server, so a test can check that the surfaces
// the panel links to answer from the snapshot it renders.
func newStack(t *testing.T) (http.Handler, *serve.Tenant) {
	t.Helper()
	api, tn := newTenant(t)
	mux := http.NewServeMux()
	mux.Handle("/", Panel(tn))
	mux.Handle("/v1/", api)
	return mux, tn
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// decode unmarshals a 200 JSON response into out and checks that its
// X-Snapshot-Version header is want.
func decode(t *testing.T, rec *httptest.ResponseRecorder, want string, out any) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if v := rec.Header().Get("X-Snapshot-Version"); v != want {
		t.Errorf("X-Snapshot-Version = %q, want %s", v, want)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("bad json: %v\n%s", err, rec.Body.String())
	}
}

func TestIndexPage(t *testing.T) {
	h, _ := newPanel(t)
	rec := get(h, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if v := rec.Header().Get("X-Snapshot-Version"); v != "1" {
		t.Errorf("X-Snapshot-Version = %q, want 1", v)
	}
	body := rec.Body.String()
	for _, want := range []string{"test-db", "2 patterns", "snapshot version 1", "/pattern/0.svg", "/pattern/1.svg", "score=0.5000", `href="/v1/patterns"`} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestIndexNotFoundForOtherPaths(t *testing.T) {
	h, _ := newPanel(t)
	if rec := get(h, "/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("status %d, want 404", rec.Code)
	}
}

func TestPatternSVG(t *testing.T) {
	h, _ := newPanel(t)
	rec := get(h, "/pattern/0.svg")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("content type %q", ct)
	}
	if v := rec.Header().Get("X-Snapshot-Version"); v != "1" {
		t.Errorf("X-Snapshot-Version = %q, want 1", v)
	}
	if !strings.HasPrefix(rec.Body.String(), "<svg") {
		t.Error("body is not SVG")
	}
}

func TestPatternDOT(t *testing.T) {
	h, _ := newPanel(t)
	rec := get(h, "/pattern/1.dot")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "graph \"pattern1\"") {
		t.Errorf("DOT body wrong: %s", rec.Body.String())
	}
}

func TestPatternBadRequests(t *testing.T) {
	h, _ := newPanel(t)
	for _, path := range []string{"/pattern/99.svg", "/pattern/-1.svg", "/pattern/abc.svg", "/pattern/0.png"} {
		if rec := get(h, path); rec.Code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, rec.Code)
		}
	}
}

// TestPanelFollowsRefresh: the panel renders the tenant's current
// snapshot, so a refresh that adds a pattern shows on the next request.
func TestPanelFollowsRefresh(t *testing.T) {
	h, tn := newPanel(t)
	if rec := get(h, "/pattern/2.dot"); rec.Code != http.StatusNotFound {
		t.Fatalf("pattern 2 before refresh: status %d, want 404", rec.Code)
	}
	if _, err := tn.Refresh(context.Background(), []*graph.Graph{testPatterns()[1].Graph}); err != nil {
		t.Fatal(err)
	}
	rec := get(h, "/")
	if v := rec.Header().Get("X-Snapshot-Version"); v != "2" {
		t.Errorf("index X-Snapshot-Version = %q after refresh, want 2", v)
	}
	if body := rec.Body.String(); !strings.Contains(body, "3 patterns, snapshot version 2") {
		t.Errorf("index does not render the refreshed snapshot:\n%s", body)
	}
	rec = get(h, "/pattern/2.dot")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Snapshot-Version") != "2" {
		t.Errorf("pattern 2 after refresh: status %d, version %q", rec.Code, rec.Header().Get("X-Snapshot-Version"))
	}
}

// TestErrorPaths walks the panel's failure surface in one table: bad
// pattern indices, malformed DOT/SVG requests, wrong methods (405 with an
// Allow header, never 200, to writes), and the retired /api twins of
// /v1/patterns, /v1/search and /v1/suggest, which no longer route.
func TestErrorPaths(t *testing.T) {
	h, _ := newPanel(t)
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"index ok", http.MethodGet, "/", "", http.StatusOK},
		{"index HEAD ok", http.MethodHead, "/", "", http.StatusOK},
		{"index POST", http.MethodPost, "/", "x", http.StatusMethodNotAllowed},
		{"index DELETE", http.MethodDelete, "/", "", http.StatusMethodNotAllowed},
		{"svg POST", http.MethodPost, "/pattern/0.svg", "x", http.StatusMethodNotAllowed},
		{"dot POST", http.MethodPost, "/pattern/1.dot", "x", http.StatusMethodNotAllowed},
		{"json POST", http.MethodPost, "/api/patterns.json", "x", http.StatusNotFound},
		{"json PUT", http.MethodPut, "/api/patterns.json", "x", http.StatusNotFound},
		{"json GET", http.MethodGet, "/api/patterns.json", "", http.StatusNotFound},
		{"search GET", http.MethodGet, "/api/search", "", http.StatusNotFound},
		{"search POST", http.MethodPost, "/api/search", "t # 0\nv 0 C\n", http.StatusNotFound},
		{"suggest GET", http.MethodGet, "/api/suggest", "", http.StatusNotFound},
		{"suggest DELETE", http.MethodDelete, "/api/suggest", "", http.StatusNotFound},
		{"suggest POST", http.MethodPost, "/api/suggest", "t # 0\nv 0 C\n", http.StatusNotFound},
		{"dot out of range", http.MethodGet, "/pattern/2.dot", "", http.StatusNotFound},
		{"dot negative", http.MethodGet, "/pattern/-1.dot", "", http.StatusNotFound},
		{"dot non-numeric", http.MethodGet, "/pattern/zero.dot", "", http.StatusNotFound},
		{"dot empty index", http.MethodGet, "/pattern/.dot", "", http.StatusNotFound},
		{"unknown extension", http.MethodGet, "/pattern/0.pdf", "", http.StatusNotFound},
		{"bare pattern dir", http.MethodGet, "/pattern/", "", http.StatusNotFound},
		{"svg overflow index", http.MethodGet, "/pattern/99999999999999999999.svg", "", http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var req *http.Request
			if tc.body == "" {
				req = httptest.NewRequest(tc.method, tc.path, nil)
			} else {
				req = httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.want)
			}
			if rec.Code == http.StatusMethodNotAllowed && rec.Header().Get("Allow") == "" {
				t.Errorf("%s %s: 405 without Allow header", tc.method, tc.path)
			}
		})
	}
}

// TestOpsNilHealth: with no health function, /healthz still answers the
// liveness payload; /metrics and the pprof index are mounted beside it.
func TestOpsNilHealth(t *testing.T) {
	mux := http.NewServeMux()
	Ops(mux, metrics.NewRegistry().Handler(), nil)
	rec := get(mux, "/healthz")
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != `{"status":"ok"}` {
		t.Errorf("/healthz = %d %q, want 200 {\"status\":\"ok\"}", rec.Code, rec.Body.String())
	}
	if rec := get(mux, "/metrics"); rec.Code != http.StatusOK {
		t.Errorf("/metrics status = %d", rec.Code)
	}
	if rec := get(mux, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", rec.Code)
	}
}

// TestEnableAPI: the panel and the /v1 API share one mux, as in
// cmd/guiserve; each answers its own routes, and both name the same
// snapshot before and after a refresh.
func TestEnableAPI(t *testing.T) {
	h, tn := newStack(t)
	for version := 1; version <= 2; version++ {
		want := strconv.Itoa(version)
		panel, api := get(h, "/"), get(h, "/v1/patterns")
		if panel.Code != http.StatusOK || !strings.HasPrefix(panel.Header().Get("Content-Type"), "text/html") {
			t.Errorf("/ did not reach the panel: %d %q", panel.Code, panel.Header().Get("Content-Type"))
		}
		if api.Code != http.StatusOK || api.Header().Get("Content-Type") != "application/json" {
			t.Errorf("/v1/patterns did not reach the API: %d %q", api.Code, api.Header().Get("Content-Type"))
		}
		for _, rec := range []*httptest.ResponseRecorder{panel, api} {
			if v := rec.Header().Get("X-Snapshot-Version"); v != want {
				t.Errorf("X-Snapshot-Version = %q, want %s", v, want)
			}
		}
		if _, err := tn.Refresh(context.Background(), []*graph.Graph{testPatterns()[1].Graph}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPatternsJSON: /v1/patterns, which the index page links to as the
// panel's JSON, serves the panel's dataset and patterns from the snapshot
// the panel renders.
func TestPatternsJSON(t *testing.T) {
	h, _ := newStack(t)
	var out serve.PatternsResponse
	decode(t, get(h, "/v1/patterns"), "1", &out)
	if out.Stats.Dataset != "test-db" || out.Stats.Patterns != 2 || len(out.Patterns) != 2 {
		t.Fatalf("payload wrong: %+v", out)
	}
	if out.Patterns[0].Edges != 2 || out.Patterns[1].Edges != 3 {
		t.Errorf("pattern sizes wrong: %+v", out.Patterns)
	}
	index := get(h, "/").Body.String()
	for _, p := range out.Patterns {
		if card := fmt.Sprintf("#%d &middot; |V|=%d |E|=%d<br>\n    score=%.4f", p.Index, p.Vertices, p.Edges, p.Score); !strings.Contains(index, card) {
			t.Errorf("panel has no card %q for JSON pattern %d", card, p.Index)
		}
	}
}

// TestSearchEndpoint: POST /v1/search on the panel's mux searches the
// database of the snapshot the panel renders: the C-O query hits the one
// C-O-N graph.
func TestSearchEndpoint(t *testing.T) {
	h, _ := newStack(t)
	var out serve.SearchResponse
	decode(t, post(h, "/v1/search", "t # 0\nv 0 C\nv 1 O\ne 0 1\n"), "1", &out)
	if out.Stats.Version != 1 || out.Matches != 1 || len(out.Graphs) != 1 || out.Graphs[0] != 0 {
		t.Errorf("search payload wrong: %+v", out)
	}
}

// TestSearchEndpointErrors: on the panel's mux, search takes POST only
// (405 with Allow to GET), answers 400 to a malformed body and to a body of
// two graphs, and has no /api twin.
func TestSearchEndpointErrors(t *testing.T) {
	h, _ := newStack(t)
	if rec := get(h, "/v1/search"); rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Errorf("GET search: status %d, Allow %q", rec.Code, rec.Header().Get("Allow"))
	}
	if rec := post(h, "/v1/search", "garbage input"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad body: status %d", rec.Code)
	}
	if rec := post(h, "/v1/search", "t # 0\nv 0 C\nt # 1\nv 0 C\n"); rec.Code != http.StatusBadRequest {
		t.Errorf("two graphs: status %d", rec.Code)
	}
	if rec := post(h, "/api/search", "t # 0\nv 0 C\n"); rec.Code != http.StatusNotFound {
		t.Errorf("/api/search: status %d, want 404", rec.Code)
	}
}

// TestSuggestEndpoint: POST /v1/suggest, which the index page advertises,
// ranks the panel's patterns as completions of a partial query: the C-O-N
// pattern contains the C-O partial and comes first, with its text; ?k=
// caps the list, and a malformed body or k answers 400.
func TestSuggestEndpoint(t *testing.T) {
	h, _ := newStack(t)
	if body := get(h, "/").Body.String(); !strings.Contains(body, "/v1/suggest") {
		t.Error("index page does not mention /v1/suggest")
	}
	partial := "t # 0\nv 0 C\nv 1 O\ne 0 1\n"
	var out serve.SuggestResponse
	decode(t, post(h, "/v1/suggest", partial), "1", &out)
	if len(out.Suggestions) == 0 || out.Suggest.Patterns != 2 {
		t.Fatalf("payload wrong: %+v", out)
	}
	// The C-O-N pattern contains the C-O partial; the C-triangle does not.
	if top := out.Suggestions[0]; top.Pattern != 0 || !top.Contained || top.Text == "" {
		t.Errorf("top suggestion wrong: %+v", top)
	}
	var one serve.SuggestResponse
	decode(t, post(h, "/v1/suggest?k=1", partial), "1", &one)
	if len(one.Suggestions) != 1 {
		t.Errorf("k=1: %d suggestions", len(one.Suggestions))
	}
	if rec := post(h, "/v1/suggest", "garbage"); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage body: status %d", rec.Code)
	}
	if rec := post(h, "/v1/suggest?k=bad", partial); rec.Code != http.StatusBadRequest {
		t.Errorf("bad k: status %d", rec.Code)
	}
}
