package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	catapult "repro"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/metrics"
)

func testConfig() catapult.Config {
	return catapult.Config{
		Budget:     catapult.Budget{EtaMin: 3, EtaMax: 5, Gamma: 4},
		Clustering: catapult.ClusterConfig{Strategy: catapult.HybridMCCS, N: 10, MinSupport: 0.2},
		Seed:       7,
	}
}

// build assembles the one handler set over db with no durable state.
func build(t *testing.T, db *graph.DB, reg *metrics.Registry) (http.Handler, *catapult.Maintainer) {
	t.Helper()
	srv, m, _, err := buildMaintainerServerState(context.Background(), db, testConfig(),
		catapult.SuggestOptions{}, reg, "")
	if err != nil {
		t.Fatal(err)
	}
	return srv, m
}

func do(srv http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// refresh POSTs a batch of generated graphs to the default tenant.
func refresh(t *testing.T, srv http.Handler, batch *graph.DB) catapult.ServeRefreshResponse {
	t.Helper()
	var text strings.Builder
	if err := catapult.WriteDB(&text, batch); err != nil {
		t.Fatal(err)
	}
	rec := do(srv, "POST", "/v1/tenants/"+catapult.ServeDefaultTenant+"/refresh", text.String())
	if rec.Code != 200 {
		t.Fatalf("refresh status = %d: %s", rec.Code, rec.Body.String())
	}
	var ref catapult.ServeRefreshResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	return ref
}

// scrape GETs /metrics from the server and parses the OpenMetrics text
// into series-name → value.
func scrape(t *testing.T, srv http.Handler) map[string]float64 {
	t.Helper()
	rec := do(srv, "GET", "/metrics", "")
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	return parseOpenMetrics(t, rec.Body.String())
}

// seriesLine matches one OpenMetrics sample: name{labels} value.
var seriesLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// parseOpenMetrics validates the scraped body line by line: every non-#
// line must be a well-formed sample, TYPE lines must precede their
// family's samples, and the body must end with # EOF.
func parseOpenMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	typed := make(map[string]string)
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if lines[len(lines)-1] != "# EOF" {
		t.Fatalf("exposition does not end with # EOF: %q", lines[len(lines)-1])
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		m := seriesLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := m[1]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_total"), "_bucket"), "_sum"), "_count")
		if _, ok := typed[base]; !ok {
			if _, ok := typed[name]; !ok {
				t.Fatalf("sample %q has no preceding TYPE line", line)
			}
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		out[m[1]+m[2]] = v
	}
	return out
}

// TestMetricsEndpointMonotoneAcrossRuns scrapes /metrics after one
// pipeline run and again after a second run on the same registry: stage
// latency histograms, pipeline counters and cache hit-ratio gauges must be
// present, well-formed and monotone.
func TestMetricsEndpointMonotoneAcrossRuns(t *testing.T) {
	db := dataset.AIDSLike(40, 1)
	reg := metrics.NewRegistry()

	srv, _ := build(t, db, reg)
	first := scrape(t, srv)

	// Second run, same registry: families aggregate.
	srv2, _ := build(t, db, reg)
	second := scrape(t, srv2)

	// Per-stage duration histograms: every phase of the run must have
	// completed at least once, twice after the second run.
	for _, stage := range []string{"clustering", "mine", "coarse", "fine", "csg", "select"} {
		count := fmt.Sprintf(`catapult_stage_duration_seconds_count{stage=%q}`, stage)
		if first[count] < 1 {
			t.Errorf("first scrape: %s = %v, want >= 1", count, first[count])
		}
		if second[count] < first[count]+1 {
			t.Errorf("%s not monotone across runs: %v then %v", count, first[count], second[count])
		}
		sum := fmt.Sprintf(`catapult_stage_duration_seconds_sum{stage=%q}`, stage)
		if second[sum] < first[sum] {
			t.Errorf("%s decreased: %v then %v", sum, first[sum], second[sum])
		}
		inf := fmt.Sprintf(`catapult_stage_duration_seconds_bucket{stage=%q,le="+Inf"}`, stage)
		if second[inf] != second[count] {
			t.Errorf("+Inf bucket %v != count %v for stage %s", second[inf], second[count], stage)
		}
	}

	// Bucket counts must be nondecreasing in le within one scrape.
	prev := -1.0
	for _, le := range []string{"0.001", "0.05", "1", "60", "+Inf"} {
		k := fmt.Sprintf(`catapult_stage_duration_seconds_bucket{stage="select",le=%q}`, le)
		v, ok := second[k]
		if !ok {
			t.Fatalf("missing bucket %s", k)
		}
		if v < prev {
			t.Errorf("bucket le=%s count %v below previous %v", le, v, prev)
		}
		prev = v
	}

	// Pipeline counter totals, monotone.
	for _, c := range []string{"vf2_calls", "walks", "candidates_generated", "cover_cache_misses"} {
		k := fmt.Sprintf(`catapult_pipeline_events_total{counter=%q}`, c)
		if first[k] <= 0 {
			t.Errorf("first scrape: %s = %v, want > 0", k, first[k])
		}
		if second[k] < first[k] {
			t.Errorf("%s decreased: %v then %v", k, first[k], second[k])
		}
	}

	// Cache hit-ratio gauges present and sane. The second run repeats the
	// identical workload on fresh engines, so ratios stay within [0, 1].
	for _, g := range []string{"catapult_cover_cache_hit_ratio", "catapult_simcache_hit_ratio"} {
		v, ok := second[g]
		if !ok {
			t.Fatalf("missing gauge %s", g)
		}
		if v < 0 || v > 1 {
			t.Errorf("%s = %v, want within [0, 1]", g, v)
		}
	}
	if v := second["catapult_cover_cache_hit_ratio"]; v <= 0 {
		t.Errorf("cover hit ratio = %v, want > 0 (scoring revisits candidates)", v)
	}

	// Stage completion counters and in-flight gauges (all runs done).
	if v := second[`catapult_stage_runs_total{stage="select"}`]; v < 2 {
		t.Errorf("select stage runs = %v, want >= 2", v)
	}
	if v := second[`catapult_stage_active{stage="select"}`]; v != 0 {
		t.Errorf("select stage active = %v, want 0 between runs", v)
	}
}

// TestMaintainerMetricsExposed refreshes through the API and checks the
// maintainer's operational gauges appear on the scrape.
func TestMaintainerMetricsExposed(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, m := build(t, dataset.AIDSLike(30, 2), reg)
	refresh(t, srv, dataset.AIDSLike(3, 9))

	got := scrape(t, srv)
	if v := got["catapult_maintainer_refreshes_total"]; v != 1 {
		t.Errorf("maintainer refreshes = %v, want 1", v)
	}
	if v := got["catapult_maintainer_pending_graphs"]; v != 0 {
		t.Errorf("maintainer pending = %v, want 0", v)
	}
	if v := got["catapult_maintainer_next_retry_unix_seconds"]; v != 0 {
		t.Errorf("maintainer next retry = %v, want 0 when idle", v)
	}
	if _, ok := got["catapult_maintainer_last_refresh_seconds"]; !ok {
		t.Error("maintainer last-refresh gauge missing")
	}
	if v := got["catapult_maintainer_patterns"]; v != float64(len(m.Patterns())) {
		t.Errorf("maintainer patterns gauge = %v, want %d", v, len(m.Patterns()))
	}
}

// TestServeModeMountsV1API drives the shared mux: the pattern panel and
// the v1 API answer side by side, a refresh through
// POST /v1/tenants/{id}/refresh swaps the snapshot, /healthz reports the
// snapshot stats, and the scrape carries both the pipeline and the
// catapult_serve_* families.
func TestServeModeMountsV1API(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, m := build(t, dataset.AIDSLike(30, 3), reg)

	// Panel and API on one mux.
	if rec := do(srv, "GET", "/", ""); rec.Code != 200 {
		t.Fatalf("panel status = %d", rec.Code)
	}
	rec := do(srv, "GET", "/v1/patterns", "")
	if rec.Code != 200 {
		t.Fatalf("/v1/patterns status = %d: %s", rec.Code, rec.Body.String())
	}
	var panel catapult.ServePatternsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &panel); err != nil {
		t.Fatal(err)
	}
	if panel.Stats.Version != 1 || len(panel.Patterns) != len(m.Patterns()) {
		t.Errorf("panel = version %d with %d patterns, want version 1 with %d",
			panel.Stats.Version, len(panel.Patterns), len(m.Patterns()))
	}

	// A refresh batch through the API swaps the snapshot in place.
	if ref := refresh(t, srv, dataset.AIDSLike(3, 11)); ref.Stats.Version != 2 || ref.Stats.Graphs != 33 {
		t.Errorf("refresh landed as %+v, want version 2 over 33 graphs", ref.Stats)
	}
	if m.DB().Len() != 33 {
		t.Errorf("maintainer db = %d graphs after API refresh, want 33", m.DB().Len())
	}

	// /healthz reflects the swapped snapshot.
	var h struct {
		Status string              `json:"status"`
		Serve  catapult.ServeStats `json:"serve"`
	}
	if err := json.Unmarshal(do(srv, "GET", "/healthz", "").Body.Bytes(), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if h.Status != "ok" || h.Serve.Version != 2 || h.Serve.Graphs != 33 {
		t.Errorf("/healthz = %+v, want ok at version 2 over 33 graphs", h)
	}

	// Autocompletion through the shared mux: a pattern's own text is a
	// partial that the pattern itself completes exactly.
	rec = do(srv, "POST", "/v1/suggest?k=3", panel.Patterns[0].Text)
	if rec.Code != 200 {
		t.Fatalf("/v1/suggest status = %d: %s", rec.Code, rec.Body.String())
	}
	var sug catapult.ServeSuggestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sug); err != nil {
		t.Fatal(err)
	}
	if sug.Stats.Version != 2 || len(sug.Suggestions) == 0 {
		t.Fatalf("suggest = version %d with %d suggestions, want version 2 with > 0",
			sug.Stats.Version, len(sug.Suggestions))
	}
	if top := sug.Suggestions[0]; !top.Contained || top.Distance != 0 || top.Text == "" {
		t.Errorf("top suggestion for an exact pattern partial = %+v, want contained at distance 0 with text", top)
	}

	// One registry carries the pipeline, maintainer and serving families.
	got := scrape(t, srv)
	if v := got[`catapult_serve_requests_total{endpoint="patterns",code="200"}`]; v != 1 {
		t.Errorf("serve request counter = %v, want 1", v)
	}
	if v := got[`catapult_serve_refreshes_total{tenant="default",outcome="ok"}`]; v != 1 {
		t.Errorf("serve refresh counter = %v, want 1", v)
	}
	if v := got["catapult_maintainer_refreshes_total"]; v != 1 {
		t.Errorf("maintainer refresh counter = %v, want 1", v)
	}
	if v := got[`catapult_stage_runs_total{stage="select"}`]; v < 1 {
		t.Errorf("select stage runs = %v, want >= 1", v)
	}
	if v := got["catapult_suggest_keystroke_seconds_count"]; v != 1 {
		t.Errorf("suggest keystroke histogram count = %v, want 1", v)
	}
}

// TestHealthzAndPprofMounted exercises the other two operational
// endpoints.
func TestHealthzAndPprofMounted(t *testing.T) {
	srv, m := build(t, dataset.AIDSLike(30, 1), metrics.NewRegistry())

	rec := do(srv, "GET", "/healthz", "")
	if rec.Code != 200 {
		t.Fatalf("/healthz status = %d", rec.Code)
	}
	var h struct {
		Status string              `json:"status"`
		Serve  catapult.ServeStats `json:"serve"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if h.Status != "ok" || h.Serve.Version != 1 || h.Serve.Patterns != len(m.Patterns()) {
		t.Errorf("/healthz = %+v, want ok at version 1 with %d patterns", h, len(m.Patterns()))
	}

	rec = do(srv, "GET", "/debug/pprof/", "")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/ status = %d, body does not look like the pprof index", rec.Code)
	}
}

// TestEverySurfaceFollowsRefreshes reads the panel, a pattern card and
// /v1/patterns from concurrent readers while two refresh batches land
// through the API. Every 200 names its snapshot in X-Snapshot-Version, no
// reader sees the version go down, the panel page renders the snapshot its
// header names, and once the refreshes are in every surface serves the
// final snapshot: each /pattern/<i>.dot is the DOT of pattern i of
// /v1/patterns.
func TestEverySurfaceFollowsRefreshes(t *testing.T) {
	srv, _ := build(t, dataset.AIDSLike(30, 5), metrics.NewRegistry())

	// version reads the header of a 200 and checks it against the body.
	version := func(path string, rec *httptest.ResponseRecorder) (uint64, error) {
		if rec.Code != 200 {
			return 0, fmt.Errorf("GET %s: status %d", path, rec.Code)
		}
		hdr := rec.Header().Get("X-Snapshot-Version")
		v, err := strconv.ParseUint(hdr, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("GET %s: X-Snapshot-Version %q", path, hdr)
		}
		switch path {
		case "/":
			if !strings.Contains(rec.Body.String(), "snapshot version "+hdr+")") {
				return 0, fmt.Errorf("GET /: page does not render version %s", hdr)
			}
		case "/v1/patterns":
			var pr catapult.ServePatternsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil || pr.Stats.Version != v {
				return 0, fmt.Errorf("GET /v1/patterns: header %s, body version %d (%v)", hdr, pr.Stats.Version, err)
			}
		}
		return v, nil
	}

	surfaces := []string{"/", "/pattern/0.svg", "/v1/patterns"}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range surfaces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				v, err := version(path, do(srv, "GET", path, ""))
				if err != nil {
					t.Error(err)
					return
				}
				if v < last {
					t.Errorf("GET %s: version went from %d to %d", path, last, v)
					return
				}
				last = v
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	refresh(t, srv, dataset.AIDSLike(3, 21))
	final := refresh(t, srv, dataset.AIDSLike(3, 22)).Stats.Version
	close(done)
	wg.Wait()
	if final != 3 {
		t.Fatalf("final version %d, want 3", final)
	}

	for _, path := range surfaces {
		if v, err := version(path, do(srv, "GET", path, "")); err != nil || v != final {
			t.Errorf("GET %s after the refreshes: version %d (%v), want %d", path, v, err, final)
		}
	}
	var panel catapult.ServePatternsResponse
	if err := json.Unmarshal(do(srv, "GET", "/v1/patterns", "").Body.Bytes(), &panel); err != nil {
		t.Fatal(err)
	}
	for i, pv := range panel.Patterns {
		p, err := catapult.ReadDB(strings.NewReader(pv.Text), "p")
		if err != nil || p.Len() != 1 {
			t.Fatalf("pattern %d text does not parse: %v", i, err)
		}
		var want bytes.Buffer
		if err := graph.WriteDOT(&want, p.Graph(0), fmt.Sprintf("pattern%d", i)); err != nil {
			t.Fatal(err)
		}
		rec := do(srv, "GET", fmt.Sprintf("/pattern/%d.dot", i), "")
		if rec.Header().Get("X-Snapshot-Version") != strconv.FormatUint(final, 10) || rec.Body.String() != want.String() {
			t.Errorf("/pattern/%d.dot at version %q differs from pattern %d of /v1/patterns:\n%s\nwant\n%s",
				i, rec.Header().Get("X-Snapshot-Version"), i, rec.Body.String(), want.String())
		}
	}
}

// TestListenURL pins the address guiserve logs: the listener's own host
// and port, with an empty or unspecified host shown as localhost, so
// `-addr :0` shows the port the kernel chose.
func TestListenURL(t *testing.T) {
	for _, tc := range []struct{ addr, want string }{
		{":8080", "http://localhost:8080/"},
		{"[::]:8080", "http://localhost:8080/"},
		{"0.0.0.0:8080", "http://localhost:8080/"},
		{"127.0.0.1:18099", "http://127.0.0.1:18099/"},
		{"[::1]:9000", "http://[::1]:9000/"},
	} {
		if got := listenURL(tc.addr); got != tc.want {
			t.Errorf("listenURL(%q) = %q, want %q", tc.addr, got, tc.want)
		}
	}

	ln, err := net.Listen("tcp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	port := strconv.Itoa(ln.Addr().(*net.TCPAddr).Port)
	if got, want := listenURL(ln.Addr().String()), "http://localhost:"+port+"/"; got != want || port == "0" {
		t.Errorf("-addr :0 listening on %v: listenURL = %q, want %q", ln.Addr(), got, want)
	}
}
