package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// suggestSource builds a fake source whose pattern panel has distinct
// shapes, so suggestions rank non-trivially: a container of the C-O
// partial, a bigger container, and a near-miss.
func suggestSource() *fakeSource {
	src := newFakeSource("fake")
	src.state.Patterns = []*core.Pattern{
		{Graph: pathGraph("C", "O"), Score: 0.2},
		{Graph: pathGraph("C", "O", "N"), Score: 0.9},
		{Graph: pathGraph("N", "N"), Score: 0.5},
	}
	return src
}

func newSuggestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s := NewServer(opts)
	if _, err := s.AddTenant(DefaultTenant, suggestSource()); err != nil {
		t.Fatal(err)
	}
	return s
}

const partialCO = "t # 0\nv 0 C\nv 1 O\ne 0 1\n"

func TestSuggestEndpoint(t *testing.T) {
	s := newSuggestServer(t, Options{})
	rec := doReq(s, http.MethodPost, "/v1/suggest", partialCO)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Snapshot-Version") != "1" {
		t.Errorf("X-Snapshot-Version = %q", rec.Header().Get("X-Snapshot-Version"))
	}
	var out SuggestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad suggest JSON: %v\n%s", err, rec.Body.String())
	}
	if out.Stats.Version != 1 || out.Stats.Patterns != 3 {
		t.Errorf("snapshot stats wrong: %+v", out.Stats)
	}
	if out.Suggest.Patterns != 3 || len(out.Suggestions) == 0 {
		t.Fatalf("suggest stats/suggestions wrong: %+v / %d suggestions",
			out.Suggest, len(out.Suggestions))
	}
	// Both containers of C-O must rank before the N-N near-miss, and every
	// suggestion must carry its pattern text, parseable and postable.
	seenMiss := false
	for _, sg := range out.Suggestions {
		if sg.Contained && seenMiss {
			t.Errorf("contained pattern %d ranked after a near-miss", sg.Pattern)
		}
		if !sg.Contained {
			seenMiss = true
		}
		if sg.Text == "" {
			t.Fatalf("suggestion %d has no pattern text", sg.Pattern)
		}
		if _, err := graph.Read(strings.NewReader(sg.Text), "sg"); err != nil {
			t.Errorf("suggestion %d text not parseable: %v", sg.Pattern, err)
		}
	}
	if !out.Suggestions[0].Contained {
		t.Errorf("top suggestion not a container: %+v", out.Suggestions[0])
	}
}

func TestSuggestTopKQueryParam(t *testing.T) {
	s := newSuggestServer(t, Options{})
	rec := doReq(s, http.MethodPost, "/v1/suggest?k=1", partialCO)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out SuggestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Suggestions) != 1 {
		t.Errorf("k=1 returned %d suggestions", len(out.Suggestions))
	}
	for _, bad := range []string{"0", "-2", "x"} {
		if rec := doReq(s, http.MethodPost, "/v1/suggest?k="+bad, partialCO); rec.Code != http.StatusBadRequest {
			t.Errorf("k=%s: status %d, want 400", bad, rec.Code)
		}
	}
}

func TestSuggestErrors(t *testing.T) {
	s := newSuggestServer(t, Options{})
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad body", http.MethodPost, "/v1/suggest", "garbage", http.StatusBadRequest},
		{"two graphs", http.MethodPost, "/v1/suggest", "t # 0\nv 0 C\nt # 1\nv 0 C\n", http.StatusBadRequest},
		{"wrong method GET", http.MethodGet, "/v1/suggest", "", http.StatusMethodNotAllowed},
		{"wrong method PUT", http.MethodPut, "/v1/suggest", partialCO, http.StatusMethodNotAllowed},
		{"unknown tenant", http.MethodPost, "/v1/suggest?tenant=nope", partialCO, http.StatusNotFound},
	} {
		rec := doReq(s, tc.method, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
		if tc.want == http.StatusMethodNotAllowed {
			if allow := rec.Header().Get("Allow"); !strings.Contains(allow, http.MethodPost) {
				t.Errorf("%s: Allow = %q, want POST listed", tc.name, allow)
			}
		}
	}
}

// TestSuggestEmptyPartialColdStart pins the zero-keystroke call: an empty
// query graph answers the top-scored patterns, not an error.
func TestSuggestEmptyPartialColdStart(t *testing.T) {
	s := newSuggestServer(t, Options{})
	rec := doReq(s, http.MethodPost, "/v1/suggest?k=2", "t # 0\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out SuggestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Suggestions) != 2 {
		t.Fatalf("cold start returned %d suggestions, want 2", len(out.Suggestions))
	}
	// Highest selection score first: the C-O-N pattern (0.9).
	if out.Suggestions[0].Pattern != 1 {
		t.Errorf("cold-start top suggestion = pattern %d, want 1", out.Suggestions[0].Pattern)
	}
}

func TestSuggestShedsWith429AndRetryAfter(t *testing.T) {
	s := newSuggestServer(t, Options{})
	s.adm = newAdmission(1, time.Millisecond, 3*time.Second)

	inside := make(chan struct{})
	release := make(chan struct{})
	s.mux.HandleFunc("GET /v1/testslow", s.instrument("testslow", func(w http.ResponseWriter, r *http.Request) {
		close(inside)
		<-release
	}))
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/testslow", nil))
	}()
	<-inside
	defer close(release)

	rec := doReq(s, http.MethodPost, "/v1/suggest", partialCO)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
}

func TestSuggestMetricsFamilies(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewServer(Options{Metrics: reg})
	if _, err := s.AddTenant(DefaultTenant, suggestSource()); err != nil {
		t.Fatal(err)
	}
	doReq(s, http.MethodPost, "/v1/suggest", partialCO)

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`catapult_serve_requests_total{endpoint="suggest",code="200"} 1`,
		`catapult_suggest_keystroke_seconds_count 1`,
		`catapult_suggest_suggestions_count 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSuggestCoalescingSharesOneCall pins that identical in-flight
// keystrokes share one engine evaluation, keyed apart from /v1/search
// flights on the same canonical query.
func TestSuggestCoalescingSharesOneCall(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewServer(Options{Metrics: reg})
	if _, err := s.AddTenant(DefaultTenant, suggestSource()); err != nil {
		t.Fatal(err)
	}
	snap := s.Tenant(DefaultTenant).Snapshot()

	// The suggest key must differ from the search key for the same query,
	// or a follower could receive a result of the wrong type.
	searchRec := doReq(s, http.MethodPost, "/v1/search", partialCO)
	if searchRec.Code != http.StatusOK {
		t.Fatalf("search: %d", searchRec.Code)
	}
	suggestRec := doReq(s, http.MethodPost, "/v1/suggest", partialCO)
	if suggestRec.Code != http.StatusOK {
		t.Fatalf("suggest after search on same query: %d %s", suggestRec.Code, suggestRec.Body.String())
	}

	// Two sequential identical keystrokes: the second is answered from the
	// warm verdict memo (coalescing itself only spans in-flight overlap,
	// which is exercised generically in TestSearchCoalescingSharesOneEvaluation).
	before := snap.sugg.CoverStats()
	rec := doReq(s, http.MethodPost, "/v1/suggest", partialCO)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat keystroke: %d", rec.Code)
	}
	after := snap.sugg.CoverStats()
	if after.Hits <= before.Hits {
		t.Errorf("repeat keystroke missed the verdict memo: hits %d -> %d", before.Hits, after.Hits)
	}
}
