// Package webui renders a pattern service tenant's current snapshot as a
// visual-graph-query-style pattern panel over HTTP: the canned patterns as
// SVG cards with their score breakdowns, plus a DOT rendering per pattern.
// The machine-readable surfaces are the tenant's /v1 API. Ops mounts the
// operational endpoints of a long-lived process (/metrics, /healthz,
// /debug/pprof/*). cmd/guiserve wires both to a Maintainer.
package webui

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	netpprof "net/http/pprof"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/serve"
)

// Panel serves the pattern panel of t's current snapshot:
//
//	GET /                 index page, one SVG card per pattern
//	GET /pattern/<i>.svg  pattern i drawn as SVG
//	GET /pattern/<i>.dot  pattern i in Graphviz DOT
//
// Each request loads t.Snapshot() once, renders from it, and names it in
// X-Snapshot-Version, so the panel follows refreshes and never mixes two
// snapshots in one response. Other methods answer 405 with an Allow header.
func Panel(t *serve.Tenant) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		handleIndex(w, t.Snapshot())
	})
	mux.HandleFunc("GET /pattern/{file}", func(w http.ResponseWriter, r *http.Request) {
		handlePattern(w, r, t.Snapshot())
	})
	return mux
}

// Ops mounts the operational endpoints of a long-lived pattern process on
// mux:
//
//   - /metrics serves metrics (OpenMetrics exposition of a
//     metrics.Registry),
//   - /healthz serves health() as JSON with a 200 status (the handler is
//     liveness: reachable means serving; detail belongs in the payload),
//     or {"status":"ok"} when health is nil, and
//   - /debug/pprof/* serves the standard Go profiling endpoints on this
//     mux — CPU profiles taken here carry the pipeline's per-stage pprof
//     labels (pipeline.WithStage), so `go tool pprof -tagfocus
//     stage=<name>` attributes samples to stages.
func Ops(mux *http.ServeMux, metrics http.Handler, health func() any) {
	mux.Handle("/metrics", metrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		var payload any = struct {
			Status string `json:"status"`
		}{"ok"}
		if health != nil {
			payload = health()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(payload)
	})
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
}

var indexTemplate = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>CATAPULT patterns — {{.Stats.Dataset}}</title>
<style>
body { font-family: sans-serif; margin: 2em; background: #fafafa; }
h1 { font-size: 1.3em; }
.panel { display: flex; flex-wrap: wrap; gap: 12px; }
.card { background: white; border: 1px solid #ddd; border-radius: 6px; padding: 8px; width: 180px; }
.card .meta { font-size: 0.72em; color: #555; margin-top: 4px; }
</style></head><body>
<h1>Canned pattern panel — {{.Stats.Dataset}} ({{len .Patterns}} patterns, snapshot version {{.Stats.Version}})</h1>
<p>Drag targets a visual query builder would expose; scores follow Eq 2 of the paper.</p>
<div class="panel">
{{range .Patterns}}
  <div class="card">
    <img src="/pattern/{{.Index}}.svg" width="160" height="160" alt="pattern {{.Index}}">
    <div class="meta">#{{.Index}} &middot; |V|={{.Vertices}} |E|={{.Edges}}<br>
    score={{printf "%.4f" .Score}}<br>
    ccov={{printf "%.3f" .Ccov}} lcov={{printf "%.3f" .Lcov}}<br>
    div={{printf "%.0f" .Div}} cog={{printf "%.2f" .Cog}}</div>
  </div>
{{end}}
</div>
<p><a href="/v1/patterns">/v1/patterns</a> serves this panel as JSON; POST a
partial query (transaction text format) to <code>/v1/suggest</code> to rank
these patterns as completions.</p>
</body></html>`))

// setVersion names the snapshot a panel response was rendered from.
func setVersion(w http.ResponseWriter, snap *serve.Snapshot) {
	w.Header().Set("X-Snapshot-Version", strconv.FormatUint(snap.Version(), 10))
}

func handleIndex(w http.ResponseWriter, snap *serve.Snapshot) {
	pats := snap.Patterns()
	views := make([]serve.PatternView, len(pats))
	for i, p := range pats {
		views[i] = serve.PatternView{
			Index:    i,
			Vertices: p.Graph.NumVertices(),
			Edges:    p.Graph.NumEdges(),
			Score:    p.Score,
			Ccov:     p.Ccov,
			Lcov:     p.Lcov,
			Div:      p.Div,
			Cog:      p.Cog,
			Text:     snap.PatternText(i),
		}
	}
	var buf bytes.Buffer
	err := indexTemplate.Execute(&buf, struct {
		Stats    serve.Stats
		Patterns []serve.PatternView
	}{snap.Stats(), views})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	setVersion(w, snap)
	_, _ = w.Write(buf.Bytes())
}

// handlePattern serves /pattern/<i>.svg and /pattern/<i>.dot from snap.
func handlePattern(w http.ResponseWriter, r *http.Request, snap *serve.Snapshot) {
	name, ext, _ := strings.Cut(r.PathValue("file"), ".")
	idx, err := strconv.Atoi(name)
	pats := snap.Patterns()
	if (ext != "svg" && ext != "dot") || err != nil || idx < 0 || idx >= len(pats) {
		http.NotFound(w, r)
		return
	}
	g := pats[idx].Graph
	setVersion(w, snap)
	if ext == "svg" {
		w.Header().Set("Content-Type", "image/svg+xml")
		_, _ = fmt.Fprint(w, layout.SVG(g, int64(idx)))
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	_ = graph.WriteDOT(w, g, fmt.Sprintf("pattern%d", idx))
}
