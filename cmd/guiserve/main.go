// Command guiserve mines canned patterns from a database (or generates a
// synthetic one) into a transactional Maintainer and serves them over one
// HTTP mux: the visual pattern panel, the concurrent multi-tenant v1 API
// in front of the Maintainer, and the operational surface of a long-lived
// pattern service. The panel renders the current snapshot on every
// request, so it follows refreshes posted to the API.
//
//	GET  /                         pattern panel: SVG cards with score
//	                               breakdowns
//	GET  /pattern/<i>.svg|.dot     one pattern drawn as SVG or DOT
//	GET  /v1/patterns              pattern panel from the current snapshot
//	POST /v1/search                exact containment search (query in body)
//	POST /v1/suggest               per-keystroke autocompletion: rank the
//	                               panel as completions of a partial query,
//	                               budgeted per keystroke (-suggest-budget)
//	GET  /v1/coverage              per-pattern coverage of the snapshot
//	POST /v1/tenants/{id}/refresh  absorb a graph batch, swap snapshots
//	GET  /v1/tenants               registered tenants + snapshot stats
//	/metrics                       OpenMetrics exposition (per-stage
//	                               latency histograms, pipeline counters,
//	                               cache hit-ratio gauges, maintainer and
//	                               serving families)
//	/healthz                       liveness + current snapshot stats as JSON
//	/debug/pprof/*                 Go profiling; CPU samples carry stage
//	                               labels, so `go tool pprof -tagfocus
//	                               stage=fine` isolates a stage
//
// Usage:
//
//	guiserve -in db.txt -gamma 12 -addr :8080
//	guiserve -demo -addr :8080        # synthetic 150-graph demo dataset
//	guiserve -demo -state-dir state   # warm-start and persist every refresh
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	catapult "repro"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/webui"
)

func main() {
	var (
		in       = flag.String("in", "", "input database file")
		demo     = flag.Bool("demo", false, "use a generated demo dataset instead of -in")
		addr     = flag.String("addr", ":8080", "listen address")
		etaMin   = flag.Int("min", 3, "minimum pattern size")
		etaMax   = flag.Int("max", 8, "maximum pattern size")
		gamma    = flag.Int("gamma", 12, "number of patterns")
		seed     = flag.Int64("seed", 42, "random seed")
		suggestB = flag.Duration("suggest-budget", 0, "per-keystroke autocompletion budget (0 = ~100ms default, negative = unbudgeted)")
		stateDir = flag.String("state-dir", "", "durable state directory: warm-start from the newest verifiable snapshot, persist every refresh, flush a final snapshot on shutdown")
		drain    = flag.Duration("drain", 5*time.Second, "graceful-shutdown deadline for draining in-flight requests on SIGINT/SIGTERM")
	)
	flag.Parse()

	var db *graph.DB
	switch {
	case *demo:
		db = dataset.AIDSLike(150, *seed)
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		db, err = graph.Read(f, *in)
		f.Close()
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "guiserve: need -in or -demo")
		flag.Usage()
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "dataset: %s\n", db.ComputeStats())

	reg := metrics.NewRegistry()
	cfg := catapult.Config{
		Budget:     catapult.Budget{EtaMin: *etaMin, EtaMax: *etaMax, Gamma: *gamma},
		Clustering: catapult.ClusterConfig{Strategy: catapult.HybridMCCS, N: 20, MinSupport: 0.1},
		Seed:       *seed,
	}
	srv, m, _, err := buildMaintainerServerState(context.Background(), db, cfg,
		catapult.SuggestOptions{Budget: *suggestB}, reg, *stateDir)
	if err != nil {
		fatal(err)
	}
	var flush func(context.Context) error
	if *stateDir != "" {
		flush = func(ctx context.Context) error {
			gen, err := m.PersistNow(ctx)
			if err == nil {
				fmt.Fprintf(os.Stderr, "guiserve: final snapshot flushed (generation %d)\n", gen)
			}
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "selected %d patterns\n", len(m.Patterns()))
	fmt.Fprintf(os.Stderr, "serving pattern panel + /v1 pattern API on http://localhost%s/ (GET /v1/patterns, POST /v1/search, POST /v1/suggest, POST /v1/tenants/%s/refresh; /metrics, /healthz, /debug/pprof/)\n",
		*addr, catapult.ServeDefaultTenant)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := gracefulServe(ln, srv, stop, *drain, flush); err != nil {
		fatal(err)
	}
}

// gracefulServe serves h on ln until a signal arrives on stop, then shuts
// down gracefully: the listener closes (no new connections), in-flight
// requests get up to drain to complete, and flush — the final snapshot
// write under -state-dir — runs afterwards so the durable state
// reflects everything the drained requests observed. Split from main so
// the drain test can run the full lifecycle against a live loadtest
// fleet.
func gracefulServe(ln net.Listener, h http.Handler, stop <-chan os.Signal, drain time.Duration, flush func(context.Context) error) error {
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "guiserve: %v: draining in-flight requests (deadline %v)\n", sig, drain)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := hs.Shutdown(ctx)
	if serr := <-errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if flush != nil {
		// The flush gets its own deadline: even when the drain window was
		// exhausted, the final snapshot must still be attempted.
		fctx, fcancel := context.WithTimeout(context.Background(), drain)
		defer fcancel()
		if ferr := flush(fctx); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}

// buildMaintainerServerState assembles the one handler set: a
// transactional Maintainer runs the pipeline once with its stage spans and
// counters streamed into reg, the concurrent pattern service fronts it
// under /v1/ with atomically swapped snapshots, the pattern panel at /
// renders the default tenant's current snapshot, and the metrics, health
// and pprof endpoints ride alongside on the same mux. When stateDir is
// non-empty it recovers the newest verifiable snapshot there and
// warm-starts the maintainer from it — the -in/-demo database is then
// superseded by the recovered one — falling back to a cold mine when no
// snapshot verifies. Persistence is then enabled either way, so every
// refresh writes the next generation, and the recovery outcome lands on
// /healthz and the catapult_store_* metrics before the server takes
// traffic. Split from main so the handler tests can drive real refreshes.
func buildMaintainerServerState(ctx context.Context, db *graph.DB, cfg catapult.Config, sugg catapult.SuggestOptions, reg *metrics.Registry, stateDir string) (http.Handler, *catapult.Maintainer, *catapult.StoreRecovery, error) {
	cfg.Observer = metrics.NewTrace(reg)
	var m *catapult.Maintainer
	var recovery *catapult.StoreRecovery
	if stateDir != "" {
		st, info, err := catapult.LoadState(stateDir)
		recovery = info
		switch {
		case err == nil:
			if m, err = catapult.NewMaintainerFromState(st, cfg); err != nil {
				return nil, nil, nil, err
			}
			fmt.Fprintf(os.Stderr, "guiserve: warm start: %s\n", info)
		case errors.Is(err, catapult.ErrNoSnapshot):
			fmt.Fprintf(os.Stderr, "guiserve: %s start from %s: mining from scratch\n", info.Outcome(), stateDir)
		default:
			return nil, nil, nil, err
		}
	}
	if m == nil {
		var err error
		if m, err = catapult.NewMaintainerCtx(ctx, db, cfg); err != nil {
			return nil, nil, nil, err
		}
	}
	m.EnableMetrics(reg)
	if stateDir != "" {
		if err := m.EnablePersistence(stateDir); err != nil {
			return nil, nil, nil, err
		}
		catapult.ObserveRecovery(reg, recovery)
	}
	api := catapult.NewPatternServer(catapult.PatternServerOptions{Metrics: reg, Suggest: sugg})
	tenant, err := api.AddTenant(catapult.ServeDefaultTenant, m.ServeSource())
	if err != nil {
		return nil, nil, nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", webui.Panel(tenant))
	mux.Handle("/v1/", api)
	webui.Ops(mux, reg.Handler(), func() any {
		return struct {
			Status   string                  `json:"status"`
			Serve    catapult.ServeStats     `json:"serve"`
			Recovery *catapult.StoreRecovery `json:"recovery,omitempty"`
		}{"ok", tenant.Snapshot().Stats(), recovery}
	})
	return mux, m, recovery, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "guiserve:", err)
	os.Exit(1)
}
