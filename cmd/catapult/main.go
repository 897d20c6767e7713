// Command catapult mines canned patterns from a graph database file, or
// from one large network with -network.
//
// Usage:
//
//	catapult -in db.txt -min 3 -max 12 -gamma 30 [-sample] [-deadline 30s] [-health] [-out patterns.txt]
//	catapult -network net.txt -gamma 10 [-region-cap 4096] [-reps 2]
//
// The -in input is the line-oriented transaction format of internal/graph
// ("t # <id>" / "v <id> <label>" / "e <u> <v>"). The -network input is a
// SNAP-style edge list ("u v" lines, optional "v id label" declarations,
// "#" comments) or the compact binary format written by datagen -network
// -format bin (autodetected by magic). Selected patterns are written in
// the transaction format (to stdout by default) together with a
// per-pattern score summary on stderr.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	catapult "repro"
	"repro/internal/bignet"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/freqmine"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/resilience"
	"repro/internal/webui"
)

func main() {
	var (
		in       = flag.String("in", "", "input database file (required)")
		out      = flag.String("out", "", "output pattern file (default stdout)")
		etaMin   = flag.Int("min", 3, "minimum pattern size ηmin (edges, > 2)")
		etaMax   = flag.Int("max", 12, "maximum pattern size ηmax (edges)")
		gamma    = flag.Int("gamma", 30, "number of patterns γ")
		n        = flag.Int("n", 20, "maximum cluster size N")
		minSup   = flag.Float64("minsup", 0.1, "frequent subtree support threshold")
		sample   = flag.Bool("sample", false, "enable eager+lazy sampling (Sec 4.3)")
		seed     = flag.Int64("seed", 42, "random seed")
		walks    = flag.Int("walks", 20, "random walks per CSG and size")
		topCSGs  = flag.Int("topcsgs", 0, "propose candidates from only the top-k CSGs per iteration (0 = all)")
		logFile  = flag.String("log", "", "optional query-log file: boosts patterns frequent in past queries")
		graphml  = flag.Bool("graphml", false, "emit patterns as GraphML instead of transaction text")
		basic    = flag.Int("basic", 0, "also select the top-m basic patterns (size ≤ 2, by support)")
		timeout  = flag.Duration("timeout", 0, "abort the pipeline after this duration (0 = no limit)")
		deadline = flag.Duration("deadline", 0, "anytime deadline: degrade gracefully instead of aborting, returning the best pattern set found in time")
		health   = flag.Bool("health", false, "print the per-stage degradation report to stderr after the run")
		trace    = flag.Bool("trace", false, "log pipeline stages and counters to stderr")
		maddr    = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof/ on this address while the pipeline runs (for long runs; e.g. :9090)")
		stateDir = flag.String("state-dir", "", "durable snapshot directory (database mode): reuse the newest verifiable snapshot instead of re-mining, and persist the result after a fresh mine")

		network   = flag.String("network", "", "treat the file as one large network (edge list or binary) instead of a graph database")
		regionCap = flag.Int("region-cap", 0, "network: maximum edges per decomposition region (0 = default)")
		reps      = flag.Int("reps", 0, "network: representative subgraphs sampled per region (0 = default)")
	)
	flag.Parse()
	if *in == "" && *network == "" {
		fmt.Fprintln(os.Stderr, "catapult: -in or -network is required")
		flag.Usage()
		os.Exit(2)
	}

	var db *graph.DB
	var fstats graph.FrozenStats
	if *network == "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		db, err = graph.Read(f, *in)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %s: %s\n", *in, db.ComputeStats())
		// Freeze the database up front: the matcher hot paths run on the
		// frozen CSR form, and freezing here makes the memory story visible
		// at startup.
		fstats = db.Freeze()
		fmt.Fprintf(os.Stderr, "frozen: %d graphs, %d interned labels, %d bytes CSR\n",
			fstats.Graphs, fstats.Labels, fstats.Bytes)
	}

	cfg := catapult.Config{
		Budget:     core.Budget{EtaMin: *etaMin, EtaMax: *etaMax, Gamma: *gamma},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: *n, MinSupport: *minSup},
		Selection:  core.Options{Walks: *walks, TopCSGs: *topCSGs},
		Seed:       *seed,
	}
	if *sample {
		cfg.Sampling = catapult.DefaultSampling()
	}
	if *logFile != "" {
		lf, err := os.Open(*logFile)
		if err != nil {
			fatal(err)
		}
		logDB, err := graph.Read(lf, *logFile)
		lf.Close()
		if err != nil {
			fatal(err)
		}
		cfg.Selection.QueryLog = logDB.Graphs
		fmt.Fprintf(os.Stderr, "query log: %d queries (log-aware scoring enabled)\n", logDB.Len())
	}

	if *deadline > 0 || *health {
		cfg.Degradation = resilience.Config{Enabled: true, Deadline: *deadline}
	}

	// SIGINT/SIGTERM cancel the pipeline cooperatively: with -deadline the
	// run degrades to its best partial result, otherwise it unwinds
	// transactionally and exits. Either way the metrics server (below)
	// still drains in-flight scrapes before the process ends.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var lt *pipeline.LogTrace
	if *trace {
		lt = pipeline.NewLogTrace(os.Stderr)
		ctx = pipeline.WithTrace(ctx, lt)
	}
	if *maddr != "" {
		obs, reg, shutdown := serveMetrics(*maddr)
		cfg.Observer = obs
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := shutdown(sctx); err != nil {
				fmt.Fprintf(os.Stderr, "catapult: metrics shutdown: %v\n", err)
			}
		}()
		if *network == "" {
			reg.Gauge("catapult_graph_labels",
				"Distinct vertex labels in the shared interner after freezing the database.").
				Set(float64(fstats.Labels))
			reg.Gauge("catapult_graph_bytes",
				"Memory footprint in bytes of the frozen database's flat CSR arrays.").
				Set(float64(fstats.Bytes))
		}
	}

	var res *catapult.Result
	var err error
	mined := false
	if *network != "" {
		cfg.Network = bignet.Options{
			Name: *network, MaxRegionEdges: *regionCap, Reps: *reps,
		}
		res, err = runNetwork(ctx, *network, cfg)
	} else {
		if *stateDir != "" {
			res, db = loadSnapshot(*stateDir, cfg, db)
		}
		if res == nil {
			res, err = catapult.SelectCtx(ctx, db, cfg)
			mined = err == nil
		}
	}
	if lt != nil {
		lt.WriteSummary()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "catapult: aborted after -timeout %v (no partial result; use -deadline for graceful degradation)\n", *timeout)
		os.Exit(1)
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "catapult: interrupted; no partial result (use -deadline for graceful degradation)")
		os.Exit(1)
	}
	if err != nil {
		fatal(err)
	}
	if mined && *stateDir != "" {
		if gen, err := saveSnapshot(ctx, *stateDir, db, res); err != nil {
			fmt.Fprintf(os.Stderr, "catapult: snapshot not persisted: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "catapult: state persisted to %s (generation %d)\n", *stateDir, gen)
		}
	}
	if *health && res.Health != nil {
		fmt.Fprint(os.Stderr, res.Health)
	} else if res.Degraded() {
		fmt.Fprintf(os.Stderr, "catapult: degraded under -deadline %v (rerun with -health for details)\n", *deadline)
	}
	fmt.Fprintf(os.Stderr, "clustering: %v (%d clusters), pattern selection: %v\n",
		res.ClusteringTime, len(res.Clusters), res.PatternTime)
	for i, p := range res.Patterns {
		fmt.Fprintf(os.Stderr, "pattern %2d: size=%d score=%.4f ccov=%.3f lcov=%.3f div=%.0f cog=%.2f\n",
			i, p.Size(), p.Score, p.Ccov, p.Lcov, p.Div, p.Cog)
	}
	if res.Exhausted {
		fmt.Fprintf(os.Stderr, "note: selection exhausted at %d of %d patterns\n", len(res.Patterns), *gamma)
	}

	w := os.Stdout
	if *out != "" {
		w, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer w.Close()
	}
	patterns := res.PatternGraphs()
	if *basic > 0 && db != nil {
		basics := freqmine.BasicPatterns(db, *basic)
		fmt.Fprintf(os.Stderr, "basic patterns (size ≤ 2): %d\n", len(basics))
		patterns = append(basics, patterns...)
	}
	pdb := graph.NewDB("patterns", patterns)
	if *graphml {
		if err := graph.WriteGraphML(w, pdb); err != nil {
			fatal(err)
		}
	} else if err := graph.Write(w, pdb); err != nil {
		fatal(err)
	}
}

// loadSnapshot tries to serve the run from the newest verifiable snapshot
// in dir instead of re-mining: on a clean or degraded recovery it returns
// the stored selection as a Result (and the stored database, superseding
// the -in one); on a cold start it returns (nil, db) and the caller mines.
// Corruption is never fatal here — recovery's job is to fall back, and a
// fully unverifiable store simply means a fresh mine.
func loadSnapshot(dir string, cfg catapult.Config, db *graph.DB) (*catapult.Result, *graph.DB) {
	st, info, err := catapult.LoadState(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catapult: %s: mining from scratch\n", info)
		return nil, db
	}
	m, err := catapult.NewMaintainerFromState(st, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catapult: snapshot unusable (%v): mining from scratch\n", err)
		return nil, db
	}
	fmt.Fprintf(os.Stderr, "catapult: warm start from %s (%s)\n", dir, info)
	return &catapult.Result{
		Patterns:  m.Patterns(),
		Clusters:  st.Clusters,
		WorkingDB: m.DB(),
	}, m.DB()
}

// saveSnapshot persists a fresh mine's state as the next snapshot
// generation in dir, so the next run warm-starts.
func saveSnapshot(ctx context.Context, dir string, db *graph.DB, res *catapult.Result) (uint64, error) {
	pats := make([]catapult.StoredPattern, len(res.Patterns))
	for i, p := range res.Patterns {
		pats[i] = catapult.StoredPattern{
			G: p.Graph, Score: p.Score, Ccov: p.Ccov, Lcov: p.Lcov,
			Div: p.Div, Cog: p.Cog, SourceCSG: p.SourceCSG,
		}
	}
	work := res.WorkingDB
	if work == nil {
		work = db
	}
	return catapult.SaveState(ctx, dir, &catapult.StoredState{
		Dataset:  work.Name,
		Version:  1,
		Graphs:   work.Graphs,
		Patterns: pats,
		Clusters: res.Clusters,
	})
}

// runNetwork streams the network file (text edge list or binary,
// autodetected by magic), decomposes it and selects patterns over the
// region summaries. Load progress and decomposition stages report to any
// tracer/observer already configured on ctx/cfg.
func runNetwork(ctx context.Context, path string, cfg catapult.Config) (*catapult.Result, error) {
	nf, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer nf.Close()
	br := bufio.NewReaderSize(nf, 256*1024)
	lctx := ctx
	if cfg.Observer != nil {
		lctx = pipeline.WithTrace(ctx, pipeline.Tee(cfg.Observer, pipeline.From(ctx)))
	}
	var frozen *graph.Frozen
	var st *bignet.LoadStats
	if peek, _ := br.Peek(len(bignet.BinaryMagic)); string(peek) == bignet.BinaryMagic {
		frozen, st, err = bignet.LoadBinaryCtx(lctx, br, bignet.LoadOptions{})
	} else {
		frozen, st, err = bignet.LoadEdgeListCtx(lctx, br, bignet.LoadOptions{})
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "network %s: %s\n", path, st)

	nres, err := catapult.SelectNetworkCtx(ctx, frozen, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "decomposition: %d regions, %d representatives in %v\n",
		len(nres.Decomposition.Regions), nres.Decomposition.Reps, nres.DecomposeTime)
	return nres.Result, nil
}

// serveMetrics starts the -metrics-addr observability server in the
// background and returns the pipeline observer feeding it, the backing
// registry (for process-level gauges), and a graceful shutdown hook:
// /metrics serves the OpenMetrics exposition, /healthz liveness, and
// /debug/pprof/ the standard profiling endpoints (CPU samples carry the
// pipeline's per-stage labels, so `go tool pprof -tagfocus stage=<name>`
// isolates one stage of a long run). main defers the shutdown hook so
// in-flight scrapes drain before a batch run exits.
func serveMetrics(addr string) (catapult.Observer, *metrics.Registry, func(context.Context) error) {
	reg := metrics.NewRegistry()
	mux := http.NewServeMux()
	webui.Ops(mux, reg.Handler(), nil)
	hs := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "catapult: metrics server: %v\n", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "metrics on http://localhost%s/metrics (pprof on /debug/pprof/)\n", addr)
	return metrics.NewTrace(reg), reg, hs.Shutdown
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "catapult:", err)
	os.Exit(1)
}
