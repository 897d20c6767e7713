package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	catapult "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/serve/loadtest"
	"repro/internal/store"
	"repro/internal/suggest"
)

// clients is the most concurrent connections any workload opens: the
// host has two cores, and more clients would measure the load generator
// competing with the server rather than the server.
const clients = 2

// server is a PatternServer over a Maintainer cold-mined from the
// quickstart database, listening on loopback.
type server struct {
	m      *catapult.Maintainer
	ps     *catapult.PatternServer
	url    string
	client *http.Client
	keys   *keystrokeTimer
	layers *serveLayers // nil unless tracing

	srv       *http.Server
	served    chan struct{}
	transport *http.Transport
}

// startServer cold-mines db and serves the result. With storeDir set,
// every committed refresh persists a CSNAP1 generation there.
func startServer(ctx context.Context, b *bench, db *graph.DB, storeDir string) (*server, error) {
	m, err := catapult.NewMaintainerCtx(ctx, db, quickstartConfig())
	if err != nil {
		return nil, fmt.Errorf("cold mine: %w", err)
	}
	if storeDir != "" {
		if err := m.EnablePersistence(storeDir); err != nil {
			return nil, err
		}
	}
	s := &server{m: m, ps: catapult.NewPatternServer(catapult.PatternServerOptions{})}
	src := m.ServeSource()
	var h http.Handler = s.ps
	if b.tr != nil {
		reg := catapult.NewMetrics()
		m.EnableMetrics(reg)
		s.layers = &serveLayers{b: b, ps: s.ps, lastRefresh: reg.Gauge("catapult_maintainer_last_refresh_seconds", "")}
		s.layers.rec.Store(pipeline.NewRecorder())
		src = &tracedSource{ServeSource: src, l: s.layers}
		h = s.layers.wrap(s.ps)
	}
	if _, err := s.ps.AddTenant(catapult.ServeDefaultTenant, src); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	s.url = "http://" + ln.Addr().String()
	s.transport = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	s.keys = &keystrokeTimer{next: s.transport}
	s.client = &http.Client{Transport: s.keys, Timeout: time.Minute}
	return s, nil
}

// close stops the server and waits until it has stopped serving.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // only a timeout can fail it; Serve has returned either way below
	s.srv.Close()
	<-s.served
	s.transport.CloseIdleConnections()
}

// post sends body to path and decodes a 200 JSON answer into out.
func (s *server) post(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: decode: %w", path, err)
	}
	return nil
}

const refreshPath = "/v1/tenants/" + catapult.ServeDefaultTenant + "/refresh"

// Refresh workload sizing. readRate is well below what one core answers
// on a cold memo, so reads measure service time during refreshes, not a
// backlog.
const (
	refreshOpSeconds = 1.2
	readRate         = 100 // /v1/search requests per second
)

// refreshInputs is what the refresh workload's setup prepares.
type refreshInputs struct {
	srv     *server
	dir     string
	batches [][]byte
	reads   [][]byte
	version uint64 // served snapshot version after the warm-up refresh
	graphs  int    // database size after the warm-up refresh
}

// runRefresh is writes beside reads: one closed-loop writer posts a fixed
// sequence of small batches to the refresh endpoint while one open-loop
// reader posts seeded searches at a fixed rate.
func runRefresh(ctx context.Context, b *bench) error {
	n := opsFor(b.opts.seconds, refreshOpSeconds, minBatchOps)
	in, teardown, err := setup(b, func(rep int) (refreshInputs, func(), error) {
		in := refreshInputs{dir: filepath.Join(b.workDir, fmt.Sprintf("store-%d", rep))}
		for i := 0; i < n; i++ {
			batch, err := refreshBatch(batchData + i)
			if err != nil {
				return in, nil, err
			}
			in.batches = append(in.batches, batch)
		}
		db := aidsDB(quickstartDB)
		srv, err := startServer(ctx, b, db, in.dir)
		if err != nil {
			return in, nil, err
		}
		in.srv = srv
		var rr catapult.ServeRefreshResponse
		warm, err := refreshBatch(warmupData)
		if err == nil {
			err = srv.post(ctx, refreshPath, warm, &rr)
		}
		if err != nil {
			srv.close()
			return in, nil, fmt.Errorf("warm-up refresh: %w", err)
		}
		in.version, in.graphs = rr.Stats.Version, rr.Stats.Graphs
		// Enough queries for a phase three times longer than
		// planned; a slower host wraps around to repeats.
		in.reads, err = readQueries(db, b.opts.seed, 3*readRate*b.opts.seconds)
		if err != nil {
			srv.close()
			return in, nil, err
		}
		return in, srv.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	srv := in.srv
	srv.layers.reset()

	var w refreshWriter
	var r openLoopReader
	b.timed(func() {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run(ctx, srv, in, stop)
		}()
		w.run(ctx, b, srv, in)
		close(stop)
		wg.Wait()
	})
	b.opTimes(w.ms)
	b.attempted += len(in.batches) + r.sent
	b.failures(w.failed, "refresh: %d refreshes failed or did not bump the version exactly once (first: %v)", w.failed, w.firstErr)
	b.failures(r.failed, "refresh: %d of %d reads failed or were torn (first: %v)", r.failed, r.sent, r.firstErr)
	b.check(len(r.lat) > 0, "refresh: no read completed during the refreshes")
	b.set("wait_ms", median(r.lat))
	b.logf("reads n=%d p50=%.3fms (rate %d/s, timed from due)", len(r.lat), median(r.lat), readRate)
	setTail(b, "serve.read_p99_ms", "reads", r.lat)
	setTail(b, "loadgen.read_late_p99_ms", "read lateness", r.late)

	if st := b.warmRestart(in); st != nil {
		db := st.DB()
		gs := make([]*graph.Graph, len(st.Patterns))
		for i, p := range st.Patterns {
			gs[i] = p.G
		}
		b.set("mu", muOf(db, gs, b.opts.seed, 0))
		b.set("scov", core.Scov(db, gs))
	}
	if srv.layers != nil {
		srv.layers.report(len(w.ms), "refresh", w.ms, w.persistMs)
	}
	return nil
}

// refreshWriter is the closed-loop refresh client.
type refreshWriter struct {
	ms, persistMs []float64
	failed        int
	firstErr      error
}

func (w *refreshWriter) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// run posts every batch in order. A refresh op lasts from the request
// until the response that reports the new snapshot served; it must bump
// the served version by exactly one and absorb the whole batch.
func (w *refreshWriter) run(ctx context.Context, b *bench, srv *server, in refreshInputs) {
	want := in.version
	for i, batch := range in.batches {
		var rr catapult.ServeRefreshResponse
		runtime.GC()
		start := time.Now()
		err := srv.post(ctx, refreshPath, batch, &rr)
		elapsed := time.Since(start)
		want++
		switch {
		case err != nil:
			w.fail(fmt.Errorf("batch %d: %w", i, err))
			continue
		case rr.Stats.Version != want || rr.Added != batchGraphs:
			w.fail(fmt.Errorf("batch %d: served version %d with %d graphs added, want version %d and %d", i, rr.Stats.Version, rr.Added, want, batchGraphs))
		}
		w.ms = append(w.ms, float64(elapsed.Nanoseconds())/1e6)
		if b.tr != nil {
			// The store's write path, timed on its own: one more durable
			// generation of the state the refresh just committed.
			_, end := b.tr.start("store.persist", 0, 0)
			start := time.Now()
			_, err := srv.m.PersistNow(ctx)
			w.persistMs = append(w.persistMs, float64(time.Since(start).Nanoseconds())/1e6)
			end()
			if err != nil {
				w.fail(fmt.Errorf("persist after batch %d: %w", i, err))
			}
		}
	}
}

// openLoopReader sends /v1/search requests on a fixed schedule from one
// connection. Each request is timed from when it was due, so a stall also
// counts against the requests queued behind it.
type openLoopReader struct {
	lat, late []float64
	sent      int
	failed    int
	firstErr  error
}

func (r *openLoopReader) run(ctx context.Context, srv *server, in refreshInputs, stop <-chan struct{}) {
	interval := time.Second / readRate
	start := time.Now()
	lastVersion := in.version
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		wait := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			wait.Stop()
			return
		case <-wait.C:
		}
		r.late = append(r.late, float64(time.Since(due).Nanoseconds())/1e6)
		r.sent++
		var sr catapult.ServeSearchResponse
		err := srv.post(ctx, "/v1/search", in.reads[k%len(in.reads)], &sr)
		if err == nil {
			err = tornSearch(sr, in, lastVersion)
			lastVersion = max(lastVersion, sr.Stats.Version)
		}
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
			continue
		}
		r.lat = append(r.lat, float64(time.Since(due).Nanoseconds())/1e6)
	}
}

// tornSearch checks a search answer against the snapshot it names: the
// version never goes back, the database holds exactly the graphs that
// version has absorbed, and every hit is a graph of it.
func tornSearch(sr catapult.ServeSearchResponse, in refreshInputs, lastVersion uint64) error {
	st := sr.Stats
	wantGraphs := in.graphs + int(st.Version-in.version)*batchGraphs
	switch {
	case st.Version < lastVersion:
		return fmt.Errorf("version went back from %d to %d", lastVersion, st.Version)
	case st.Version < in.version || st.Graphs != wantGraphs:
		return fmt.Errorf("version %d serves %d graphs, want %d", st.Version, st.Graphs, wantGraphs)
	case sr.Matches != len(sr.Graphs):
		return fmt.Errorf("%d matches listed as %d graphs", sr.Matches, len(sr.Graphs))
	}
	for _, g := range sr.Graphs {
		if g < 0 || g >= st.Graphs {
			return fmt.Errorf("hit %d outside a %d-graph database", g, st.Graphs)
		}
	}
	return nil
}

// warmRestart recovers the final CSNAP1 generation the way a restarted
// server would and checks that it resumes exactly the persisted state and
// that the state is the one the refreshes built.
func (b *bench) warmRestart(in refreshInputs) *catapult.StoredState {
	start := time.Now()
	st, _, err := catapult.LoadState(in.dir)
	var warm *catapult.Maintainer
	if err == nil {
		warm, err = catapult.NewMaintainerFromState(st, quickstartConfig())
	}
	b.set("store.recover_ms", float64(time.Since(start).Nanoseconds())/1e6)
	if err != nil {
		b.check(false, "warm restart: %v", err)
		return nil
	}
	persisted := *st
	persisted.SavedAt = time.Time{} // SnapshotState leaves it unset
	same, err := store.Equal(&persisted, warm.SnapshotState())
	b.check(err == nil && same, "warm restart: recovered maintainer differs from the persisted state (%v)", err)
	// The Maintainer and the served snapshot both count one version per
	// committed refresh.
	wantVer := in.version + uint64(len(in.batches))
	wantGraphs := in.graphs + len(in.batches)*batchGraphs
	b.check(st.Version == wantVer && len(st.Graphs) == wantGraphs,
		"warm restart: persisted version %d with %d graphs, want %d with %d", st.Version, len(st.Graphs), wantVer, wantGraphs)
	return st
}

// Keystroke workload sizing. One op is a session of sessionQueries
// formulated queries: single queries fall into clusters by the panel
// pattern they grow from, and their median jumped between two clusters
// 10 ms apart from one seed to the next while throughput held steady. A
// session of eight takes a user about 0.3 s on the quickstart panel.
const (
	sessionQueries   = 8
	sessionOpSeconds = 0.3
)

// The suggest gate's user model: users accept every suggestion that makes
// progress, and grow each target by up to two edges past a panel pattern.
const (
	acceptProb  = 2
	extendEdges = 2
)

// runKeystrokes is interactive formulation: two closed-loop users with no
// think time each run a fixed list of seeded sessions, formulating target
// queries keystroke by keystroke against /v1/suggest through the load
// harness's keystroke replay. One op is one session.
func runKeystrokes(ctx context.Context, b *bench) error {
	perUser := opsFor(b.opts.seconds, sessionOpSeconds, 10)
	srv, teardown, err := setup(b, func(int) (*server, func(), error) {
		srv, err := startServer(ctx, b, aidsDB(quickstartDB), "")
		if err != nil {
			return nil, nil, err
		}
		if _, err := formulate(ctx, srv, subSeed(b.opts.seed, streamWarmup, 0)); err != nil {
			srv.close()
			return nil, nil, fmt.Errorf("warm-up session: %w", err)
		}
		return srv, srv.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	srv.keys.reset()
	srv.layers.reset()

	seeds := userSeeds(b.opts.seed, clients, perUser)
	sessions := make([][]session, clients)
	b.timed(func() {
		var wg sync.WaitGroup
		for u := range sessions {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				for _, seed := range seeds[u] {
					start := time.Now()
					res, err := formulate(ctx, srv, seed)
					sessions[u] = append(sessions[u], session{res, time.Since(start), err})
				}
			}(u)
		}
		wg.Wait()
	})
	var all sessionTally
	for _, ss := range sessions {
		for _, s := range ss {
			all.add(s)
		}
	}
	keys := srv.keys.samples()
	b.opTimes(all.ms)
	b.attempted += int(all.keystrokes) + all.errs
	b.failures(int(all.errors+all.shed+all.torn)+all.errs, "keystrokes: %d errors, %d shed, %d torn responses, %d replay failures (first: %s)",
		all.errors, all.shed, all.torn, all.errs, all.firstErr)
	// The keystroke median sits between the memo-hit and the ranked mode,
	// so the tail is the statistic that repeats: the p99, over at least
	// a thousand keystrokes.
	b.check(tailPercentile(len(keys)) >= 99, "keystrokes: %d keystrokes are too few for a p99", len(keys))
	sorted := sortedCopy(keys)
	b.set("wait_ms", percentile(sorted, 99))
	b.set("mu", ratio(float64(all.stepTotal-all.stepP), float64(all.stepTotal)))
	b.logf("keystrokes n=%d p50=%.3fms p99=%.3fms degraded=%d accepts=%d", len(keys),
		percentile(sorted, 50), percentile(sorted, 99), all.degraded, all.accepts)
	b.set("loadgen.keystroke_p50_ms", percentile(sorted, 50))
	b.set("loadgen.keystrokes_per_s", ratio(float64(len(keys)), b.phase.wall.Seconds()))
	b.set("suggest.degraded_ratio", ratio(float64(all.degraded), float64(len(keys))))
	b.set("scov", core.Scov(srv.m.DB(), patternGraphs(srv.m.Patterns())))
	if srv.layers != nil {
		srv.layers.report(len(all.ms), "suggest", keys, nil)
	}
	return nil
}

// formulate has one seeded user fetch the panel and formulate a session
// of target queries through the keystroke replay.
func formulate(ctx context.Context, srv *server, seed int64) (*loadtest.KeystrokeResult, error) {
	return loadtest.RunKeystrokes(ctx, loadtest.KeystrokeOptions{
		BaseURL: srv.url, Client: srv.client, Users: 1, Targets: sessionQueries, Seed: seed,
		AcceptProb: acceptProb, ExtendEdges: extendEdges,
	})
}

// session is one replayed session: the replay's account and how long the
// user took over it.
type session struct {
	res *loadtest.KeystrokeResult
	d   time.Duration
	err error
}

// sessionTally sums the sessions of a run.
type sessionTally struct {
	ms                       []float64
	keystrokes, errors, shed int64
	torn, degraded, accepts  int64
	stepTotal, stepP         int
	errs                     int // replays that could not run
	firstErr                 string
}

func (t *sessionTally) add(s session) {
	if s.err != nil {
		t.errs++
		if t.firstErr == "" {
			t.firstErr = s.err.Error()
		}
		return
	}
	r := s.res
	t.ms = append(t.ms, float64(s.d.Nanoseconds())/1e6)
	t.keystrokes += r.Keystrokes
	t.errors += r.Errors
	t.shed += r.Shed
	t.torn += r.TornReads
	t.degraded += r.Degraded
	t.accepts += r.Accepts
	t.stepTotal += r.StepTotal
	t.stepP += r.StepP
	if t.firstErr == "" && r.FirstError != "" {
		t.firstErr = r.FirstError
	}
}

// keystrokeTimer times every /v1/suggest round trip the client makes, from
// sending the request until the caller closes the response body after
// decoding it: the latency the formulating user observes.
type keystrokeTimer struct {
	next http.RoundTripper
	mu   sync.Mutex
	ms   []float64
}

func (k *keystrokeTimer) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := k.next.RoundTrip(r)
	if err != nil || r.Method != http.MethodPost || r.URL.Path != "/v1/suggest" {
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		d := float64(time.Since(start).Nanoseconds()) / 1e6
		k.mu.Lock()
		k.ms = append(k.ms, d)
		k.mu.Unlock()
	}}
	return resp, nil
}

func (k *keystrokeTimer) reset() {
	k.mu.Lock()
	k.ms = nil
	k.mu.Unlock()
}

func (k *keystrokeTimer) samples() []float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]float64(nil), k.ms...)
}

// timedBody calls done once, when the body is first closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (t *timedBody) Close() error {
	t.once.Do(t.done)
	return t.ReadCloser.Close()
}

// setTail reports the highest tail percentile xs supports under name.
func setTail(b *bench, name, what string, xs []float64) {
	p := tailPercentile(len(xs))
	if p == 0 {
		b.logf("%s: %d samples are too few for a tail percentile", what, len(xs))
		return
	}
	v := percentile(sortedCopy(xs), p)
	b.set(name, v)
	b.logf("%s p%g=%.3fms (n=%d)", what, p, v, len(xs))
}

// serveLayers wraps the server's http.Handler and the serve.Source given
// to AddTenant in a traced run: spans around each request and each
// Source.Refresh, the program's counters of every request, and the engine
// stats of every suggest response.
type serveLayers struct {
	b           *bench
	ps          *catapult.PatternServer
	rec         atomic.Pointer[pipeline.Recorder]
	lastRefresh metrics.Gauge
	ops         atomic.Int64

	mu          sync.Mutex
	suggests    []suggest.Stats
	badSuggests int
	refreshes   []refreshStages
}

// refreshStages is where one Source.Refresh spent its time, by the
// program's own pipeline stages, plus the pattern time the Maintainer
// reports for it.
type refreshStages struct {
	fine, csg, sel, reselect float64 // ms
}

func (l *serveLayers) reset() {
	if l == nil {
		return
	}
	l.b.tr.reset()
	l.rec.Store(pipeline.NewRecorder())
	l.mu.Lock()
	l.suggests, l.badSuggests, l.refreshes = nil, 0, nil
	l.mu.Unlock()
}

// endpoint names the API endpoint of a request path.
func endpoint(path string) string {
	switch {
	case strings.HasSuffix(path, "/refresh"):
		return "refresh"
	case strings.HasPrefix(path, "/v1/"):
		return strings.TrimPrefix(path, "/v1/")
	}
	return "other"
}

func (l *serveLayers) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := endpoint(r.URL.Path)
		op := l.ops.Add(1)
		id, end := l.b.tr.start("serve.handler."+ep, 0, op)
		ctx := withSpan(pipeline.WithTrace(r.Context(), l.rec.Load()), spanRef{id, op})
		if ep != "suggest" {
			h.ServeHTTP(w, r.WithContext(ctx))
			end()
			return
		}
		tw := &teeWriter{ResponseWriter: w}
		h.ServeHTTP(tw, r.WithContext(ctx))
		end()
		l.observeSuggest(tw.buf.Bytes())
	})
}

// observeSuggest keeps a suggest response's engine stats and checks that
// every suggestion is a pattern of the snapshot that answered, text and
// all.
func (l *serveLayers) observeSuggest(body []byte) {
	var sr catapult.ServeSuggestResponse
	err := json.Unmarshal(body, &sr)
	snap := l.ps.Tenant(catapult.ServeDefaultTenant).Snapshot()
	ok := err == nil && sr.Stats.Version == snap.Version()
	for _, sg := range sr.Suggestions {
		ok = ok && sg.Pattern >= 0 && sg.Pattern < sr.Stats.Patterns && sg.Text == snap.PatternText(sg.Pattern)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !ok {
		l.badSuggests++
		return
	}
	l.suggests = append(l.suggests, sr.Suggest)
}

// teeWriter keeps a copy of the response body it passes on.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.buf.Write(p)
	return t.ResponseWriter.Write(p)
}

// tracedSource is the serve.Source the traced run hands AddTenant: the
// Maintainer's own source inside a span, under a recorder of the refresh's
// pipeline stages.
type tracedSource struct {
	catapult.ServeSource
	l *serveLayers
}

func (s *tracedSource) Refresh(ctx context.Context, gs []*graph.Graph) error {
	ref := spanFrom(ctx)
	rec := pipeline.NewRecorder()
	ctx = pipeline.WithTrace(ctx, pipeline.Tee(rec, pipeline.From(ctx)))
	_, end := s.l.b.tr.start("maintainer.refresh", ref.id, ref.op)
	err := s.ServeSource.Refresh(ctx, gs)
	end()
	if err != nil {
		return err
	}
	ms := func(st pipeline.Stage) float64 { return float64(rec.Duration(st).Nanoseconds()) / 1e6 }
	stages := refreshStages{
		fine:     ms(pipeline.StageFine),
		csg:      ms(pipeline.StageCSG),
		sel:      ms(pipeline.StageSelect),
		reselect: s.l.lastRefresh.Value() * 1e3,
	}
	s.l.mu.Lock()
	s.l.refreshes = append(s.l.refreshes, stages)
	s.l.mu.Unlock()
	return nil
}

// report derives the serving layers' per-layer metrics: ops is the
// workload's op count, ep the endpoint its ops or keystrokes hit, and
// clientMs the client-observed latencies of those requests.
func (l *serveLayers) report(ops int, ep string, clientMs, persistMs []float64) {
	b := l.b
	spans := b.tr.snapshot()
	self := selfByName(spans)
	for _, e := range []string{"search", "suggest", "refresh"} {
		b.set("serve.handler."+e+"_ms", median(durations(spans, "serve.handler."+e)))
	}
	c := l.rec.Load().Counters()
	b.setCounters(c, ops)
	b.set("store.bytes_per_persist", ratio(float64(c[pipeline.CounterStoreBytes]), float64(c[pipeline.CounterStorePersists])))
	b.set("store.persist_ms", mean(persistMs))

	l.mu.Lock()
	defer l.mu.Unlock()
	b.check(l.badSuggests == 0, "keystrokes: %d suggest responses named patterns outside the snapshot that answered", l.badSuggests)
	if n := float64(len(l.refreshes)); n > 0 {
		var tot refreshStages
		for _, r := range l.refreshes {
			tot.fine, tot.csg, tot.sel, tot.reselect = tot.fine+r.fine, tot.csg+r.csg, tot.sel+r.sel, tot.reselect+r.reselect
		}
		b.set("maintainer.refresh_ms", mean(durations(spans, "maintainer.refresh")))
		b.set("maintainer.reselect_ms", tot.reselect/n)
		b.set("cluster.fine.busy_ms", tot.fine/n)
		b.set("csg.busy_ms", tot.csg/n)
		b.set("core.select.busy_ms", tot.sel/n)
		b.set("serve.snapshot_ms", self["serve.handler.refresh"]/n)
	}
	if len(l.suggests) > 0 {
		var busy []float64
		var ranked, approx, cands float64
		for _, st := range l.suggests {
			busy = append(busy, float64(st.Elapsed.Nanoseconds())/1e6)
			ranked += float64(st.Ranked)
			approx += float64(st.ApproxRanked)
			cands += float64(st.Candidates)
		}
		b.set("suggest.busy_p50_ms", median(busy))
		setTail(b, "suggest.busy_p99_ms", "suggest engine time", busy)
		b.set("suggest.approx_ratio", ratio(approx, ranked))
		b.set("suggest.candidates", cands/float64(len(l.suggests)))
	}
	b.set("trace.op_p50_ms", b.vals["op_p50_ms"])
	b.set("trace.layer_share", ratio(sum(durations(spans, "serve.handler."+ep)), sum(clientMs)))
}
