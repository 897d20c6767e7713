// Package loadtest replays seeded simulated users (internal/usersim)
// against a running pattern service as concurrent HTTP clients. Each user
// alternates panel fetches and containment searches, paced by a scaled
// version of the user model's comprehension times, and verifies every
// response's internal consistency while it runs: a pattern panel whose
// length disagrees with its own embedded stats, a search hit outside the
// snapshot's graph range, or an X-Snapshot-Version header that is missing
// or names another version than the body is a torn read, and a snapshot
// version that moves backwards is a regression — the exact failures the
// serving layer's atomic snapshot discipline exists to rule out. The
// harness is the measurement half of the serving bench gate (RPS and
// latency percentiles) and the assertion half of the -race serving suite.
package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/usersim"
)

// Options configures one load run.
type Options struct {
	// BaseURL of the pattern service (e.g. an httptest.Server.URL).
	BaseURL string
	// Client to issue requests with; nil uses a transport sized for the
	// user count (keep-alive connections, no per-host idle cap).
	Client *http.Client
	// Users is the number of concurrent simulated users (default 8).
	Users int
	// Seed makes the user population and their action schedule
	// reproducible.
	Seed int64
	// Duration is the wall-clock run length (default 1s).
	Duration time.Duration
	// ThinkScale multiplies the user model's comprehension times to set
	// the offered load; 1.0 replays human pacing (seconds between
	// actions), 0.01 compresses it into interactive stress pacing. Zero
	// means no think time at all — a closed loop, which on small machines
	// measures queueing rather than service and is rarely what you want.
	ThinkScale float64
	// SearchFraction is the probability an action is a containment search
	// of one of the user's panel patterns instead of a panel fetch
	// (default 0.25).
	SearchFraction float64
	// Ramp staggers user start times uniformly over this window, so a
	// large fleet arrives the way real users do instead of as one
	// synchronized thundering herd at t=0. Ramp counts toward Duration.
	Ramp time.Duration
	// MaxConns caps the client's connections to the server (0 = one per
	// user). Large fleets on small machines should cap this well below
	// the user count: each connection costs a server goroutine plus
	// kernel and bufio buffers, and a thousand of them adds scheduling
	// and GC tail latency that measures the harness, not the server —
	// real fleets multiplex through proxies the same way. Ignored when
	// Client is set.
	MaxConns int
	// Tenant to address (default serve.DefaultTenant).
	Tenant string
	// Stop, when closed, makes every user let its in-flight request finish
	// and then exit without issuing another — the load-balancer half of a
	// graceful drain. Unlike cancelling ctx (which aborts requests
	// mid-flight and suppresses their accounting), a Stop drain keeps every
	// issued request counted, so a drain test can assert the server broke
	// none of them. Optional; nil means users run until Duration elapses.
	Stop <-chan struct{}
}

// Result aggregates a load run.
type Result struct {
	Users    int           `json:"users"`
	Duration time.Duration `json:"duration_ns"`
	Requests int64         `json:"requests"`
	Errors   int64         `json:"errors"`
	Shed     int64         `json:"shed"` // 429s: admission working as designed
	RPS      float64       `json:"rps"`

	// Consistency violations — all must be zero on a correct server.
	TornReads          int64 `json:"torn_reads"`
	VersionRegressions int64 `json:"version_regressions"`

	// Latency percentiles over successful requests.
	P50 time.Duration `json:"p50_ns"`
	P90 time.Duration `json:"p90_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`

	// MinVersion/MaxVersion are the snapshot version range observed
	// across all responses (evidence the run actually spanned refreshes).
	MinVersion uint64 `json:"min_version"`
	MaxVersion uint64 `json:"max_version"`

	// FirstError carries the first request error observed, for diagnosis
	// when Errors > 0.
	FirstError string `json:"first_error,omitempty"`
}

// Consistent reports whether the run observed zero consistency violations.
func (r *Result) Consistent() bool {
	return r.TornReads == 0 && r.VersionRegressions == 0
}

// userStats is one user's private tally, merged after the run — the hot
// loop never touches shared state.
type userStats struct {
	requests, errors, shed      int64
	tornReads, versionRegressed int64
	minVersion, maxVersion      uint64
	latencies                   []time.Duration
	firstErr                    error
}

// Run replays opts.Users simulated users against the service until
// opts.Duration elapses or ctx is cancelled. It returns an error only when
// the run could not execute at all; consistency violations and request
// errors are reported in the Result for the caller to assert on.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if opts.BaseURL == "" {
		return nil, errors.New("loadtest: BaseURL required")
	}
	if opts.Users <= 0 {
		opts.Users = 8
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	if opts.SearchFraction == 0 {
		opts.SearchFraction = 0.25
	}
	if opts.Tenant == "" {
		opts.Tenant = serve.DefaultTenant
	}
	client := opts.Client
	if client == nil {
		conns := opts.MaxConns
		if conns <= 0 {
			conns = opts.Users + 16
		}
		tr := &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		}
		client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
		defer tr.CloseIdleConnections()
	}

	runCtx, cancel := context.WithTimeout(ctx, opts.Duration)
	defer cancel()

	stats := make([]userStats, opts.Users)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < opts.Users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := &userLoop{
				client: client,
				opts:   opts,
				user:   usersim.NewUser(opts.Seed + int64(i)),
				rng:    rand.New(rand.NewSource(opts.Seed ^ (int64(i)+1)*0x9e3779b9)),
				stats:  &stats[i],
			}
			u.run(runCtx)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{Users: opts.Users, Duration: elapsed}
	var all []time.Duration
	for i := range stats {
		s := &stats[i]
		res.Requests += s.requests
		res.Errors += s.errors
		res.Shed += s.shed
		res.TornReads += s.tornReads
		res.VersionRegressions += s.versionRegressed
		if res.FirstError == "" && s.firstErr != nil {
			res.FirstError = s.firstErr.Error()
		}
		if s.maxVersion > res.MaxVersion {
			res.MaxVersion = s.maxVersion
		}
		if s.minVersion != 0 && (res.MinVersion == 0 || s.minVersion < res.MinVersion) {
			res.MinVersion = s.minVersion
		}
		all = append(all, s.latencies...)
	}
	if elapsed > 0 {
		res.RPS = float64(res.Requests) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		res.P50 = percentile(all, 0.50)
		res.P90 = percentile(all, 0.90)
		res.P99 = percentile(all, 0.99)
		res.Max = all[len(all)-1]
	}
	return res, nil
}

// percentile reads q from an ascending-sorted sample (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// userLoop is one simulated user's session state.
type userLoop struct {
	client *http.Client
	opts   Options
	user   *usersim.User
	rng    *rand.Rand
	stats  *userStats

	panel        []*graph.Graph // parsed panel patterns, for pacing + queries
	panelTexts   []string
	panelVersion uint64
	lastPanel    []byte // last verified panel body, byte-for-byte
	// lastPanelVersion is the stats.version embedded in lastPanel.
	lastPanelVersion uint64
}

func (u *userLoop) run(ctx context.Context) {
	if u.opts.Ramp > 0 {
		select {
		case <-ctx.Done():
			return
		case <-u.opts.Stop:
			return
		case <-time.After(time.Duration(u.rng.Float64() * float64(u.opts.Ramp))):
		}
	}
	for ctx.Err() == nil {
		select {
		case <-u.opts.Stop:
			return
		default:
		}
		if len(u.panel) == 0 || u.rng.Float64() >= u.opts.SearchFraction {
			u.fetchPatterns(ctx)
		} else {
			u.search(ctx)
		}
		u.think(ctx)
	}
}

// think pauses for a scaled comprehension time of a random panel pattern —
// the pacing of a human scanning the canned-pattern panel.
func (u *userLoop) think(ctx context.Context) {
	if u.opts.ThinkScale <= 0 {
		return
	}
	d := 5 * time.Millisecond
	if len(u.panel) > 0 {
		p := u.panel[u.rng.Intn(len(u.panel))]
		d = time.Duration(u.user.ComprehensionTime(p) * u.opts.ThinkScale * float64(time.Second))
	}
	select {
	case <-ctx.Done():
	case <-u.opts.Stop:
	case <-time.After(d):
	}
}

func (u *userLoop) observeVersion(v uint64) {
	if v > u.stats.maxVersion {
		u.stats.maxVersion = v
	}
	if u.stats.minVersion == 0 || v < u.stats.minVersion {
		u.stats.minVersion = v
	}
}

// do issues one request, records its latency, and returns the body and
// the X-Snapshot-Version header for 200s (nil otherwise, with error/shed
// accounting done).
func (u *userLoop) do(ctx context.Context, method, path string, body io.Reader) ([]byte, string) {
	req, err := http.NewRequestWithContext(ctx, method, u.opts.BaseURL+path, body)
	if err != nil {
		u.fail(err)
		return nil, ""
	}
	start := time.Now()
	resp, err := u.client.Do(req)
	if err != nil {
		// Cancellation at run end is not a server error.
		if ctx.Err() == nil {
			u.fail(err)
		}
		return nil, ""
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	elapsed := time.Since(start)
	if err != nil {
		if ctx.Err() == nil {
			u.fail(err)
		}
		return nil, ""
	}
	u.stats.requests++
	u.stats.latencies = append(u.stats.latencies, elapsed)
	switch resp.StatusCode {
	case http.StatusOK:
		return payload, resp.Header.Get("X-Snapshot-Version")
	case http.StatusTooManyRequests:
		u.stats.shed++
		return nil, ""
	default:
		u.fail(fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, payload))
		return nil, ""
	}
}

// versionMatches reports whether a 200's X-Snapshot-Version header names
// the version its body embeds.
func versionMatches(header string, body uint64) bool {
	return header == strconv.FormatUint(body, 10)
}

func (u *userLoop) fail(err error) {
	u.stats.errors++
	if u.stats.firstErr == nil {
		u.stats.firstErr = err
	}
}

func (u *userLoop) fetchPatterns(ctx context.Context) {
	body, version := u.do(ctx, http.MethodGet, "/v1/patterns?tenant="+u.opts.Tenant, nil)
	if body == nil {
		return
	}
	// The panel is pre-rendered once per snapshot server-side, so a body
	// byte-identical to the last verified one was already proven
	// consistent — skip the decode (the dominant client-side cost under
	// high fleet counts, where it would distort the latency measurement).
	if bytes.Equal(body, u.lastPanel) {
		if !versionMatches(version, u.lastPanelVersion) {
			u.stats.tornReads++
		}
		return
	}
	var pr serve.PatternsResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		u.stats.tornReads++ // unparseable 200 body: torn by definition
		return
	}
	// The internal-consistency invariants: the payload must agree with its
	// own embedded stats, and versions never move backwards.
	if len(pr.Patterns) != pr.Stats.Patterns || !versionMatches(version, pr.Stats.Version) {
		u.stats.tornReads++
		return
	}
	if pr.Stats.Version < u.stats.maxVersion {
		u.stats.versionRegressed++
		return
	}
	u.observeVersion(pr.Stats.Version)
	u.lastPanel, u.lastPanelVersion = body, pr.Stats.Version

	// Adopt the fresh panel (parse once; texts double as search queries).
	if len(pr.Patterns) > 0 && (len(u.panelTexts) == 0 || pr.Stats.Version > u.panelVersion) {
		panel := make([]*graph.Graph, 0, len(pr.Patterns))
		texts := make([]string, 0, len(pr.Patterns))
		for _, pv := range pr.Patterns {
			gdb, err := graph.Read(strings.NewReader(pv.Text), "p")
			if err != nil || gdb.Len() != 1 {
				u.stats.tornReads++
				return
			}
			panel = append(panel, gdb.Graph(0))
			texts = append(texts, pv.Text)
		}
		u.panel, u.panelTexts, u.panelVersion = panel, texts, pr.Stats.Version
	}
}

func (u *userLoop) search(ctx context.Context) {
	i := u.rng.Intn(len(u.panelTexts))
	body, version := u.do(ctx, http.MethodPost, "/v1/search?tenant="+u.opts.Tenant,
		strings.NewReader(u.panelTexts[i]))
	if body == nil {
		return
	}
	var sr serve.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		u.stats.tornReads++
		return
	}
	if sr.Matches != len(sr.Graphs) || !versionMatches(version, sr.Stats.Version) {
		u.stats.tornReads++
		return
	}
	for _, g := range sr.Graphs {
		if g < 0 || g >= sr.Stats.Graphs {
			u.stats.tornReads++
			return
		}
	}
	if sr.Stats.Version < u.stats.maxVersion {
		u.stats.versionRegressed++
		return
	}
	u.observeVersion(sr.Stats.Version)
}
