package catapult

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// TestChaosServeSnapshotConsistency is the serving layer's chaos drill:
// reader goroutines hammer /v1/patterns while the Maintainer refreshes
// underneath them, and one refresh is made to fail mid-flight by an
// injected context cancellation at the Nth VF2 call — deep inside pattern
// reselection, after the refresh has begun building successor state. The
// transactional Maintainer must roll back, the tenant must keep serving
// the last-good snapshot, every concurrent response must be internally
// consistent (pattern count matching its own embedded stats, monotone
// versions), and the next good refresh must drain the queued batch.
// Run by `make chaos` under -race.
func TestChaosServeSnapshotConsistency(t *testing.T) {
	db := dataset.AIDSLike(20, 15)
	m, err := NewMaintainerCtx(context.Background(), db, Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 5, Gamma: 5},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 8, MinSupport: 0.2},
		Seed:       17,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.NewServer(serve.Options{})
	tn, err := s.AddTenant(serve.DefaultTenant, m.ServeSource())
	if err != nil {
		t.Fatal(err)
	}

	// Reader fleet: fetch the panel continuously, asserting every response
	// is internally consistent and versions never move backwards.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}
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
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/patterns", nil))
				if rec.Code != 200 {
					report("reader: status %d", rec.Code)
					return
				}
				var pr serve.PatternsResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
					report("reader: unparseable body: %v", err)
					return
				}
				if len(pr.Patterns) != pr.Stats.Patterns {
					report("torn read: %d patterns, stats say %d (version %d)",
						len(pr.Patterns), pr.Stats.Patterns, pr.Stats.Version)
					return
				}
				if pr.Stats.Version < lastVersion {
					report("version regressed %d -> %d", lastVersion, pr.Stats.Version)
					return
				}
				lastVersion = pr.Stats.Version
			}
		}()
	}

	// Refresh 1: clean, must swap.
	v1 := tn.Snapshot().Stats()
	if _, err := tn.Refresh(context.Background(), dataset.AIDSLike(2, 31).Graphs); err != nil {
		t.Fatalf("clean refresh: %v", err)
	}
	v2 := tn.Snapshot().Stats()
	if v2.Version != v1.Version+1 || v2.Graphs != v1.Graphs+2 {
		t.Fatalf("clean refresh did not swap: %+v -> %+v", v1, v2)
	}

	// Refresh 2: poisoned. The injector cancels the refresh's context at
	// the 3rd VF2 call — mid-reselection, precisely when successor state
	// is half-built.
	inj := faultinject.New()
	poisonCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj.Do(pipeline.CounterVF2Calls, 3, "cancel-mid-refresh", cancel)
	if _, err := tn.Refresh(pipeline.WithTrace(poisonCtx, inj), dataset.AIDSLike(3, 47).Graphs); err == nil {
		t.Fatal("poisoned refresh succeeded, want mid-flight failure")
	}
	if len(inj.Fired()) == 0 {
		t.Fatal("injected cancellation never fired; the chaos path was not exercised")
	}
	after := tn.Snapshot().Stats()
	if after != v2 {
		t.Errorf("failed refresh disturbed the served snapshot: %+v -> %+v", v2, after)
	}
	if m.Pending() != 3 {
		t.Errorf("maintainer pending = %d, want 3 (poisoned batch queued)", m.Pending())
	}

	// Refresh 3: clean again — the queued batch must ride along, and the
	// version moves exactly one step.
	if _, err := tn.Refresh(context.Background(), dataset.AIDSLike(1, 53).Graphs); err != nil {
		t.Fatalf("recovery refresh: %v", err)
	}
	final := tn.Snapshot().Stats()
	if final.Version != v2.Version+1 {
		t.Errorf("recovery version = %d, want %d", final.Version, v2.Version+1)
	}
	if final.Graphs != v2.Graphs+4 { // 3 queued + 1 new
		t.Errorf("recovery graphs = %d, want %d", final.Graphs, v2.Graphs+4)
	}
	if m.Pending() != 0 {
		t.Errorf("pending not drained after recovery: %d", m.Pending())
	}

	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
