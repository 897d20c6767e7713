package simcache

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/pipeline"
)

// Tests for the similarity memo under concurrency: hammered from parallel
// workers (run with -race via `make check`/`make ci`), and cancelled
// mid-batch with no goroutine leak and no partially cached pair. These
// back the engine's safe-for-concurrent-use claim, mirroring
// internal/cover/concurrency_test.go.

func TestConcurrentBatchHammer(t *testing.T) {
	gs := redundantGraphs(5, 2, 17)
	eng := New(gs, Options{Budget: 1500})
	naive := New(gs, Options{Budget: 1500})

	// Precompute the oracle for every (member-set, target) workload.
	n := len(gs)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	want := make([][]float64, n)
	for target := 0; target < n; target++ {
		want[target] = naiveBatch(naive, all, target)
	}

	const goroutines = 16
	const iters = 25
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for w := 0; w < goroutines; w++ {
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				target := (w*iters + it) % n
				got, err := eng.BatchCtx(context.Background(), all, target)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				for i := range got {
					if got[i] != want[target][i] {
						t.Errorf("worker %d: sim[%d->%d] = %v, want %v",
							w, i, target, got[i], want[target][i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	s := eng.Stats()
	if total := s.Hits + s.Misses; total != int64(goroutines*iters*n) {
		t.Errorf("hits+misses = %d, want %d (every requested pair accounted)",
			total, goroutines*iters*n)
	}
}

// gridGraph builds a w×h grid of same-label vertices: highly symmetric, so
// an MCCS search between two grids explores a huge space and is guaranteed
// to run long enough to observe a cancellation poll.
func gridGraph(w, h int) *graph.Graph {
	g := graph.New(w*h, 2*w*h)
	for i := 0; i < w*h; i++ {
		g.AddVertex("C")
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := graph.VertexID(y*w + x)
			if x+1 < w {
				g.MustAddEdge(v, v+1)
			}
			if y+1 < h {
				g.MustAddEdge(v, graph.VertexID((y+1)*w+x))
			}
		}
	}
	return g
}

// cancelOnMCS cancels the context as soon as the first MCS/MCCS search
// starts, i.e. after the batch has begun computing.
type cancelOnMCS struct {
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelOnMCS) StageStart(pipeline.Stage)              {}
func (c *cancelOnMCS) StageEnd(pipeline.Stage, time.Duration) {}
func (c *cancelOnMCS) Add(ctr pipeline.Counter, _ int64) {
	if ctr == pipeline.CounterMCSCalls {
		c.once.Do(c.cancel)
	}
}

func TestCancelMidBatchNoLeakNoPartialCache(t *testing.T) {
	// Members have treewidth >= 4, the height-3 target has treewidth 3, so
	// no member is a subgraph of the target: every MCCS search misses the
	// early-exit (bestEdge == minE) and runs to its full node budget,
	// guaranteeing it crosses a cancellation poll.
	gs := []*graph.Graph{gridGraph(4, 4), gridGraph(4, 5), gridGraph(5, 5), gridGraph(3, 10)}
	eng := New(gs, Options{Budget: 15000})
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = pipeline.WithTrace(ctx, &cancelOnMCS{cancel: cancel})

	if _, err := eng.BatchCtx(ctx, []int{0, 1, 2}, 3); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Every par.ForCtx worker must have exited.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before {
			break
		}
		if i > 100 {
			t.Fatalf("goroutines leaked: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The aborted batch cached nothing...
	if n := len(eng.memo); n != 0 {
		t.Fatalf("cancelled batch left %d partially cached pairs", n)
	}
	// ...and a fresh run still matches the sequential path exactly.
	got, err := eng.BatchCtx(context.Background(), []int{0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveBatch(New(gs, Options{Budget: 15000}), []int{0, 1, 2}, 3)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("post-cancel sim[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if len(eng.memo) != 3 {
		t.Errorf("completed batch cached %d pairs, want 3", len(eng.memo))
	}
}
