package cover

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/subiso"
)

// Tests for the verdict cache under concurrency: hammered from parallel
// workers (run with -race via `make check`), and cancelled mid-batch with
// no goroutine leak. These back the memo's safe-for-concurrent-use claim.

func TestConcurrentVerdictsHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	hosts := dataset.AIDSLike(12, 21).Graphs
	pool := randomPatterns(hosts, 30, rng)

	// Precompute the naive oracle per pattern.
	want := make([][]bool, len(pool))
	for pi, p := range pool {
		want[pi] = make([]bool, len(hosts))
		for hi, h := range hosts {
			want[pi][hi] = subiso.Contains(h, p)
		}
	}

	// A fresh engine, and a successor sharing all but one host with a
	// predecessor that saw half the pool; the successor is detached
	// while the workers run, as a refresh commits.
	prev := New(hosts)
	for _, p := range pool[:len(pool)/2] {
		if _, err := prev.Verdicts(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	succHosts := append([]*graph.Graph(nil), hosts...)
	succHosts[0] = hosts[0].Clone()
	for name, e := range map[string]*Engine{"new": New(hosts), "successor": NewSuccessor(prev, succHosts)} {
		const goroutines = 16
		const iters = 40
		var wg sync.WaitGroup
		halfway := make(chan struct{})
		atHalf := sync.OnceFunc(func() { close(halfway) })
		wg.Add(goroutines + 1)
		go func() {
			defer wg.Done()
			<-halfway
			e.Detach()
		}()
		for w := 0; w < goroutines; w++ {
			go func(w int) {
				defer wg.Done()
				if w == 0 {
					defer atHalf()
				}
				for it := 0; it < iters; it++ {
					if w == 0 && it == iters/2 {
						atHalf()
					}
					pi := (w*iters + it) % len(pool)
					got, err := e.Verdicts(context.Background(), pool[pi])
					if err != nil {
						t.Errorf("%s worker %d: %v", name, w, err)
						return
					}
					for hi := range hosts {
						if got[hi] != want[pi][hi] {
							t.Errorf("%s worker %d: verdict[%d] = %v, want %v (pattern %d)",
								name, w, hi, got[hi], want[pi][hi], pi)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()

		s := e.Stats()
		if total := s.Hits + s.Misses + s.Pruned; total != int64(goroutines*iters*len(hosts)) {
			t.Errorf("%s: hits+misses+pruned = %d, want %d (every (host, pattern) pair accounted)",
				name, total, goroutines*iters*len(hosts))
		}
		if name == "successor" && s.Carried == 0 {
			t.Error("successor: no verdict was carried before the detach")
		}
	}
}

// gridGraph builds a w×h grid of same-label vertices: bipartite, so odd
// cycles are not contained and VF2 must exhaust its search space to refute
// them — thousands of nodes, guaranteeing the cancellation poll is reached.
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

// oddCycle builds an n-cycle (n odd) of the grid's label.
func oddCycle(n int) *graph.Graph {
	g := graph.New(n, n)
	for i := 0; i < n; i++ {
		g.AddVertex("C")
	}
	for i := 0; i < n; i++ {
		g.MustAddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
	}
	return g
}

// cancelOnVF2 is a pipeline.Trace that cancels the context on the first VF2
// search, i.e. after the batch has started verifying.
type cancelOnVF2 struct {
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelOnVF2) StageStart(pipeline.Stage)              {}
func (c *cancelOnVF2) StageEnd(pipeline.Stage, time.Duration) {}
func (c *cancelOnVF2) Add(ctr pipeline.Counter, _ int64) {
	if ctr == pipeline.CounterVF2Calls {
		c.once.Do(c.cancel)
	}
}

func TestCancelMidBatchNoLeak(t *testing.T) {
	hosts := []*graph.Graph{gridGraph(5, 5), gridGraph(5, 6), gridGraph(6, 6), gridGraph(6, 7)}
	e := New(hosts)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = pipeline.WithTrace(ctx, &cancelOnVF2{cancel: cancel})

	if _, err := e.Verdicts(ctx, oddCycle(11)); err != context.Canceled {
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

	// The aborted batch cached nothing and the engine still answers exactly.
	v, err := e.Verdicts(context.Background(), oddCycle(11))
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range v {
		if ok {
			t.Errorf("bipartite host %d reported containing an odd cycle", i)
		}
	}
}
