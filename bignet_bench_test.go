// The large-network bench gate behind `make bench-gate-bignet`: a ~1M-edge
// R-MAT network is generated in the SNAP-style text format, streamed
// through the edge-list loader into a frozen CSR, then decomposed and run
// through pattern selection end to end. The gate writes BENCH_bignet.json,
// with the host's core count and GOMAXPROCS, and fails when load
// throughput drops below 500k edges/sec or the full decompose+select path
// exceeds its wall-clock budget, or when selection returns no valid
// patterns. Opt-in via BENCH_GATE_BIGNET=1 so regular
// `go test ./...` stays fast; BIGNET_BENCH_EDGES shrinks the network for
// local iteration (thresholds bind only at full size).
package catapult_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
)

const (
	bignetGateEdges       = 1_000_000
	bignetGateMinEdgesSec = 500_000.0
	bignetGateMaxSelect   = 120 * time.Second
)

func bignetBenchEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func TestBignetBenchGate(t *testing.T) {
	if os.Getenv("BENCH_GATE_BIGNET") == "" {
		t.Skip("set BENCH_GATE_BIGNET=1 to run the large-network benchmark gate")
	}

	edges := bignetBenchEnvInt("BIGNET_BENCH_EDGES", bignetGateEdges)
	vertices := 1 << 17
	for vertices > 2 && vertices*4 > edges {
		vertices /= 2 // keep the graph dense enough to partition meaningfully
	}
	cfg := dataset.NetworkConfig{
		Name: "bench-net", Vertices: vertices, Edges: edges, Labels: 8, Seed: 42,
	}
	var text bytes.Buffer
	text.Grow(edges * 16)
	if err := dataset.WriteNetworkText(&text, cfg); err != nil {
		t.Fatal(err)
	}

	// Phase 1: streaming load, text edge list -> frozen CSR. Throughput is
	// measured over attempted edge lines (what the stream delivers), not
	// the post-dedup count.
	loadStart := time.Now()
	f, st, err := catapult.LoadNetworkCtx(context.Background(), &text, catapult.NetworkLoadOptions{
		VertexHint: vertices, EdgeHint: edges,
	})
	if err != nil {
		t.Fatal(err)
	}
	loadTime := time.Since(loadStart)
	edgesPerSec := float64(edges) / loadTime.Seconds()

	// Phase 2: decompose + cluster + CSG + select, end to end.
	scfg := catapult.Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 8, Gamma: 10},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 20, MinSupport: 0.1},
		Selection:  core.Options{Walks: 10},
		Seed:       42,
		Network:    catapult.NetworkOptions{Name: cfg.Name},
	}
	start := time.Now()
	res, err := catapult.SelectNetworkCtx(context.Background(), f, scfg)
	if err != nil {
		t.Fatal(err)
	}
	// SelectNetworkCtx decomposes before it selects: the gate binds the
	// whole path, select_ms reports selection alone.
	decomposeSelectTime := time.Since(start)
	selectTime := decomposeSelectTime - res.DecomposeTime

	report := struct {
		Vertices       int     `json:"vertices"`
		EdgesRequested int     `json:"edges_requested"`
		EdgesLoaded    int64   `json:"edges_loaded"`
		Labels         int     `json:"labels"`
		LoadMs         float64 `json:"load_ms"`
		EdgesPerSec    float64 `json:"edges_per_sec"`
		DecomposeMs    float64 `json:"decompose_ms"`
		SelectMs       float64 `json:"select_ms"`
		Regions        int     `json:"regions"`
		Reps           int     `json:"reps"`
		Patterns       int     `json:"patterns"`
		GateMinEPS     float64 `json:"gate_min_edges_per_sec"`
		GateMaxSelectS float64 `json:"gate_max_select_s"`
		NumCPU         int     `json:"num_cpu"`
		GOMAXPROCS     int     `json:"gomaxprocs"`
	}{
		Vertices:       f.NumVertices(),
		EdgesRequested: edges,
		EdgesLoaded:    st.Edges,
		Labels:         st.Labels,
		LoadMs:         float64(loadTime.Microseconds()) / 1000,
		EdgesPerSec:    edgesPerSec,
		DecomposeMs:    float64(res.DecomposeTime.Microseconds()) / 1000,
		SelectMs:       float64(selectTime.Microseconds()) / 1000,
		Regions:        len(res.Decomposition.Regions),
		Reps:           res.Decomposition.Reps,
		Patterns:       len(res.Patterns),
		GateMinEPS:     bignetGateMinEdgesSec,
		GateMaxSelectS: bignetGateMaxSelect.Seconds(),
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile("BENCH_bignet.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("bignet gate: %d vertices, %d/%d edges loaded in %v (%.0f edges/sec), %d regions, %d reps, select %v, %d patterns\n",
		f.NumVertices(), st.Edges, edges, loadTime, edgesPerSec,
		len(res.Decomposition.Regions), res.Decomposition.Reps, selectTime, len(res.Patterns))

	// Validity binds at every size: selection over the region summaries
	// must produce a non-empty pattern set within the budget.
	if len(res.Patterns) == 0 {
		t.Fatal("selection over the network produced no patterns")
	}
	for i, p := range res.Patterns {
		if p.Size() < scfg.Budget.EtaMin || p.Size() > scfg.Budget.EtaMax {
			t.Errorf("pattern %d size %d outside budget [%d,%d]",
				i, p.Size(), scfg.Budget.EtaMin, scfg.Budget.EtaMax)
		}
		if p.Score < 0 {
			t.Errorf("pattern %d has negative score %f", i, p.Score)
		}
	}

	if edges == bignetGateEdges { // thresholds are calibrated for the full-size network
		if edgesPerSec < bignetGateMinEdgesSec {
			t.Errorf("load throughput %.0f edges/sec below the %.0f gate", edgesPerSec, bignetGateMinEdgesSec)
		}
		if decomposeSelectTime > bignetGateMaxSelect {
			t.Errorf("decompose+select %v above the %v gate", decomposeSelectTime, bignetGateMaxSelect)
		}
	}
}
