// The VF2 half of the frozen-graph matcher regression gate. `make
// bench-gate-graph` runs it together with the MCCS half in internal/mcs;
// it merges the VF2 keys into BENCH_graph.json at the repository root and
// fails when the Matcher is less than 1.5x faster than the VF2 oracle on
// the mutable representation (legacy_test.go).
package subiso_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/subiso"
)

// benchGraphPath is BENCH_graph.json at the repository root, seen from
// this package's directory, where go test runs it.
const benchGraphPath = "../../BENCH_graph.json"

// vf2Fixture is the matcher workload, built once per process: molecule
// hosts with connected-subgraph patterns (drawn from every fifth host, so
// both hit and miss searches are measured). Hosts are frozen up front, as
// the pipeline freezes its database once.
type vf2Fixture struct {
	hosts    []*graph.Graph
	patterns []*graph.Graph
}

var (
	vf2Fix     *vf2Fixture
	vf2FixOnce sync.Once
)

func vf2Setup() *vf2Fixture {
	vf2FixOnce.Do(func() {
		db := dataset.AIDSLike(24, 7)
		rng := rand.New(rand.NewSource(7))
		fix := &vf2Fixture{hosts: db.Graphs}
		for i := 0; i < 16; i++ {
			src := db.Graph((i * 5) % db.Len())
			if p := graph.RandomConnectedSubgraph(src, 4+rng.Intn(4), rng); p != nil {
				fix.patterns = append(fix.patterns, p)
			}
		}
		for _, h := range fix.hosts {
			h.Freeze()
		}
		vf2Fix = fix
	})
	return vf2Fix
}

// vf2Sink keeps the compiler from discarding the measured calls.
var vf2Sink bool

func benchVF2(b *testing.B, legacy bool) {
	fix := vf2Setup()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range fix.hosts {
			for _, p := range fix.patterns {
				if legacy {
					vf2Sink = subiso.LegacyContains(h, p)
				} else {
					var err error
					if vf2Sink, err = subiso.ContainsCtx(ctx, h, p); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// BenchmarkVF2 compares the Matcher against the VF2 oracle on the mutable
// representation.
func BenchmarkVF2(b *testing.B) {
	b.Run("frozen", func(b *testing.B) { benchVF2(b, false) })
	b.Run("legacy", func(b *testing.B) { benchVF2(b, true) })
}

// TestGraphBenchGate measures the Matcher against the oracle with
// testing.Benchmark, records the result in BENCH_graph.json, and fails
// below a 1.5x speedup. Opt-in via BENCH_GATE_GRAPH=1 so regular
// `go test ./...` stays fast.
func TestGraphBenchGate(t *testing.T) {
	if os.Getenv("BENCH_GATE_GRAPH") == "" {
		t.Skip("set BENCH_GATE_GRAPH=1 to run the graph benchmark gate")
	}
	frozen := float64(testing.Benchmark(func(b *testing.B) { benchVF2(b, false) }).NsPerOp())
	legacy := float64(testing.Benchmark(func(b *testing.B) { benchVF2(b, true) }).NsPerOp())
	speedup := legacy / frozen
	if err := mergeBenchKeys(benchGraphPath, map[string]float64{
		"vf2_frozen_ns_op": frozen,
		"vf2_legacy_ns_op": legacy,
		"vf2_speedup":      speedup,
	}); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("graph gate: VF2 frozen %.0f ns/op, legacy %.0f ns/op, speedup %.2fx\n",
		frozen, legacy, speedup)

	const minSpeedup = 1.5
	if speedup < minSpeedup {
		t.Fatalf("frozen VF2 speedup %.2fx below the %.1fx gate (frozen %.0f ns/op, legacy %.0f ns/op)",
			speedup, minSpeedup, frozen, legacy)
	}
}

// mergeBenchKeys sets keys in the JSON object stored at path, keeping the
// keys the other half of the gate wrote there, and records the host's core
// count and GOMAXPROCS beside them.
func mergeBenchKeys(path string, keys map[string]float64) error {
	report := make(map[string]float64)
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &report); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range keys {
		report[k] = v
	}
	report["num_cpu"] = float64(runtime.NumCPU())
	report["gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
