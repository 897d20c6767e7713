// Benchmark gate for anytime selection quality (internal/resilience): how
// much subgraph coverage the degraded pipeline retains when it is deadlined
// at fractions of its unconstrained wall clock. `make bench-gate-resilience`
// runs it and writes BENCH_resilience.json.
package catapult_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/resilience"
)

// TestResilienceBenchGate measures the anytime quality curve: the pipeline
// is run unconstrained to calibrate wall clock and full-coverage scov, then
// re-run under deadlines of 25% / 50% / 75% of that wall clock. Each
// degraded run must return a non-empty pattern set; the retained scov
// fraction is recorded in BENCH_resilience.json. Opt-in via
// BENCH_GATE_RESILIENCE=1 so regular `go test ./...` stays fast.
func TestResilienceBenchGate(t *testing.T) {
	if os.Getenv("BENCH_GATE_RESILIENCE") == "" {
		t.Skip("set BENCH_GATE_RESILIENCE=1 to run the resilience benchmark gate")
	}
	db := dataset.AIDSLike(40, 1)
	cfg := catapult.Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 6, Gamma: 8},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 10, MinSupport: 0.2},
		Seed:       7,
	}

	// Warm up once, then calibrate the unconstrained run.
	if _, err := catapult.SelectCtx(context.Background(), db, cfg); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	full, err := catapult.SelectCtx(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	fullScov := core.Scov(db, full.PatternGraphs())
	if fullScov <= 0 {
		t.Fatalf("unconstrained run has zero scov (%d patterns)", len(full.Patterns))
	}

	type point struct {
		Fraction      float64 `json:"fraction"`
		DeadlineMs    float64 `json:"deadline_ms"`
		WallMs        float64 `json:"wall_ms"`
		Patterns      int     `json:"patterns"`
		Scov          float64 `json:"scov"`
		ScovRetained  float64 `json:"scov_retained"`
		Degraded      bool    `json:"degraded"`
		DegradedNotes string  `json:"degraded_notes,omitempty"`
	}
	report := struct {
		FullWallMs   float64 `json:"full_wall_ms"`
		FullPatterns int     `json:"full_patterns"`
		FullScov     float64 `json:"full_scov"`
		Points       []point `json:"points"`
	}{
		FullWallMs:   float64(wall.Microseconds()) / 1e3,
		FullPatterns: len(full.Patterns),
		FullScov:     fullScov,
	}

	for _, frac := range []float64{0.25, 0.50, 0.75} {
		deadline := time.Duration(float64(wall) * frac)
		dcfg := cfg
		dcfg.Degradation = resilience.Config{Enabled: true, Deadline: deadline}
		dstart := time.Now()
		res, err := catapult.SelectCtx(context.Background(), db, dcfg)
		if err != nil {
			t.Fatalf("deadline %.0f%%: errored instead of degrading: %v", frac*100, err)
		}
		dwall := time.Since(dstart)
		if len(res.Patterns) == 0 {
			t.Errorf("deadline %.0f%% (%v): empty pattern set; health:\n%s",
				frac*100, deadline, res.Health)
		}
		scov := core.Scov(db, res.PatternGraphs())
		p := point{
			Fraction:     frac,
			DeadlineMs:   float64(deadline.Microseconds()) / 1e3,
			WallMs:       float64(dwall.Microseconds()) / 1e3,
			Patterns:     len(res.Patterns),
			Scov:         scov,
			ScovRetained: scov / fullScov,
			Degraded:     res.Degraded(),
		}
		if res.Health != nil && res.Degraded() {
			p.DegradedNotes = fmt.Sprintf("counters: %v", res.Health.Counters)
		}
		report.Points = append(report.Points, p)
		fmt.Printf("resilience gate: %.0f%% deadline (%v): %d patterns, scov %.3f (%.0f%% retained), degraded=%v\n",
			frac*100, deadline.Round(time.Millisecond), p.Patterns, p.Scov, p.ScovRetained*100, p.Degraded)
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile("BENCH_resilience.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("resilience gate: full run %v, scov %.3f, %d patterns\n",
		wall.Round(time.Millisecond), fullScov, len(full.Patterns))
}
