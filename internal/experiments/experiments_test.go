package experiments

import (
	"context"
	"strings"
	"testing"
)

// tinyCfg shrinks every dataset to the 30-graph floor so the whole
// experiment suite smoke-runs in test time.
func tinyCfg() Config {
	return Config{Scale: 100000, Seed: 1, Queries: 10}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID:     "ExpX",
		Title:  "demo",
		Header: []string{"col", "value"},
	}
	r.AddRow("a", "1")
	r.AddRow("bb", "22")
	r.AddNote("scaled by %d", 7)
	s := r.String()
	for _, want := range []string{"ExpX", "demo", "col", "bb", "22", "note: scaled by 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	c.defaults()
	if c.Scale != 50 || c.Seed == 0 || c.Queries < 20 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if got := c.scaled(40000); got != 800 {
		t.Errorf("scaled(40000) = %d, want 800", got)
	}
	if got := c.scaled(100); got != 30 {
		t.Errorf("scaled floor = %d, want 30", got)
	}
}

func TestRegistryComplete(t *testing.T) {
	for i := 1; i <= 10; i++ {
		if _, ok := Registry[i]; !ok {
			t.Errorf("experiment %d missing from registry", i)
		}
	}
	if _, err := Run(context.Background(), 99, tinyCfg()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestEveryExperimentSmokes runs all ten experiments at the minimum scale
// and checks each produces at least one data row (or explanatory notes).
func TestEveryExperimentSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	cfg := tinyCfg()
	for n := 1; n <= 10; n++ {
		rep, err := Run(context.Background(), n, cfg)
		if err != nil {
			t.Fatalf("Exp%d: %v", n, err)
		}
		if len(rep.Rows) == 0 && len(rep.Notes) == 0 {
			t.Errorf("Exp%d produced no output", n)
		}
		if rep.ID == "" || len(rep.Header) == 0 {
			t.Errorf("Exp%d report malformed", n)
		}
	}
}

func TestExp10Shape(t *testing.T) {
	rep := Exp10(context.Background(), tinyCfg())
	if len(rep.Rows) != 2 {
		t.Fatalf("Exp10 rows = %d, want 2 datasets", len(rep.Rows))
	}
	// F1 should dominate F2 on both datasets (the paper's core finding).
	for _, row := range rep.Rows {
		f1, f2v := row[1], row[2]
		if f1 < f2v {
			t.Errorf("%s: tau(F1)=%s < tau(F2)=%s", row[0], f1, f2v)
		}
	}
}
