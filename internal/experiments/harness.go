// Package experiments reproduces every table and figure of the paper's
// evaluation (Sec 6 Exps 1-6, Appendix C Exps 7-10) on the synthetic
// dataset analogs. Each experiment returns a Report whose rows mirror the
// series the paper plots; cmd/experiments prints them and bench_test.go
// wraps each one in a testing.B benchmark.
//
// Dataset sizes are the paper's divided by Config.Scale (default 50), so
// "AIDS40K" runs with 800 graphs by default. Relative comparisons — who
// wins, trends over |P| and η, crossover locations — are preserved; see
// EXPERIMENTS.md for measured-vs-paper values.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// Config scopes an experiment run.
type Config struct {
	// Scale divides the paper's dataset sizes (default 50). Scale 1 runs
	// the full-size analogs — hours of CPU, as in the paper.
	Scale int
	// Seed drives all synthetic data and randomized algorithm stages.
	Seed int64
	// Queries is the workload size per dataset (paper: 1000; default
	// scales with Scale).
	Queries int
}

func (c *Config) defaults() {
	if c.Scale <= 0 {
		c.Scale = 50
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Queries <= 0 {
		c.Queries = 1000 / c.Scale
		if c.Queries < 20 {
			c.Queries = 20
		}
	}
}

// scaled returns n/Scale with a floor that keeps experiments meaningful.
func (c Config) scaled(n int) int {
	s := n / c.Scale
	if s < 30 {
		s = 30
	}
	return s
}

// Report is a printable experiment result.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a free-form note line.
func (r *Report) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
func dur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// datasetCache avoids regenerating identical databases across experiments
// in one process (cmd/experiments -exp all).
var datasetCache = map[string]*graph.DB{}

func cachedDB(key string, gen func() *graph.DB) *graph.DB {
	if db, ok := datasetCache[key]; ok {
		return db
	}
	db := gen()
	datasetCache[key] = db
	return db
}

// aidsDB returns the AIDS analog with n graphs.
func aidsDB(n int, seed int64) *graph.DB {
	return cachedDB(fmt.Sprintf("aids-%d-%d", n, seed), func() *graph.DB {
		return dataset.AIDSLike(n, seed)
	})
}

func pubchemDB(n int, seed int64) *graph.DB {
	return cachedDB(fmt.Sprintf("pubchem-%d-%d", n, seed), func() *graph.DB {
		return dataset.PubChemLike(n, seed)
	})
}

func emolDB(n int, seed int64) *graph.DB {
	return cachedDB(fmt.Sprintf("emol-%d-%d", n, seed), func() *graph.DB {
		return dataset.EMolLike(n, seed)
	})
}
