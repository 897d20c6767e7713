package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// steadiness runs the workload o.steadiness times, one child process per
// seed (o.seed, o.seed+1, ...), and prints each metric's median,
// quartiles, interquartile spread and range as shares of the median: the
// measured spreads the bounds in BENCHMARK.json rest on. It uses the same
// quartiles as Python's statistics.quantiles(values, n=4).
func steadiness(o options, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	defs := endToEnd
	trace := "0"
	if o.trace {
		defs, trace = perLayer, "1"
	}
	values := make(map[string][]float64)
	for i := 0; i < o.steadiness; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", trace)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		line := fmt.Sprintf("seed %d correct=%t attempted=%d failed=%d %s", seed, res.Correct, res.Attempted, res.Failed, envLine(out))
		for _, d := range defs {
			v := res.Metrics[d.name].Value
			values[d.name] = append(values[d.name], v)
			if !o.trace {
				line += fmt.Sprintf(" %s=%.6g", d.name, v)
			}
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "%-26s %-6s %12s %12s %12s %9s %9s %7s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	for _, d := range defs {
		xs := values[d.name]
		s := sortedCopy(xs)
		med := pyMedian(s)
		q1, q3 := quartiles(s)
		fmt.Fprintf(stdout, "%-26s %-6s %12.6g %12.6g %12.6g %9.4f %9.4f %7.2f\n", d.name, d.unit, med, q1, q3,
			ratio(q3-q1, med), ratio(s[len(s)-1]-s[0], med), d.bound)
	}
	return nil
}

// envLine returns the host facts a run printed on its "env" line.
func envLine(out []byte) string {
	for _, line := range bytes.Split(out, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("env ")); ok {
			return string(rest)
		}
	}
	return ""
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	err := json.Unmarshal(lines[len(lines)-1], &res)
	return res, err
}

// pyMedian is Python's statistics.median of sorted values: the middle
// value, or the mean of the two middle values.
func pyMedian(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
