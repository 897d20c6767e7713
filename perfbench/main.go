// Command perfbench is the repository's benchmark. One invocation runs one
// workload on inputs generated from a seed, drives the program through its
// public entry points, checks the outputs, and prints every metric by name
// with its unit; the last line of standard output is a JSON result.
//
//	perfbench --workload mine|refresh|keystrokes|network --seed N \
//	    --seconds S --trace 0|1 [--steadiness RUNS]
//
// --trace 0 prints the end-to-end metrics; --trace 1 reruns the same
// workload and seed with spans recorded around each call the benchmark
// makes into a layer, and prints the per-layer metrics. --steadiness runs
// the workload RUNS times, one process per seed, and prints each metric's
// spread. README.md explains the workloads and metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	steadiness int
}

// workloadFunc runs one workload, recording into b. It returns an error
// only when the workload could not run at all; failed operations and
// checks are recorded in b.
type workloadFunc func(ctx context.Context, b *bench) error

var workloads = map[string]workloadFunc{
	"mine":       runMine,
	"refresh":    runRefresh,
	"keystrokes": runKeystrokes,
	"network":    runNetwork,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	if o.steadiness > 0 {
		if err := steadiness(o, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	b, err := newBench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.workDir)
	if err := workloads[o.workload](context.Background(), b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := b.finish(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if b.failed > 0 {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: mine, refresh, keystrokes or network")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 12, "intended length of the timed phase; sets the number of ops")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	fs.IntVar(&o.steadiness, "steadiness", 0, "run the workload this many times, one seed each, and report spreads")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	var bad error
	switch {
	case workloads[o.workload] == nil:
		bad = fmt.Errorf("unknown workload %q", o.workload)
	case o.seconds < 1 || o.seconds > 600:
		bad = fmt.Errorf("--seconds %d outside [1, 600]", o.seconds)
	case trace != 0 && trace != 1:
		bad = fmt.Errorf("--trace %d is neither 0 nor 1", trace)
	case fs.NArg() > 0:
		bad = fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if bad != nil {
		fmt.Fprintln(stderr, "perfbench:", bad)
		fs.Usage()
	}
	return o, bad
}

// opsFor sizes a workload's fixed op list so that the timed phase lasts
// about the requested seconds on a 2-core host, never fewer than minOps.
// The list depends only on the arguments, not on how fast ops run.
func opsFor(seconds int, opSeconds float64, minOps int) int {
	n := int(float64(seconds)/opSeconds + 0.5)
	return max(n, minOps)
}

// bench collects one run's measurements, checks and spans.
type bench struct {
	opts    options
	out     io.Writer
	tr      *tracer // nil unless tracing
	workDir string  // scratch space inside the current directory
	vals    map[string]float64

	attempted, failed int

	setups []float64 // seconds per setup repetition
	phase  phase     // the timed phase
	ops    int       // ops completed in the timed phase
}

func newBench(o options, out io.Writer) (*bench, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{opts: o, out: out, workDir: dir, vals: make(map[string]float64)}
	if o.trace {
		b.tr = newTracer()
	}
	fmt.Fprintf(out, "run workload=%s seed=%d seconds=%d trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	return b, nil
}

func (b *bench) set(name string, v float64) {
	if _, ok := declared(name); !ok {
		panic("perfbench: undeclared metric " + name)
	}
	b.vals[name] = v
}

// check records one output check; a failed check counts once in failed.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.failures(1, format, args...)
	}
}

// failures records n failed operations or checks, if n > 0.
func (b *bench) failures(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	b.failed += n
	fmt.Fprintf(b.out, "check FAILED: %s\n", fmt.Sprintf(format, args...))
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// setupReps is how many times a run sets its workload up. setup_s is the
// median: one setup of a few seconds is at the mercy of the host's phase.
const setupReps = 3

// setup runs build setupReps times, tearing down every state but the
// last, and records setup_s. build generates the inputs, starts whatever
// serves them and runs the untimed warm-up op.
func setup[T any](b *bench, build func(rep int) (T, func(), error)) (T, func(), error) {
	var st T
	teardown := func() {}
	for rep := 0; rep < setupReps; rep++ {
		teardown()
		start := time.Now()
		var err error
		st, teardown, err = build(rep)
		if err != nil {
			return st, nil, fmt.Errorf("setup: %w", err)
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
	}
	b.set("setup_s", median(b.setups))
	return st, teardown, nil
}

// timed runs the timed phase and samples the process around it.
func (b *bench) timed(fn func()) {
	before := sampleUsage()
	fn()
	b.phase = between(before, sampleUsage())
}

// opTimes records the op latencies (milliseconds) of the timed phase as
// op_p50_ms and ops_per_s.
func (b *bench) opTimes(ms []float64) {
	b.ops = len(ms)
	b.set("op_p50_ms", median(ms))
	b.set("ops_per_s", ratio(float64(len(ms)), b.phase.wall.Seconds()))
	b.logf("ops n=%d p50=%.3fms mean=%.3fms wall=%.3fs", len(ms), median(ms), mean(ms), b.phase.wall.Seconds())
	if len(ms) <= 20 {
		b.logf("op_ms %.1f", ms)
	}
}

// finish derives the runtime and host metrics, writes the spans, and
// prints the result.
func (b *bench) finish() error {
	n := float64(max(b.ops, 1))
	b.set("peak_rss_mb", peakRSSMB())
	b.set("runtime.alloc_mb_per_op", float64(b.phase.allocBytes)/(1<<20)/n)
	b.set("runtime.gc_per_op", float64(b.phase.gcs)/n)
	b.set("runtime.cpu_util", ratio(b.phase.cpu.Seconds(), b.phase.wall.Seconds()))
	b.set("env.steal_s", b.phase.steal)
	b.logf("env nproc=%d gomaxprocs=%d go=%s steal_s=%.2f cpu_util=%.3f setups_s=%v",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		b.phase.steal, b.vals["runtime.cpu_util"], b.setups)
	b.logf("fail_ratio=%.6f (%d failed of %d attempted)", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	if b.attempted == 0 {
		return errors.New("no op was attempted")
	}
	defs := endToEnd
	if b.tr == nil {
		// Every end-to-end metric is compared on every workload; one that
		// could not be measured fails the run rather than reading as zero.
		for _, d := range endToEnd {
			v := b.vals[d.name]
			b.check(v > 0 && !math.IsInf(v, 0), "metric %s was not measured (%v)", d.name, v)
		}
	} else {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", b.opts.workload, b.opts.seed))
		if err := b.tr.writeFile(path); err != nil {
			return err
		}
		b.logf("spans written to %s", path)
		// The traced run's own end-to-end numbers, for the tracing
		// overhead; the result line carries the per-layer metrics.
		for _, d := range endToEnd {
			b.logf("traced %-26s %16.6f %s", d.name, b.vals[d.name], d.unit)
		}
		defs = perLayer
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	return writeResult(b.out, defs, b.vals, res)
}
