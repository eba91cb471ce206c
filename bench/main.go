// Command bench is Squirrel's wire-level benchmark: it builds
// cmd/squirreld, runs it as a child process on an ephemeral loopback
// port, drives it through internal/wireclient over real TCP with four
// seeded workloads, checks every reply, and prints each metric by name
// with its unit. End-to-end numbers are measured with nothing traced; a
// separate in-process traced run times calls into each layer and gives
// the per-layer numbers and the stack-up. See README.md.
//
// Usage:
//
//	bench/run.sh                                  # all four workloads + traced run
//	bench/run.sh -aa                              # the same twice, compared against the bounds
//	bench/run.sh --workload warm_boot --seed 1 --seconds 15 --trace 0
//	bench/run.sh --workload warm_boot --seed 1 --seconds 15 --trace 1
//
// With --workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the contract BENCHMARK.json
// describes. The exit code is non-zero on any correctness failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "run one workload and print the contract's result line (default: all four, then the traced run)")
		seed    = flag.Int64("seed", 1, "seed of the generated op sequences")
		seconds = flag.Float64("seconds", 15, "measured time per workload, after set-up and the warm-up round")
		trace   = flag.Int("trace", 0, "with -workload: 0 measures end to end with nothing traced, 1 runs the in-process traced run for the per-layer metrics")
		out     = flag.String("out", filepath.Join("bench", "out"), "directory for daemon logs, trace-<workload>.json and result.json, relative to the checkout")
		aa      = flag.Bool("aa", false, "self-check: run the full set twice on the same binary and compare against each metric's bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	// No squirreld may outlive this process, whatever ends it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "bench: %s; stopping daemons\n", s)
		killChildren()
		os.Exit(130)
	}()
	defer func() {
		if p := recover(); p != nil {
			killChildren()
			panic(p)
		}
		killChildren()
	}()

	root, err := findRoot()
	if err != nil {
		return fatal(err)
	}
	outDir := *out
	if !filepath.IsAbs(outDir) {
		outDir = filepath.Join(root, outDir)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fatal(err)
	}
	b := &bench{root: root, outDir: outDir, seed: *seed, seconds: *seconds}

	switch {
	case *name != "":
		w, err := workloadByName(*name)
		if err != nil {
			return fatal(err)
		}
		return b.contractRun(w, *trace != 0)
	case *aa:
		return b.selfCheck()
	default:
		set, err := b.fullSet()
		if err != nil {
			return fatal(err)
		}
		if err := b.writeResult(resultFile{Fingerprint: fingerprint(root), Seed: b.seed, Seconds: b.seconds, Sets: []*resultSet{set}}); err != nil {
			return fatal(err)
		}
		return set.exitCode()
	}
}

func fatal(err error) int {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 1
}

// findRoot walks up from the working directory to the checkout root:
// the directory of the module whose cmd/squirreld this benchmark builds.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "squirreld", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/squirreld above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// bench is one invocation's configuration.
type bench struct {
	root    string
	outDir  string
	seed    int64
	seconds float64

	launch launcher // built on first use
}

// minRounds keeps a median of rounds meaningful even when --seconds is
// shorter than a few rounds take.
const minRounds = 3

func (b *bench) launcher() (launcher, error) {
	if b.launch == nil {
		bin, err := buildDaemon(b.root, filepath.Join(b.root, ".bench_build"))
		if err != nil {
			return nil, err
		}
		b.launch = childLauncher(bin, b.outDir)
	}
	return b.launch, nil
}

func (b *bench) e2e(w *workload) (*e2eResult, error) {
	launch, err := b.launcher()
	if err != nil {
		return nil, err
	}
	fmt.Printf("== %s (seed %d)\n", w.name, b.seed)
	res, err := runE2E(launch, w, b.seed, b.seconds, minRounds)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	printE2E(res)
	return res, nil
}

// metricValue is one metric on the contract's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output under --workload.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// contractRun is one driver run: one workload, end to end or traced.
func (b *bench) contractRun(w *workload, traced bool) int {
	line := contractLine{Metrics: map[string]metricValue{}}
	if traced {
		tr, err := b.traced(w)
		if err != nil {
			return fatal(err)
		}
		line.Attempted, line.Failed = tr.Attempted, tr.Failed
		for _, m := range layerMetrics {
			line.Metrics[m.name] = metricValue{tr.Metrics[m.name], m.unit}
		}
	} else {
		res, err := b.e2e(w)
		if err != nil {
			return fatal(err)
		}
		line.Attempted, line.Failed = res.Attempted, res.Failed
		for _, m := range e2eMetrics {
			line.Metrics[m.name] = metricValue{res.Metrics[m.name], m.unit}
		}
	}
	line.Correct = line.Failed == 0
	for name, m := range line.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fatal(fmt.Errorf("metric %s is %v", name, m.Value))
		}
	}
	js, err := json.Marshal(line)
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(js))
	if !line.Correct {
		return 1
	}
	return 0
}

func printE2E(r *e2eResult) {
	fmt.Printf("   timings at the reference machine speed: as the clock read them (raw) x %.4f (this run's median calibration, see calib.go)\n", r.Scale)
	fmt.Printf("   %d measured rounds (%d more set aside: the hypervisor stole over %g%% of the CPU), %d latency samples (tail reported at p%g: >= %d samples beyond it)\n",
		r.Rounds, r.Disturbed, 100*maxStealFrac, r.Samples, r.TailPct, minBeyond)
	for _, m := range e2eMetrics {
		extra := ""
		switch m.name {
		case "ops_per_s":
			extra = roundsNote(r.OpsPerSec)
		case "cpu_ms_per_op":
			extra = roundsNote(r.CPUPerOp)
		case "op_p50_ms", "op_p99_ms":
			extra = fmt.Sprintf("   (pooled, n=%d)", r.Samples)
		}
		if raw, timing := r.Raw[m.name]; timing {
			extra = fmt.Sprintf("   raw %-10.6g%s", raw, extra)
		}
		fmt.Printf("   %-22s %14.6g %-6s%s\n", m.name, r.Metrics[m.name], m.unit, extra)
	}
	fmt.Printf("   %-22s %14.6g %-6s   (exact count)\n", "compute_rx_kb_per_op", r.ComputeRxKBOp, "KB")
	fmt.Printf("   %-22s %14.6g %-6s   (%d failed of %d attempted)\n", "fail_frac", float64(r.Failed)/float64(r.Attempted), "ratio", r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Printf("   FAIL: %s\n", f)
	}
}

// roundsNote prints the spread behind a median-of-rounds metric.
func roundsNote(rounds []float64) string {
	q1, q3 := quartiles(rounds)
	return fmt.Sprintf("   (median of %d rounds, IQR %.4g..%.4g = %.1f%% of median)", len(rounds), q1, q3, 100*spread(rounds))
}
