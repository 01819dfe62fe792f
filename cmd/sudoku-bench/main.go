// Command sudoku-bench is the repository's end-to-end benchmark. It runs
// one named workload in a single process — the paper's 64 MB SuDoku-Z
// engine served over loopback h2c and driven through the Go client, or
// the Monte Carlo behind the MTTF tables — measures a fixed window,
// checks every output for silent corruption, and prints its metrics by
// name with units. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// Usage:
//
//	sudoku-bench -workload point-mix|batch-mix|storm-mix|mc-paper
//	             [-seed 1] [-seconds 20] [-trace 0|1] [-spans file]
//
// -trace 1 repeats the workload with the benchmark-side span recorder
// on, runs the per-layer probes, writes the spans as JSON lines to
// -spans, and prints the per-layer metrics instead of the end-to-end
// ones. The benchmark observes the program only through its public
// functions and counters. README.md describes the workloads, the
// metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Workload names.
const (
	pointMix = "point-mix"
	batchMix = "batch-mix"
	stormMix = "storm-mix"
	mcPaper  = "mc-paper"
)

var workloads = []string{pointMix, batchMix, stormMix, mcPaper}

// config is one run's settings. Only workload, seed, window and trace
// come from the command line; tests shrink the rest.
type config struct {
	workload string
	seed     uint64
	// window is the measured interval; warmup runs the same load
	// unmeasured before it.
	window, warmup time.Duration
	// cacheMB is the engine (and Monte Carlo) geometry: 64 is the
	// paper's operating point.
	cacheMB int
	// workers is the closed-loop client count (served workloads) or
	// simulator count (mc-paper).
	workers int
	// setups is how many times the stack is built; setup_s is the
	// median, so one slow build does not move it.
	setups int
	trace  bool
	// spans is where a traced run writes its span file.
	spans string
}

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "sudoku-bench:", err)
		return 2
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "sudoku-bench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "sudoku-bench:", err)
		return 1
	}
	if !res.correct {
		for _, why := range res.invalid {
			fmt.Fprintln(stderr, "sudoku-bench: INVALID:", why)
		}
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("sudoku-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{
		warmup:  2 * time.Second,
		cacheMB: 64,
		workers: runtime.NumCPU(),
		setups:  3,
	}
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "point-mix, batch-mix, storm-mix or mc-paper")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&seconds, "seconds", 20, "measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", "", "span file of a traced run (default .bench_build/spans-<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() != 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		return cfg, fmt.Errorf("-workload %q: want one of %v", cfg.workload, workloads)
	}
	if !(seconds > 0 && seconds <= 120) {
		return cfg, fmt.Errorf("-seconds %v outside (0, 120]", seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans-"+cfg.workload+".jsonl")
	}
	return cfg, nil
}

func run(cfg config) (*result, error) {
	if cfg.workload == mcPaper {
		return runMC(cfg)
	}
	return runServed(cfg)
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one run reports.
type result struct {
	// correct is false when any output was wrong (a silent corruption)
	// or the run left its valid operating region; invalid says why.
	correct   bool
	invalid   []string
	attempted int64
	failed    int64
	metrics   []metric
	// notes are informational lines printed above the metrics.
	notes []string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// set replaces a metric already reported, or adds it.
func (r *result) set(name string, value float64, unit string) {
	for i := range r.metrics {
		if r.metrics[i].name == name {
			r.metrics[i] = metric{name, value, unit}
			return
		}
	}
	r.add(name, value, unit)
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the notes, one line per metric, and the closing JSON
// object.
func (r *result) print(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value, len(r.metrics))}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", m.name, m.value)
		}
		if _, dup := out.Metrics[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		out.Metrics[m.name] = value{m.value, m.unit}
		fmt.Fprintf(w, "%-32s %16.4f %s\n", m.name, m.value, m.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
