// Command sudoku-stress is the concurrency load generator for the
// sharded cache engine: it hammers an engine with a configurable
// goroutine count and read/write mix while a fault storm and the
// background scrub daemon run, and reports throughput plus a
// power-of-two latency histogram with p50/p90/p99.
//
// Usage:
//
//	sudoku-stress [-engine sharded|compare] [-goroutines 8]
//	              [-duration 2s] [-cachemb 1] [-shards 0] [-readfrac 0.7]
//	              [-storm 50] [-scrub 20ms] [-seed 1] [-quiet] [-chaos]
//
// Server swarm mode (-server host:port) drives a running sudoku-cached
// daemon through the client package instead of an in-process engine:
// each goroutine shadow-verifies its own address stripe, an event tap
// streams the tenant's RAS feed, and optional gates (-p99gate,
// -requireshed, -requirestorm) turn the run into a CI smoke check.
//
// Chaos mode (-chaos) ignores -engine and -storm: it soaks the sharded
// engine's RAS pipeline under 10× the paper's bit-error rate with
// scrub-daemon kill/restart churn, permanent-fault retirement churn,
// and parity-line corruption, shadow-verifying every read. The process
// exits non-zero if any silent data corruption or failed clean-line
// DUE recovery is observed.
//
// Every run drives sudoku.NewConcurrent under its scrub daemon; -shards
// 1 is the single-lock ("global") engine, whose rotation is one
// stop-the-world pass. Compare mode runs -shards 1 against the -shards
// engine with identical parameters and prints the throughput ratio.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sudoku"
	"sudoku/internal/rng"
	"sudoku/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sudoku-stress:", err)
		os.Exit(1)
	}
}

// options carries the parsed flag set.
type options struct {
	engine     string
	goroutines int
	duration   time.Duration
	cachemb    int
	shards     int
	readfrac   float64
	storm      int
	scrub      time.Duration
	seed       uint64
	quiet      bool
	chaos      bool
	restore    bool
	campaign   string

	// Server swarm mode (-server): drive a remote sudoku-cached
	// through the client package instead of an in-process engine.
	server       string
	tenant       string
	codec        string
	lines        int
	batch        int
	batchfrac    float64
	p99gate      time.Duration
	requireshed  bool
	requirestorm bool
	tracegate    bool
	settle       time.Duration
	netchaos     string
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sudoku-stress", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.engine, "engine", "sharded", "engine: sharded (the -shards engine) or compare (-shards 1 against it)")
	fs.IntVar(&o.goroutines, "goroutines", 8, "concurrent load goroutines")
	fs.DurationVar(&o.duration, "duration", 2*time.Second, "run length per engine")
	fs.IntVar(&o.cachemb, "cachemb", 1, "cache size in MB")
	fs.IntVar(&o.shards, "shards", 0, "shard count (0 = auto, 1 = single-lock engine)")
	fs.Float64Var(&o.readfrac, "readfrac", 0.7, "fraction of operations that are reads")
	fs.IntVar(&o.storm, "storm", 50, "faults injected per scrub interval (0 = off)")
	fs.DurationVar(&o.scrub, "scrub", 20*time.Millisecond, "scrub interval")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress the per-bucket histogram")
	fs.BoolVar(&o.chaos, "chaos", false, "chaos mode: RAS soak on the sharded engine (10x paper BER, daemon churn, retirement, quarantine; fails on any SDC)")
	fs.BoolVar(&o.restore, "restore-cycle", false, "kill/restore cycle: checkpoint under a campaign, tear the snapshot mid-write, restore a fresh engine from the previous generation, and gate on preserved RAS state with zero SDC")
	fs.StringVar(&o.campaign, "campaign", "", "correlated-fault campaign: a preset name ("+presetList()+") or a JSON file path; replaces the uniform -storm scatter, with -storm as the per-interval base budget")
	fs.StringVar(&o.server, "server", "", "swarm mode: drive a running sudoku-cached at this host:port instead of an in-process engine")
	fs.StringVar(&o.tenant, "tenant", "alpha", "swarm mode: tenant to drive")
	fs.StringVar(&o.codec, "codec", "binary", "swarm mode: wire codec (binary or json)")
	fs.IntVar(&o.lines, "lines", 4096, "swarm mode: lines of the tenant window to hammer")
	fs.IntVar(&o.batch, "batch", 16, "swarm mode: items per batch operation")
	fs.Float64Var(&o.batchfrac, "batchfrac", 0.05, "swarm mode: fraction of operations that are batches")
	fs.DurationVar(&o.p99gate, "p99gate", 0, "swarm mode: fail if client-observed p99 exceeds this (0 = no gate)")
	fs.BoolVar(&o.requireshed, "requireshed", false, "swarm mode: fail unless the server shed at least one request")
	fs.BoolVar(&o.requirestorm, "requirestorm", false, "swarm mode: fail unless the storm ladder escalated and recovered, with tap events delivered")
	fs.BoolVar(&o.tracegate, "tracegate", false, "swarm mode: fail unless the server's /debug/flightrec holds anomalous traces with ladder-ordered rungs, at least one past ECC-1")
	fs.DurationVar(&o.settle, "settle", 10*time.Second, "swarm mode: how long to wait for the storm ladder to return to normal after load stops")
	fs.StringVar(&o.netchaos, "netchaos", "", "swarm mode: route the fleet through an in-process fault-injecting proxy running this plan (a preset: "+chaosPresetList()+"; or a JSON file) and gate on typed errors, a full breaker cycle, bounded hedges, and zero SDC")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.goroutines <= 0 {
		return fmt.Errorf("goroutines %d", o.goroutines)
	}
	if o.duration <= 0 {
		return fmt.Errorf("duration %v", o.duration)
	}
	if o.readfrac < 0 || o.readfrac > 1 {
		return fmt.Errorf("readfrac %g outside [0, 1]", o.readfrac)
	}
	if o.storm < 0 {
		return fmt.Errorf("storm %d", o.storm)
	}
	if o.scrub <= 0 {
		return fmt.Errorf("scrub interval %v", o.scrub)
	}

	if o.server != "" {
		if o.batchfrac < 0 || o.batchfrac > 1 {
			return fmt.Errorf("batchfrac %g outside [0, 1]", o.batchfrac)
		}
		if o.netchaos != "" {
			return runNetchaosGate(o, out)
		}
		return runServerSwarm(o, out)
	}
	if o.netchaos != "" {
		return errors.New("-netchaos requires -server (it proxies a running daemon)")
	}
	if o.restore {
		return runRestoreCycle(o, out)
	}
	if o.chaos {
		return runChaos(o, out)
	}
	switch o.engine {
	case "sharded":
		res, err := runEngine(o, o.shards)
		if err != nil {
			return err
		}
		res.print(out, o.quiet)
		return nil
	case "compare":
		global, err := runEngine(o, 1)
		if err != nil {
			return err
		}
		global.print(out, o.quiet)
		fmt.Fprintln(out)
		sharded, err := runEngine(o, o.shards)
		if err != nil {
			return err
		}
		sharded.print(out, o.quiet)
		fmt.Fprintf(out, "\nsharded/global throughput: %.2fx (%d goroutines, %d shards)\n",
			sharded.throughput()/global.throughput(), o.goroutines, sharded.shards)
		return nil
	default:
		return fmt.Errorf("unknown engine %q", o.engine)
	}
}

// result aggregates one engine run.
type result struct {
	name     string
	shards   int
	ops      int64
	dues     int64
	elapsed  time.Duration
	hist     telemetry.HistogramSnapshot
	stats    sudoku.Stats
	rotation int // completed full-cache scrub sweeps
	passes   int // scrub invocations (per-shard for the daemon)
}

func (r *result) throughput() float64 {
	return float64(r.ops) / r.elapsed.Seconds()
}

func (r *result) print(out io.Writer, quiet bool) {
	fmt.Fprintf(out, "engine=%s shards=%d ops=%d (%.0f ops/s) dues=%d scrub-sweeps=%d scrub-passes=%d\n",
		r.name, r.shards, r.ops, r.throughput(), r.dues, r.rotation, r.passes)
	fmt.Fprintf(out, "latency: p50=%v p90=%v p99=%v\n",
		r.hist.Quantile(0.50), r.hist.Quantile(0.90), r.hist.Quantile(0.99))
	fmt.Fprintf(out, "repairs: single=%d sdr=%d raid=%d hash2=%d faults-injected=%d\n",
		r.stats.SingleRepairs, r.stats.SDRRepairs, r.stats.RAIDRepairs,
		r.stats.Hash2Repairs, r.stats.FaultsInjected)
	if !quiet {
		printHist(out, r.hist)
	}
}

func buildConfig(o options) sudoku.Config {
	cfg := sudoku.DefaultConfig()
	cfg.CacheMB = o.cachemb
	cfg.Shards = o.shards
	cfg.Seed = o.seed
	// Skewed hashing needs Lines ≥ GroupSize²; shrink groups for small
	// caches.
	lines := o.cachemb << 20 / 64
	for lines < cfg.GroupSize*cfg.GroupSize {
		cfg.GroupSize /= 2
	}
	return cfg
}

// runEngine builds the engine with the given shard count, applies the
// load under the scrub daemon, and tears the scrub machinery down. A
// single-shard engine reports as "global": its one lock covers the
// whole cache.
func runEngine(o options, shards int) (*result, error) {
	cfg := buildConfig(o)
	cfg.Shards = shards
	c, err := sudoku.NewConcurrent(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{name: "sharded", shards: c.Shards()}
	if res.shards == 1 {
		res.name = "global"
	}
	perPass := storms(o.storm, c.Shards())
	var plan *sudoku.FaultPlan
	if o.campaign != "" {
		// The campaign stepper is the sole fault source; the daemon
		// scrubs but does not storm.
		perPass = 0
		if plan, err = resolveCampaign(o, c.Geometry()); err != nil {
			return nil, err
		}
	}
	if err := c.StartScrub(sudoku.ScrubDaemonConfig{
		Interval:     o.scrub,
		StormPerPass: perPass,
	}); err != nil {
		return nil, err
	}
	stopStepper := func() {}
	if plan != nil {
		if stopStepper, err = startCampaignStepper(c, plan, o.scrub); err != nil {
			_ = c.StopScrub()
			return nil, err
		}
	}
	load(o, c, res)
	stopStepper()
	_ = c.StopScrub()
	st := c.ScrubStats()
	res.rotation = st.Rotations
	res.passes = st.ShardPasses
	res.stats = c.Stats()
	return res, nil
}

// storms scales the per-interval fault budget to a per-shard-pass one
// (the daemon storms each shard once per rotation).
func storms(perInterval, shards int) int {
	if perInterval == 0 {
		return 0
	}
	per := perInterval / shards
	if per < 1 {
		per = 1
	}
	return per
}

// load runs the goroutine fleet for the configured duration. Reads go
// through ReadInto so each goroutine reuses one buffer instead of
// allocating 64 bytes per operation.
func load(o options, eng *sudoku.Concurrent, res *result) {
	lines := uint64(o.cachemb << 20 / 64)
	deadline := time.Now().Add(o.duration)
	var wg sync.WaitGroup
	var ops, dues atomic.Int64
	hists := make([]telemetry.LocalHistogram, o.goroutines)
	master := rng.New(o.seed)
	for g := 0; g < o.goroutines; g++ {
		src := master.Split()
		wg.Add(1)
		go func(g int, src *rng.Source) {
			defer wg.Done()
			h := &hists[g]
			buf := make([]byte, 64)
			for i := range buf {
				buf[i] = byte(g + 1)
			}
			rbuf := make([]byte, 64)
			n := int64(0)
			for {
				// Check the clock in batches; time.Now per op would
				// dominate the 9 ns model.
				if n%256 == 0 && time.Now().After(deadline) {
					break
				}
				n++
				addr := src.Uint64n(lines) * 64
				start := time.Now()
				var err error
				if src.Float64() < o.readfrac {
					err = eng.ReadInto(addr, rbuf)
				} else {
					err = eng.Write(addr, buf)
				}
				// One LocalHistogram per goroutine, folded after the
				// fleet joins — no synchronization on the record path.
				h.ObserveNs(time.Since(start).Nanoseconds())
				if errors.Is(err, sudoku.ErrUncorrectable) {
					dues.Add(1) // DUEs under a storm are data, not failures
				}
			}
			ops.Add(n)
		}(g, src)
	}
	wg.Wait()
	res.elapsed = o.duration
	res.ops = ops.Load()
	res.dues = dues.Load()
	for i := range hists {
		res.hist.Add(hists[i].Snapshot())
	}
}

// printHist renders the telemetry power-of-two snapshot in the same
// per-bucket star-chart format the tool has always printed.
func printHist(out io.Writer, h telemetry.HistogramSnapshot) {
	const width = 50
	var max int64
	for _, n := range h.Buckets {
		if n > max {
			max = n
		}
	}
	if max == 0 {
		return
	}
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		bar := int(int64(width) * n / max)
		fmt.Fprintf(out, "%10v %9d %s\n",
			telemetry.BucketLower(i), n, stars(bar))
	}
}

func stars(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '*'
	}
	return string(b)
}
