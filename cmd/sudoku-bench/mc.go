package main

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sudoku/internal/core"
	"sudoku/internal/faultsim"
	"sudoku/internal/sttram"
)

const (
	// mcWarmupIntervals run in set-up, before any timing.
	mcWarmupIntervals = 200
	// mcFaultTolerance bounds the mean faults per interval around
	// lines × stored bits × BER: 2%, or five standard errors of the
	// binomial mean when a short run cannot resolve 2%.
	mcFaultTolerance = 0.02
	// mcPointPass is the served point-mix pass a traced mc-paper run
	// adds, so the serving layers' per-layer metrics exist there too.
	mcPointPass = 2 * time.Second
)

// mcParams is the Monte Carlo geometry at cfg's cache size.
func mcParams(cfg config) core.Params {
	p := core.Params{NumLines: cfg.cacheMB << 20 / 64, GroupSize: core.DefaultGroupSize}
	for p.NumLines < p.GroupSize*p.GroupSize {
		p.GroupSize /= 2
	}
	return p
}

// mcWorker is one simulator, seeded as faultsim.RunParallel seeds its
// workers.
type mcWorker struct {
	sim    *faultsim.Simulator
	lat    []uint32 // ns per recorded interval
	res    faultsim.Result
	failed int64
	err    error
}

// newMCWorkers builds one simulator per worker and runs each through
// its warm-up intervals in parallel.
func newMCWorkers(cfg config) ([]*mcWorker, error) {
	workers := make([]*mcWorker, cfg.workers)
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sim, err := faultsim.New(faultsim.Config{
				Params: mcParams(cfg),
				Level:  core.ProtectionZ,
				BER:    sttram.PaperBER20ms,
				Seed:   cfg.seed + uint64(w)*0x9e3779b97f4a7c15,
			})
			if err == nil {
				_, err = sim.Run(mcWarmupIntervals)
			}
			workers[w] = &mcWorker{sim: sim}
			errs[w] = err
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return workers, nil
}

// mcCounts are the Monte Carlo outcome metrics.
type mcCounts struct {
	faults, multibit, raid float64 // per interval
	dueIntervals           float64
}

func addMC(res *result, m mcCounts) {
	res.set("mc.faults_per_interval", m.faults, "count")
	res.set("mc.multibit_lines_per_interval", m.multibit, "count")
	res.set("mc.raid_repairs_per_interval", m.raid, "count")
	res.set("mc.due_intervals", m.dueIntervals, "count")
}

// mcRun is one mc-paper window.
type mcRun struct {
	workers []*mcWorker
	total   faultsim.Result
	setups  []float64 // seconds
	win     window
}

// measureMC builds the simulators (cfg.setups times) and runs the
// window. fixed > 0 makes each simulator stop after exactly that many
// recorded intervals instead of at the window's end, so the outcome
// counts are a pure function of the seed.
func measureMC(cfg config, fixed int) (*mcRun, error) {
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var workers []*mcWorker
	times := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		workers = nil
		// Every set-up starts from the same state: the previous
		// simulators collected and their memory returned.
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		if workers, err = newMCWorkers(cfg); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	for _, w := range workers {
		w.lat = make([]uint32, 0, sampleCap(cfg.window))
	}

	var recording atomic.Bool
	var finished sync.WaitGroup
	wait := func() { time.Sleep(cfg.window) }
	if fixed > 0 {
		finished.Add(len(workers))
		wait = finished.Wait
	}
	loop := func(ctx context.Context, i int) {
		w := workers[i]
		// The set-up warm-up is the only one: simulators wait for the
		// window, so in fixed mode every simulator times the same
		// intervals of its stream.
		for !recording.Load() && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		for ctx.Err() == nil && recording.Load() {
			start := time.Now()
			r, err := w.sim.Run(1)
			d := time.Since(start)
			if err != nil {
				w.failed++
				d = math.MaxUint32
				if w.err == nil {
					w.err = err
				}
			}
			w.res.Merge(r)
			w.lat = append(w.lat, uint32(min(d.Nanoseconds(), math.MaxUint32)))
			if fixed > 0 && len(w.lat) == fixed {
				finished.Done()
				return
			}
		}
	}
	win, err := measure(0, wait, &recording, len(workers), loop,
		func() (counters, error) { return processCounters(), nil })
	if err != nil {
		return nil, err
	}
	run := &mcRun{workers: workers, setups: times, win: win}
	for _, w := range workers {
		run.total.Merge(w.res)
	}
	return run, nil
}

// runMC runs mc-paper: one op is one simulated 64 MB scrub interval.
func runMC(cfg config) (*result, error) {
	run, err := measureMC(cfg, 0)
	if err != nil {
		return nil, err
	}
	c0, c1, total := run.win.c0, run.win.c1, run.total
	res := &result{correct: true}
	var lats [][]uint32
	for _, w := range run.workers {
		lats = append(lats, w.lat)
		res.attempted += int64(len(w.lat))
		res.failed += w.failed
		if w.err != nil {
			res.note("simulator error: %v", w.err)
		}
	}
	if res.attempted == 0 {
		return nil, fmt.Errorf("no interval completed inside the window")
	}
	iv := float64(total.Intervals)
	codec, err := core.NewLineCodec(core.DefaultDataBits)
	if err != nil {
		return nil, err
	}
	expected := float64(mcParams(cfg).NumLines) * float64(codec.StoredBits()) * sttram.PaperBER20ms
	mean := float64(total.FaultsInjected) / iv
	tol := max(mcFaultTolerance*expected, 5*math.Sqrt(expected/iv))
	res.note("mc-paper seed %d: %d simulators, %d intervals, %.1f faults/interval (expected %.1f ± %.1f), %d SDC lines, %d DUE intervals",
		cfg.seed, len(run.workers), total.Intervals, mean, expected, tol, total.SDCLines, total.DUEIntervals)
	if total.SDCLines != 0 {
		res.fail("Monte Carlo reported %d silent-corruption lines", total.SDCLines)
	}
	if math.Abs(mean-expected) > tol {
		res.fail("mean faults per interval %.1f, want %.1f ± %.1f", mean, expected, tol)
	}
	all := sorted(lats...)
	ops := float64(res.attempted)

	if !cfg.trace {
		p50 := quantileUs(all, 0.50)
		res.add("ops_per_s", ops/c1.at.Sub(c0.at).Seconds(), "ops/s")
		res.add("p50_us", p50, "us")
		res.add("p99_us", quantileUs(all, 0.99), "us")
		// An interval both writes faults and reads every faulty line
		// back through the repair ladder, so mc-paper's one op kind is
		// both classes.
		res.add("read_p50_us", p50, "us")
		res.add("write_p50_us", p50, "us")
		res.add("cpu_us_per_op", float64((c1.cpu-c0.cpu).Microseconds())/ops, "us")
		res.add("setup_s", median(run.setups), "s")
		res.add("peak_rss_mb", run.win.rssMB, "MB")
		return res, nil
	}

	// The Monte Carlo serves nothing, so the serving layers' metrics come
	// from a short traced point-mix pass on the paper's engine.
	pcfg := cfg
	pcfg.workload = pointMix
	pcfg.window = min(cfg.window, mcPointPass)
	pcfg.warmup = min(cfg.warmup, mcPointPass/2)
	served, err := runServed(pcfg)
	if err != nil {
		return nil, fmt.Errorf("point-mix pass: %w", err)
	}
	if !served.correct {
		res.correct = false
		res.invalid = append(res.invalid, served.invalid...)
	}
	res.notes = append(res.notes, served.notes...)
	res.metrics = served.metrics
	addMC(res, mcCounts{
		faults:       mean,
		multibit:     float64(total.MultiBitLines) / iv,
		raid:         float64(total.RAIDRepairs) / iv,
		dueIntervals: float64(total.DUEIntervals),
	})
	addGo(res, c0, c1, ops)
	return res, nil
}
