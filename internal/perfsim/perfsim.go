// Package perfsim ties cores, the STTRAM LLC, and DRAM into the
// full-system timing simulation behind Figures 8 and 9: the execution
// time and energy-delay product of SuDoku-Z normalized to an idealized
// cache that never encounters errors (and so pays no CRC-check cycle,
// no scrub interference, and no repair stalls).
package perfsim

import (
	"fmt"
	"math"
	"time"

	"sudoku/internal/analytic"
	"sudoku/internal/cache"
	"sudoku/internal/core"
	"sudoku/internal/cpu"
	"sudoku/internal/dram"
	"sudoku/internal/energy"
	"sudoku/internal/rng"
	"sudoku/internal/trace"
)

// Config parameterizes a simulation.
type Config struct {
	// Cores is the number of cores (Table VI: 8).
	Cores int
	// InstructionsPerCore bounds each core's slice.
	InstructionsPerCore int64
	// Core, Cache, DRAM configure the components; Cache.Protection is
	// overridden per mode.
	Core  cpu.Config
	Cache cache.Config
	DRAM  dram.Config
	// BER and ScrubInterval drive the scrub/repair interference model
	// of the SuDoku mode.
	BER           float64
	ScrubInterval time.Duration
	// Seed makes runs reproducible; both modes replay identical
	// streams.
	Seed uint64
}

// DefaultConfig returns the Table VI system at the paper's operating
// point, with a test-friendly instruction budget (the CLI raises it).
func DefaultConfig() Config {
	return Config{
		Cores:               8,
		InstructionsPerCore: 200_000,
		Core:                cpu.DefaultConfig(),
		Cache:               cache.DefaultConfig(),
		DRAM:                dram.DefaultConfig(),
		BER:                 5.3e-6,
		ScrubInterval:       20 * time.Millisecond,
		Seed:                1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("perfsim: %d cores", c.Cores)
	}
	if c.InstructionsPerCore <= 0 {
		return fmt.Errorf("perfsim: %d instructions per core", c.InstructionsPerCore)
	}
	if c.BER <= 0 || c.BER >= 1 {
		return fmt.Errorf("perfsim: BER %v", c.BER)
	}
	if c.ScrubInterval <= 0 {
		return fmt.Errorf("perfsim: scrub interval %v", c.ScrubInterval)
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	return nil
}

// WorkloadResult reports one Figure 8/9 bar.
type WorkloadResult struct {
	Name  string
	Suite string
	// IdealTime and SuDokuTime are the execution times of the two
	// modes on identical streams.
	IdealTime, SuDokuTime time.Duration
	// Slowdown is SuDokuTime/IdealTime (Figure 8's y-axis).
	Slowdown float64
	// EDPRatio is SuDoku EDP / ideal EDP (Figure 9's y-axis).
	EDPRatio float64
	// SuDokuStats carries the protected run's cache counters.
	SuDokuStats cache.Stats
}

// interference models the two stochastic latency sources SuDoku adds
// beyond the CRC cycle: scrub-read bank occupancy and (rare) RAID
// repair stalls (§III-D, §VII-B).
type interference struct {
	r *rng.Source
	// scrubFrac is the fraction of a bank's time spent on scrub reads.
	scrubFrac float64
	// repairFrac is the fraction of a bank's time inside a group
	// repair window.
	repairFrac    float64
	scrubStallNs  float64
	repairStallNs float64
}

func newInterference(cfg Config, r *rng.Source) interference {
	linesPerBank := float64(cfg.Cache.Lines) / float64(cfg.Cache.Banks)
	scrubTimePerBank := linesPerBank * float64(cfg.Cache.ReadLatency)
	scrubFrac := scrubTimePerBank / float64(cfg.ScrubInterval)

	// Expected multi-bit lines per interval ≈ lines × P(≥2 errors) —
	// each triggers a GroupSize-line read burst on its bank (≈16 µs,
	// §VII-B).
	pMulti := analytic.BinomTailGE(553, 2, cfg.BER)
	repairsPerInterval := float64(cfg.Cache.Lines) * pMulti
	repairWindow := time.Duration(cfg.Cache.GroupSize) * cfg.Cache.ReadLatency
	repairFrac := repairsPerInterval * float64(repairWindow) /
		(float64(cfg.ScrubInterval) * float64(cfg.Cache.Banks))

	return interference{
		r:             r,
		scrubFrac:     scrubFrac,
		repairFrac:    repairFrac,
		scrubStallNs:  float64(cfg.Cache.ReadLatency) / float64(time.Nanosecond),
		repairStallNs: float64(repairWindow) / float64(time.Nanosecond),
	}
}

// sample returns the extra latency (ns) an access suffers.
func (i interference) sample() float64 {
	var extra float64
	if i.r.Float64() < i.scrubFrac {
		extra += i.r.Float64() * i.scrubStallNs
	}
	if i.r.Float64() < i.repairFrac {
		extra += i.r.Float64() * i.repairStallNs
	}
	return extra
}

// llcConfig is the cache configuration of one simulated mode. The
// simulator only calls AccessTiming, which never reads line contents,
// so it turns the seqlock read path off: the cache then builds no
// mirror arrays, and with no functional access it never allocates its
// codeword arena either.
func llcConfig(ccfg cache.Config, protected bool) cache.Config {
	if protected {
		if ccfg.Protection == 0 {
			ccfg.Protection = core.ProtectionZ
		}
	} else {
		ccfg.Protection = 0
		ccfg.CRCCheckCycles = 0
	}
	ccfg.DisableFastReads = true
	return ccfg
}

// runMode simulates one mode of one workload and returns the execution
// time plus the cache stats.
func runMode(cfg Config, perCore []trace.Profile, protected bool) (time.Duration, cache.Stats, error) {
	mem, err := dram.New(cfg.DRAM)
	if err != nil {
		return 0, cache.Stats{}, err
	}
	llc, err := cache.New(llcConfig(cfg.Cache, protected), mem)
	if err != nil {
		return 0, cache.Stats{}, err
	}

	cores := make([]*cpu.Core, cfg.Cores)
	gens := make([]*trace.Generator, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		cores[i], err = cpu.New(cfg.Core)
		if err != nil {
			return 0, cache.Stats{}, err
		}
		gens[i], err = trace.NewGenerator(perCore[i], i, cfg.Seed)
		if err != nil {
			return 0, cache.Stats{}, err
		}
	}
	inter := newInterference(cfg, rng.New(cfg.Seed^0xabcdef))

	active := cfg.Cores
	for active > 0 {
		// Advance the core that is furthest behind, keeping shared
		// bank/memory timing approximately ordered.
		sel := -1
		for i, c := range cores {
			if c.Retired() >= cfg.InstructionsPerCore {
				continue
			}
			if sel < 0 || c.NowNs() < cores[sel].NowNs() {
				sel = i
			}
		}
		if sel < 0 {
			break
		}
		c := cores[sel]
		rec := gens[sel].Next()
		c.Compute(rec.NonMemOps)
		lat, _ := llc.AccessTiming(c.NowNs(), rec.Addr, rec.Type == trace.Write)
		if protected {
			lat += inter.sample()
		}
		c.Memory(lat)
		if c.Retired() >= cfg.InstructionsPerCore {
			active--
		}
	}

	var maxNs float64
	for _, c := range cores {
		if c.NowNs() > maxNs {
			maxNs = c.NowNs()
		}
	}
	return time.Duration(maxNs * float64(time.Nanosecond)), llc.Stats(), nil
}

// perCoreProfiles resolves a workload name into per-core profiles:
// rate mode (same benchmark on all cores) for suite benchmarks, or a
// MIXED selection.
func perCoreProfiles(cfg Config, name string) ([]trace.Profile, string, error) {
	for _, m := range trace.MixNames() {
		if m == name {
			ps, err := trace.Mix(name, cfg.Cores)
			return ps, "MIX", err
		}
	}
	p, err := trace.ProfileByName(name)
	if err != nil {
		return nil, "", err
	}
	ps := make([]trace.Profile, cfg.Cores)
	for i := range ps {
		ps[i] = p
	}
	return ps, p.Suite, nil
}

// RunWorkload executes one workload in both modes and reports the
// Figure 8/9 ratios.
func RunWorkload(cfg Config, name string) (WorkloadResult, error) {
	if err := cfg.Validate(); err != nil {
		return WorkloadResult{}, err
	}
	perCore, suite, err := perCoreProfiles(cfg, name)
	if err != nil {
		return WorkloadResult{}, err
	}
	idealTime, idealStats, err := runMode(cfg, perCore, false)
	if err != nil {
		return WorkloadResult{}, fmt.Errorf("ideal mode: %w", err)
	}
	sudokuTime, sudokuStats, err := runMode(cfg, perCore, true)
	if err != nil {
		return WorkloadResult{}, fmt.Errorf("sudoku mode: %w", err)
	}

	params := energy.Default()
	cacheBits := int64(cfg.Cache.Lines) * int64(cfg.Cache.LineBytes) * 8
	metaBits := int64(cfg.Cache.Lines) * 41 // CRC-31 + ECC-1 per line
	pltBits := 2 * int64(cfg.Cache.Lines/cfg.Cache.GroupSize) * 553
	idealE, err := energy.System(params, idealStats, idealTime, cacheBits, 0, false)
	if err != nil {
		return WorkloadResult{}, err
	}
	sudokuE, err := energy.System(params, sudokuStats, sudokuTime,
		cacheBits+metaBits, pltBits, true)
	if err != nil {
		return WorkloadResult{}, err
	}

	res := WorkloadResult{
		Name:        name,
		Suite:       suite,
		IdealTime:   idealTime,
		SuDokuTime:  sudokuTime,
		SuDokuStats: sudokuStats,
	}
	if idealTime > 0 {
		res.Slowdown = float64(sudokuTime) / float64(idealTime)
	}
	if idealE.EDP > 0 {
		res.EDPRatio = sudokuE.EDP / idealE.EDP
	}
	return res, nil
}

// WorkloadNames returns the full Figure 8 x-axis: every suite
// benchmark plus the four MIXED workloads.
func WorkloadNames() []string {
	var names []string
	for _, p := range trace.Profiles() {
		names = append(names, p.Name)
	}
	names = append(names, trace.MixNames()...)
	return names
}

// RunAll evaluates every workload (Figure 8 and Figure 9).
func RunAll(cfg Config) ([]WorkloadResult, error) {
	names := WorkloadNames()
	out := make([]WorkloadResult, 0, len(names))
	for _, name := range names {
		res, err := RunWorkload(cfg, name)
		if err != nil {
			return out, fmt.Errorf("workload %s: %w", name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// SuiteSummary aggregates Figure 8/9 results per benchmark suite (the
// grouping the paper's x-axis uses).
type SuiteSummary struct {
	Suite        string
	Workloads    int
	MeanSlowdown float64 // geometric mean
	MeanEDPRatio float64 // geometric mean
}

// SummarizeBySuite groups results per suite, preserving first-seen
// suite order.
func SummarizeBySuite(results []WorkloadResult) []SuiteSummary {
	type acc struct {
		n               int
		logSlow, logEDP float64
	}
	order := []string{}
	accs := map[string]*acc{}
	for _, r := range results {
		a, ok := accs[r.Suite]
		if !ok {
			a = &acc{}
			accs[r.Suite] = a
			order = append(order, r.Suite)
		}
		a.n++
		if r.Slowdown > 0 {
			a.logSlow += math.Log(r.Slowdown)
		}
		if r.EDPRatio > 0 {
			a.logEDP += math.Log(r.EDPRatio)
		}
	}
	out := make([]SuiteSummary, 0, len(order))
	for _, suite := range order {
		a := accs[suite]
		out = append(out, SuiteSummary{
			Suite:        suite,
			Workloads:    a.n,
			MeanSlowdown: math.Exp(a.logSlow / float64(a.n)),
			MeanEDPRatio: math.Exp(a.logEDP / float64(a.n)),
		})
	}
	return out
}

// GeoMeanSlowdown returns the geometric-mean slowdown across results —
// the paper's "on average, SuDoku incurs a slowdown of 0.15%".
func GeoMeanSlowdown(results []WorkloadResult) float64 {
	if len(results) == 0 {
		return 1
	}
	logSum := 0.0
	for _, r := range results {
		if r.Slowdown > 0 {
			logSum += logf(r.Slowdown)
		}
	}
	return expf(logSum / float64(len(results)))
}

func logf(x float64) float64 { return math.Log(x) }

func expf(x float64) float64 { return math.Exp(x) }
