package perfsim

import (
	"math"
	"testing"

	"sudoku/internal/trace"
)

// testConfig shrinks the system so each workload runs in well under a
// second: 2 MB cache, 4 cores, short slices.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.InstructionsPerCore = 40_000
	cfg.Cache.Lines = 1 << 15
	cfg.Cache.GroupSize = 128
	return cfg
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(); c.Cores = 0; return c }(),
		func() Config { c := DefaultConfig(); c.InstructionsPerCore = 0; return c }(),
		func() Config { c := DefaultConfig(); c.BER = 0; return c }(),
		func() Config { c := DefaultConfig(); c.ScrubInterval = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestWorkloadNamesCoverFigure8(t *testing.T) {
	names := WorkloadNames()
	if len(names) != len(trace.Profiles())+4 {
		t.Fatalf("%d workloads", len(names))
	}
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, want := range []string{"mcf-like", "canneal-like", "comm1-like", "mix1", "mix4"} {
		if !found[want] {
			t.Errorf("missing workload %s", want)
		}
	}
}

func TestRunWorkloadSlowdownIsTiny(t *testing.T) {
	// Figure 8: SuDoku-Z within 0.1–0.15% of the ideal cache. Our
	// model must land well under 1% and at or above parity.
	res, err := RunWorkload(testConfig(), "gcc-like")
	if err != nil {
		t.Fatal(err)
	}
	if res.IdealTime <= 0 || res.SuDokuTime <= 0 {
		t.Fatalf("times: %+v", res)
	}
	if res.Slowdown < 0.999 || res.Slowdown > 1.01 {
		t.Fatalf("slowdown = %v, want ≈ 1.001 (Figure 8)", res.Slowdown)
	}
	if res.Slowdown < 1.0 {
		t.Logf("note: slowdown %v marginally below 1 (stochastic interference)", res.Slowdown)
	}
	if res.SuDokuStats.Reads == 0 || res.SuDokuStats.PLTWrites == 0 {
		t.Fatalf("protected stats empty: %+v", res.SuDokuStats)
	}
}

func TestRunWorkloadEDPRatio(t *testing.T) {
	// Figure 9: EDP increase of at most ~0.4%.
	res, err := RunWorkload(testConfig(), "lbm-like")
	if err != nil {
		t.Fatal(err)
	}
	if res.EDPRatio < 0.999 || res.EDPRatio > 1.05 {
		t.Fatalf("EDP ratio = %v, want ≈ 1.00–1.01 (Figure 9)", res.EDPRatio)
	}
}

func TestRunWorkloadDeterministic(t *testing.T) {
	a, err := RunWorkload(testConfig(), "namd-like")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(testConfig(), "namd-like")
	if err != nil {
		t.Fatal(err)
	}
	if a.IdealTime != b.IdealTime || a.SuDokuTime != b.SuDokuTime {
		t.Fatalf("not deterministic: %+v vs %+v", a, b)
	}
}

func TestMixWorkload(t *testing.T) {
	res, err := RunWorkload(testConfig(), "mix1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Suite != "MIX" {
		t.Fatalf("suite = %s", res.Suite)
	}
	if res.Slowdown < 0.99 || res.Slowdown > 1.05 {
		t.Fatalf("mix slowdown %v", res.Slowdown)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := RunWorkload(testConfig(), "not-a-benchmark"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestMemoryBoundSlowerThanComputeBound(t *testing.T) {
	cfg := testConfig()
	mcf, err := RunWorkload(cfg, "mcf-like") // memory bound, huge footprint
	if err != nil {
		t.Fatal(err)
	}
	povray, err := RunWorkload(cfg, "povray-like") // compute bound
	if err != nil {
		t.Fatal(err)
	}
	if mcf.IdealTime <= povray.IdealTime {
		t.Fatalf("mcf (%v) should run longer than povray (%v)", mcf.IdealTime, povray.IdealTime)
	}
}

func TestGeoMeanSlowdown(t *testing.T) {
	rs := []WorkloadResult{{Slowdown: 1.0}, {Slowdown: 1.002}, {Slowdown: 1.001}}
	gm := GeoMeanSlowdown(rs)
	if gm < 1.0009 || gm > 1.0011 {
		t.Fatalf("geomean = %v", gm)
	}
	if GeoMeanSlowdown(nil) != 1 {
		t.Fatal("empty geomean should be 1")
	}
}

func TestFig8SubsetAverage(t *testing.T) {
	// A Figure 8 smoke pass over a representative subset: average
	// slowdown must stay within the paper's "≈0.1–0.15%" band
	// (generously bounded at <1%).
	if testing.Short() {
		t.Skip("multi-workload run")
	}
	cfg := testConfig()
	var results []WorkloadResult
	for _, name := range []string{"gcc-like", "mcf-like", "povray-like", "lbm-like", "mix2"} {
		res, err := RunWorkload(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	gm := GeoMeanSlowdown(results)
	if gm < 0.999 || gm > 1.01 {
		t.Fatalf("geomean slowdown = %v, want ≈ 1.001", gm)
	}
	if math.IsNaN(gm) {
		t.Fatal("NaN geomean")
	}
}

func BenchmarkRunWorkload(b *testing.B) {
	cfg := testConfig()
	cfg.InstructionsPerCore = 10_000
	for i := 0; i < b.N; i++ {
		if _, err := RunWorkload(cfg, "gcc-like"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSummarizeBySuite(t *testing.T) {
	results := []WorkloadResult{
		{Suite: "SPEC", Slowdown: 1.001, EDPRatio: 1.002},
		{Suite: "SPEC", Slowdown: 1.003, EDPRatio: 1.004},
		{Suite: "MIX", Slowdown: 1.002, EDPRatio: 1.001},
	}
	sums := SummarizeBySuite(results)
	if len(sums) != 2 {
		t.Fatalf("%d suites", len(sums))
	}
	if sums[0].Suite != "SPEC" || sums[0].Workloads != 2 {
		t.Fatalf("first summary: %+v", sums[0])
	}
	want := math.Sqrt(1.001 * 1.003)
	if math.Abs(sums[0].MeanSlowdown-want) > 1e-12 {
		t.Fatalf("SPEC mean slowdown = %v, want %v", sums[0].MeanSlowdown, want)
	}
	if sums[1].Suite != "MIX" || sums[1].Workloads != 1 {
		t.Fatalf("second summary: %+v", sums[1])
	}
	if len(SummarizeBySuite(nil)) != 0 {
		t.Fatal("empty input should give empty summary")
	}
}

// TestTimingOnlyCacheHasNoLineStore: both simulated modes build their
// cache with the seqlock read path off, so a timing-only run allocates
// no mirror arrays (and, never writing a line, no codeword arena — the
// cache package's TestTimingOnlyAllocatesNoArena covers that half).
func TestTimingOnlyCacheHasNoLineStore(t *testing.T) {
	for _, protected := range []bool{true, false} {
		if !llcConfig(DefaultConfig().Cache, protected).DisableFastReads {
			t.Fatalf("protected=%v: simulator cache keeps the seqlock read path", protected)
		}
	}
}
