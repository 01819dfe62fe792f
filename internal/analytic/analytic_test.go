package analytic

import (
	"math"
	"testing"
	"time"
)

// within reports whether got is within factor f of want (both > 0).
func within(got, want, f float64) bool {
	if want == 0 {
		return got == 0
	}
	r := got / want
	return r >= 1/f && r <= f
}

func TestLogChooseAndPMF(t *testing.T) {
	// Exact small cases.
	if got := math.Exp(logChoose(5, 2)); math.Abs(got-10) > 1e-9 {
		t.Fatalf("C(5,2) = %v", got)
	}
	if got := BinomPMF(4, 2, 0.5); math.Abs(got-0.375) > 1e-12 {
		t.Fatalf("PMF(4,2,.5) = %v", got)
	}
	if BinomPMF(4, 5, 0.5) != 0 || BinomPMF(4, -1, 0.5) != 0 {
		t.Fatal("out-of-support PMF nonzero")
	}
	if BinomPMF(4, 0, 0) != 1 || BinomPMF(4, 4, 1) != 1 {
		t.Fatal("degenerate PMF wrong")
	}
	// PMF sums to 1.
	sum := 0.0
	for k := 0; k <= 20; k++ {
		sum += BinomPMF(20, k, 0.3)
	}
	if math.Abs(sum-1) > 1e-10 {
		t.Fatalf("PMF sum = %v", sum)
	}
}

func TestBinomTail(t *testing.T) {
	// Exact: P(X≥1 | n=3, p=0.5) = 7/8.
	if got := BinomTailGE(3, 1, 0.5); math.Abs(got-0.875) > 1e-12 {
		t.Fatalf("tail = %v", got)
	}
	if BinomTailGE(3, 0, 0.5) != 1 || BinomTailGE(3, 4, 0.5) != 0 {
		t.Fatal("edge tails wrong")
	}
	// Deep tail in the paper's regime: P(≥2 | 522 bits, 5.3e-6) — the
	// Table II ECC-1 line-failure probability ≈ 3.9×10⁻⁶.
	got := BinomTailGE(522, 2, 5.3e-6)
	if !within(got, 3.9e-6, 1.15) {
		t.Fatalf("ECC-1 line fail = %.3g, want ≈ 3.9e-6", got)
	}
	// Tail is monotone in k.
	prev := 1.0
	for k := 0; k <= 10; k++ {
		cur := BinomTailGE(553, k, 5.3e-6)
		if cur > prev {
			t.Fatalf("tail not monotone at k=%d", k)
		}
		prev = cur
	}
}

func TestComplementPow(t *testing.T) {
	if got := ComplementPow(0.5, 2); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("ComplementPow(.5,2) = %v", got)
	}
	if ComplementPow(0, 10) != 0 || ComplementPow(1, 3) != 1 || ComplementPow(0.2, 0) != 0 {
		t.Fatal("edge cases wrong")
	}
	// Tiny-p stability: 1-(1-1e-15)^1e6 ≈ 1e-9.
	if got := ComplementPow(1e-15, 1<<20); !within(got, float64(1<<20)*1e-15, 1.001) {
		t.Fatalf("tiny complement = %v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		func() Config { c := Default(); c.BER = -1; return c }(),
		func() Config { c := Default(); c.ScrubInterval = 0; return c }(),
		func() Config { c := Default(); c.GroupSize = 1; return c }(),
		func() Config { c := Default(); c.MaxMismatch = 1; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTableII(t *testing.T) {
	// Table II of the paper, BER 5.3e-6, 20 ms scrub, 64 MB cache.
	c := Default()
	rows, err := c.TableII()
	if err != nil {
		t.Fatal(err)
	}
	wantLine := []float64{3.9e-6, 3.8e-9, 2.9e-12, 1.9e-15, 1e-18, 4.9e-22}
	wantFIT := []float64{1e14, 7.2e11, 5.5e8, 3.5e5, 191, 0.092}
	for i, row := range rows {
		if row.T != i+1 || row.CodewordBits != 512+10*(i+1) {
			t.Fatalf("row %d geometry: %+v", i, row)
		}
		if !within(row.LineFailProb, wantLine[i], 2.0) {
			t.Errorf("ECC-%d line fail = %.3g, paper %.3g", row.T, row.LineFailProb, wantLine[i])
		}
		if i == 0 {
			// ECC-1 cache failure saturates near 1 (paper: 0.98).
			if row.CacheFailProb < 0.9 {
				t.Errorf("ECC-1 cache fail = %v, want ≈ 0.98", row.CacheFailProb)
			}
			continue // FIT > 1e14 capped in the paper
		}
		if !within(row.FIT, wantFIT[i], 2.2) {
			t.Errorf("ECC-%d FIT = %.3g, paper %.3g", row.T, row.FIT, wantFIT[i])
		}
	}
	if _, err := c.ECCk(0); err == nil {
		t.Fatal("ECC-0 accepted")
	}
}

func TestSuDokuXMTTF(t *testing.T) {
	// §III-F: "there is an uncorrectable line every 3.71 seconds".
	res := Default().SuDokuX()
	if res.MTTFSeconds < 2.5 || res.MTTFSeconds > 6 {
		t.Fatalf("SuDoku-X MTTF = %.2f s, paper 3.71 s", res.MTTFSeconds)
	}
}

func TestTableIII_SDC(t *testing.T) {
	// Table III: total SDC ≈ 8.9×10⁻⁹ per billion hours. Our event
	// rates derive from exact PMFs (the paper reuses its ECC-5/6 rows),
	// so allow an order of magnitude.
	b := Default().TableIII()
	if b.TotalSDCPerBh > 1e-7 || b.TotalSDCPerBh < 1e-11 {
		t.Fatalf("SDC = %.3g per Bh, paper 8.9e-9", b.TotalSDCPerBh)
	}
	if b.SDC7PerBh < b.SDC8PerBh {
		t.Fatal("7-fault events should dominate the SDC budget")
	}
	if !within(b.SDC7PerBh, b.Event7PerBh*CRCMisdetect, 1.0001) {
		t.Fatal("SDC7 must be Event7 × 2⁻³¹")
	}
}

func TestSuDokuYBracketsThePaper(t *testing.T) {
	// §IV-E: MTTF 3.49 h (FIT 286 M). The exact and conservative
	// accountings bracket the paper's figure (DESIGN.md note 2).
	exact := Default()
	exact.Y = YExact
	cons := Default()
	cons.Y = YConservative
	ye := exact.SuDokuY()
	yc := cons.SuDokuY()
	if ye.FIT >= yc.FIT {
		t.Fatalf("exact FIT %.3g must be below conservative %.3g", ye.FIT, yc.FIT)
	}
	paperFIT := 286e6
	if yc.FIT < paperFIT/4 {
		t.Fatalf("conservative FIT %.3g should bound the paper's %.3g", yc.FIT, paperFIT)
	}
	if ye.FIT > paperFIT*4 {
		t.Fatalf("exact FIT %.3g should be at or below the paper's %.3g", ye.FIT, paperFIT)
	}
	// Both are orders of magnitude better than X.
	x := Default().SuDokuX()
	if hours := yc.MTTFSeconds / 3600; hours < 0.2 {
		t.Fatalf("conservative Y MTTF %.3f h too weak vs X %.2f s", hours, x.MTTFSeconds)
	}
	if yc.MTTFSeconds < 100*x.MTTFSeconds {
		t.Fatal("Y should be ≫ X")
	}
}

func TestSuDokuZStrength(t *testing.T) {
	c := Default()
	z := c.SuDokuZ()
	ecc6, err := c.ECCk(6)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: SuDoku-Z FIT 1.05e-4, 874× stronger than ECC-6 (0.092).
	if z.FIT > ecc6.FIT/50 {
		t.Fatalf("SuDoku-Z FIT %.3g not ≫ stronger than ECC-6 %.3g", z.FIT, ecc6.FIT)
	}
	if z.FIT > 1e-1 || z.FIT < 1e-9 {
		t.Fatalf("SuDoku-Z FIT %.3g outside plausible band around paper's 1.05e-4", z.FIT)
	}
	// The total FIT of Z is DUE-dominated (paper: SDC 11200× lower
	// than DUE is not reproduced exactly, but SDC must not dominate by
	// orders of magnitude).
	if z.SDCPerInterval > 100*z.DUEPerInterval {
		t.Fatalf("Z SDC %.3g implausibly above DUE %.3g", z.SDCPerInterval, z.DUEPerInterval)
	}
}

func TestSuDokuZNoSDRMatchesFootnote(t *testing.T) {
	// Footnote 4: SuDoku-Z without SDR has a FIT rate of ≈ 4 million.
	res := Default().SuDokuZNoSDR()
	if !within(res.FIT, 4e6, 3.0) {
		t.Fatalf("Z-without-SDR FIT = %.3g, paper ≈ 4e6", res.FIT)
	}
}

func TestProtectionLadder(t *testing.T) {
	// Figure 7's qualitative content: X ≪ Y ≪ Z in MTTF, and Z beats
	// ECC-6.
	c := Default()
	x, y, z := c.SuDokuX(), c.SuDokuY(), c.SuDokuZ()
	if !(x.FIT > y.FIT && y.FIT > z.FIT) {
		t.Fatalf("ladder broken: X %.3g, Y %.3g, Z %.3g", x.FIT, y.FIT, z.FIT)
	}
	ecc6, err := c.ECCk(6)
	if err != nil {
		t.Fatal(err)
	}
	if z.FIT >= ecc6.FIT {
		t.Fatal("Z must beat ECC-6")
	}
}

func TestFig7Series(t *testing.T) {
	c := Default()
	missions := []time.Duration{time.Second, time.Minute, time.Hour, 24 * time.Hour}
	pts, err := c.Fig7Series(missions)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(missions) {
		t.Fatalf("%d points", len(pts))
	}
	for _, name := range []string{"SuDoku-X", "SuDoku-Y", "SuDoku-Z", "ECC-6"} {
		prev := -1.0
		for _, pt := range pts {
			p, ok := pt.Probs[name]
			if !ok {
				t.Fatalf("missing series %q", name)
			}
			if p < prev || p < 0 || p > 1 {
				t.Fatalf("%s not a CDF: %v after %v", name, p, prev)
			}
			prev = p
		}
	}
	// After a day, X has failed with certainty; Z essentially never.
	last := pts[len(pts)-1]
	if last.Probs["SuDoku-X"] < 0.99 {
		t.Fatalf("X after 24h = %v, want ≈ 1", last.Probs["SuDoku-X"])
	}
	if last.Probs["SuDoku-Z"] > 1e-6 {
		t.Fatalf("Z after 24h = %v, want ≈ 0", last.Probs["SuDoku-Z"])
	}
}

func TestSDRCaseProbsMatchFigure3(t *testing.T) {
	none, one, both := SDRCaseProbs(512)
	if !within(none, 0.9922, 1.001) {
		t.Fatalf("no-overlap = %v, paper 99.22%%", none)
	}
	if !within(one, 0.0078, 1.05) {
		t.Fatalf("one-overlap = %v, paper 0.78%%", one)
	}
	if !within(both, 7.6e-6, 1.1) {
		t.Fatalf("both-overlap = %v, want 1/C(512,2)", both)
	}
	if s := none + one + both; math.Abs(s-1) > 1e-9 {
		t.Fatalf("cases must partition: sum %v", s)
	}
}

func TestScrubIntervalSweepMonotone(t *testing.T) {
	// Table VIII: longer scrub intervals weaken every scheme, and
	// SuDoku-Z at 40 ms still beats ECC-6's 1-FIT target while ECC-5
	// misses it even at 10 ms.
	type point struct {
		ber      float64
		interval time.Duration
	}
	pts := []point{
		{2.7e-6, 10 * time.Millisecond},
		{5.3e-6, 20 * time.Millisecond},
		{1.09e-5, 40 * time.Millisecond},
	}
	var prevZ, prevE5 float64
	for i, pt := range pts {
		c := Default()
		c.BER = pt.ber
		c.ScrubInterval = pt.interval
		z := c.SuDokuZ()
		e5, err := c.ECCk(5)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (z.FIT <= prevZ || e5.FIT <= prevE5) {
			t.Fatalf("FIT not increasing with interval at %v", pt.interval)
		}
		prevZ, prevE5 = z.FIT, e5.FIT
		if z.FIT > 1 {
			t.Fatalf("SuDoku-Z at %v misses the 1-FIT target: %.3g", pt.interval, z.FIT)
		}
	}
	c := Default()
	c.BER = 2.7e-6
	c.ScrubInterval = 10 * time.Millisecond
	if e5, err := c.ECCk(5); err != nil || e5.FIT < 1 {
		t.Fatalf("ECC-5 at 10 ms should miss 1 FIT (paper: 6.74), got %.3g err %v", e5.FIT, err)
	}
}

func TestCacheSizeScaling(t *testing.T) {
	// Table IX: FIT scales linearly with cache size.
	base := Default()
	z64 := base.SuDokuZ().FIT
	c32 := base
	c32.NumLines = base.NumLines / 2
	c128 := base
	c128.NumLines = base.NumLines * 2
	if !within(c32.SuDokuZ().FIT, z64/2, 1.01) {
		t.Fatalf("32 MB FIT %.3g, want half of %.3g", c32.SuDokuZ().FIT, z64)
	}
	if !within(c128.SuDokuZ().FIT, z64*2, 1.01) {
		t.Fatalf("128 MB FIT %.3g, want double of %.3g", c128.SuDokuZ().FIT, z64)
	}
}

func TestTableXIOrdering(t *testing.T) {
	// Table XI: CPPC ≫ 2DP ≫ RAID-6 ≫ SuDoku (we preserve the
	// ordering; absolute comparator FITs carry modelling slack, see
	// EXPERIMENTS.md).
	c := Default()
	rows := c.TableXI()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	cppc, raid6, twodp, sudoku := rows[0], rows[1], rows[2], rows[3]
	if !within(cppc.FIT, 1.69e14, 3.0) {
		t.Fatalf("CPPC FIT %.3g, paper 1.69e14", cppc.FIT)
	}
	if !(cppc.FIT > twodp.FIT && twodp.FIT > raid6.FIT && raid6.FIT > sudoku.FIT) {
		t.Fatalf("ordering broken: CPPC %.3g, 2DP %.3g, RAID6 %.3g, SuDoku %.3g",
			cppc.FIT, twodp.FIT, raid6.FIT, sudoku.FIT)
	}
	if raid6.FIT/sudoku.FIT < 1e6 {
		t.Fatalf("SuDoku should be ≥10⁶× stronger than the best comparator")
	}
}

func TestHiECCWeakerThanSuDoku(t *testing.T) {
	// Table XII: Hi-ECC (ECC-6 over 1 KB) has a higher FIT than
	// SuDoku.
	c := Default()
	hi := c.HiECC()
	z := c.SuDokuZ()
	if hi.FIT <= z.FIT {
		t.Fatalf("Hi-ECC FIT %.3g should exceed SuDoku-Z %.3g", hi.FIT, z.FIT)
	}
	if hi.CodewordBits != 8252 {
		t.Fatalf("Hi-ECC codeword = %d", hi.CodewordBits)
	}
}

func TestSRAMVminTable(t *testing.T) {
	// Table IV: 64 MB SRAM, BER 10⁻³. ECC rows within ~3× of the
	// paper; SuDoku row orders of magnitude below all of them.
	rows := SRAMVminTable(1<<20, 1e-3)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	want := []float64{0.11, 0.0066, 3.5e-4}
	for i := 0; i < 3; i++ {
		if !within(rows[i].CacheFail, want[i], 4.0) {
			t.Errorf("%s cache fail = %.3g, paper %.3g", rows[i].Scheme, rows[i].CacheFail, want[i])
		}
	}
	sudoku := rows[3]
	if sudoku.CacheFail > 1e-8 {
		t.Fatalf("SuDoku SRAM failure = %.3g, paper 3.8e-10", sudoku.CacheFail)
	}
	for i := 0; i < 3; i++ {
		if sudoku.CacheFail >= rows[i].CacheFail {
			t.Fatal("SuDoku must beat every uniform-ECC row")
		}
	}
}

func TestStorageOverheads(t *testing.T) {
	// §VII-H: 43 bits/line for SuDoku-Z vs 60 for ECC-6 (~30% less).
	rows := Default().StorageOverheads()
	if rows[0].BitsPerLine != 43 {
		t.Fatalf("SuDoku-Z bits/line = %d, want 43", rows[0].BitsPerLine)
	}
	if rows[1].BitsPerLine != 60 {
		t.Fatalf("ECC-6 bits/line = %d", rows[1].BitsPerLine)
	}
}

func TestFITConversions(t *testing.T) {
	c := Default()
	// ECC-6 check digit: p=5.1e-16 per 20 ms interval → 0.092 FIT.
	if got := c.FITFromIntervalProb(5.1e-16); !within(got, 0.092, 1.01) {
		t.Fatalf("FIT = %v", got)
	}
	if got := MTTFHoursFromFIT(1e9); math.Abs(got-1) > 1e-9 {
		t.Fatalf("MTTF(1e9 FIT) = %v h", got)
	}
	if !math.IsInf(MTTFHoursFromFIT(0), 1) {
		t.Fatal("zero FIT should give infinite MTTF")
	}
	if !math.IsInf(c.MTTFSecondsFromIntervalProb(0), 1) {
		t.Fatal("zero prob should give infinite MTTF")
	}
	if got := FailureProbAt(1e9, time.Hour); !within(got, 0.632, 1.01) {
		t.Fatalf("FailureProbAt = %v", got)
	}
	if FailureProbAt(0, time.Hour) != 0 {
		t.Fatal("zero FIT should never fail")
	}
}

func TestYModelString(t *testing.T) {
	if YExact.String() != "exact" || YConservative.String() != "conservative" {
		t.Fatal("YModel strings")
	}
	if YModel(5).String() != "YModel(5)" {
		t.Fatal("unknown YModel string")
	}
}

func BenchmarkTableII(b *testing.B) {
	c := Default()
	for i := 0; i < b.N; i++ {
		if _, err := c.TableII(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuDokuZ(b *testing.B) {
	c := Default()
	for i := 0; i < b.N; i++ {
		_ = c.SuDokuZ()
	}
}
