package sudoku

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// smallConfig keeps the functional cache light for tests: 1 MB with
// 64-line groups (16384 lines ≥ 64² keeps skewed hashing valid).
func smallConfig(p Protection) Config {
	cfg := DefaultConfig()
	cfg.CacheMB = 1
	cfg.GroupSize = 64
	cfg.Protection = p
	return cfg
}

// singleLock pins cfg to one shard: the single-lock engine, with one
// parity domain over the whole cache and GroupSize as configured.
func singleLock(cfg Config) Config {
	cfg.Shards = 1
	return cfg
}

func TestNewValidation(t *testing.T) {
	if _, err := NewConcurrent(singleLock(Config{})); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := NewConcurrent(singleLock(smallConfig(SuDokuZ))); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndRepairLadder(t *testing.T) {
	c, err := NewConcurrent(singleLock(smallConfig(SuDokuZ)))
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xde, 0xad}, 32)
	for i := uint64(0); i < 64; i++ {
		if err := c.Write(i*64, data); err != nil {
			t.Fatal(err)
		}
	}
	// A six-bit fault (Figure 2): repaired transparently on read.
	for _, b := range []int{3, 77, 200, 301, 404, 505} {
		if err := c.InjectFault(0, b); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-bit fault not repaired")
	}
	st := c.Stats()
	if st.RAIDRepairs == 0 {
		t.Fatalf("expected a RAID repair: %+v", st)
	}
}

func TestScrubAndRandomFaults(t *testing.T) {
	c, err := NewConcurrent(singleLock(smallConfig(SuDokuZ)))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	for i := uint64(0); i < 512; i++ {
		if err := c.Write(i*64, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.InjectRandomFaults(42, 100); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DUELines) != 0 {
		t.Fatalf("scattered faults defeated SuDoku-Z: %+v", rep)
	}
	if rep.SingleRepairs == 0 {
		t.Fatal("nothing repaired")
	}
}

func TestSuDokuXWeakerThanZ(t *testing.T) {
	// The same adversarial pattern (two 2-bit-fault lines in one
	// group) defeats X but not Y/Z.
	for _, tc := range []struct {
		level   Protection
		wantDUE bool
	}{{SuDokuX, true}, {SuDokuY, false}, {SuDokuZ, false}} {
		c, err := NewConcurrent(singleLock(smallConfig(tc.level)))
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 64)
		for _, a := range []uint64{0, 64} {
			if err := c.Write(a, data); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range []struct {
			addr uint64
			bits []int
		}{{0, []int{10, 20}}, {64, []int{30, 40}}} {
			for _, b := range f.bits {
				if err := c.InjectFault(f.addr, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		_, err = c.Read(0)
		if tc.wantDUE && !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("%v: err = %v, want ErrUncorrectable", tc.level, err)
		}
		if !tc.wantDUE && err != nil {
			t.Fatalf("%v: err = %v", tc.level, err)
		}
	}
}

func TestAnalyzeReliabilityPaperNumbers(t *testing.T) {
	rep, err := AnalyzeReliability(func() ReliabilityConfig {
		rc := DefaultReliabilityConfig()
		rc.UsePaperBER = true
		return rc
	}())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BER != 5.3e-6 {
		t.Fatalf("BER = %v", rep.BER)
	}
	// §III-F: X's MTTF ≈ 3.71 s.
	if rep.X.MTTFSeconds < 2.5 || rep.X.MTTFSeconds > 6 {
		t.Fatalf("X MTTF = %v s", rep.X.MTTFSeconds)
	}
	// Ladder and the ECC-6 advantage (paper: 874×; our exact-mode
	// model is stronger, so the advantage is at least that order).
	if !(rep.X.FIT > rep.Y.FIT && rep.Y.FIT > rep.Z.FIT) {
		t.Fatalf("ladder: %v / %v / %v", rep.X.FIT, rep.Y.FIT, rep.Z.FIT)
	}
	if rep.ECC6FIT < 0.04 || rep.ECC6FIT > 0.2 {
		t.Fatalf("ECC-6 FIT = %v, paper 0.092", rep.ECC6FIT)
	}
	if rep.ZAdvantage < 100 {
		t.Fatalf("Z advantage = %v, paper 874×", rep.ZAdvantage)
	}
}

func TestAnalyzeReliabilityFromDevice(t *testing.T) {
	rep, err := AnalyzeReliability(DefaultReliabilityConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The device integral lands near the paper's 5.3e-6 (Table I).
	if rep.BER < 3e-6 || rep.BER > 9e-6 {
		t.Fatalf("device BER = %v", rep.BER)
	}
}

func TestDeviceBER(t *testing.T) {
	ber, err := DeviceBER(35, 0.10, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ber < 3e-6 || ber > 9e-6 {
		t.Fatalf("BER = %v, want ≈ 5.3e-6", ber)
	}
	if _, err := DeviceBER(-1, 0.1, time.Millisecond); err == nil {
		t.Fatal("negative Δ accepted")
	}
}

func TestSimulateSmoke(t *testing.T) {
	res, err := Simulate(SimConfig{
		Protection: SuDokuZ,
		CacheMB:    1,
		GroupSize:  64,
		BER:        1e-5,
		Intervals:  50,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals != 50 || res.FaultsInjected == 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.DUELines != 0 {
		t.Fatalf("SuDoku-Z should survive 1e-5 BER for 1 s: %+v", res)
	}
	if _, err := Simulate(SimConfig{BER: 0}); err == nil {
		t.Fatal("zero BER accepted")
	}
}

func TestECC2FacadeConfig(t *testing.T) {
	// The §VII-G ECC-2 variant through the public API: a (3,3)-fault
	// pair in one group heals at SuDoku-Y strength.
	cfg := smallConfig(SuDokuY)
	cfg.ECCStrength = 2
	c, err := NewConcurrent(singleLock(cfg))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64)
	for _, a := range []uint64{0, 64} {
		if err := c.Write(a, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []struct {
		addr uint64
		bits []int
	}{{0, []int{10, 20, 30}}, {64, []int{40, 50, 60}}} {
		for _, b := range f.bits {
			if err := c.InjectFault(f.addr, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.Read(0); err != nil {
		t.Fatalf("ECC-2 read: %v", err)
	}
}

func TestStuckAtFacade(t *testing.T) {
	c, err := NewConcurrent(singleLock(smallConfig(SuDokuZ)))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectStuckAt(0, 7, true); err != nil {
		t.Fatal(err)
	}
	if c.StuckCells() != 1 {
		t.Fatalf("StuckCells = %d", c.StuckCells())
	}
	got, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("stuck cell leaked into data")
	}
}

func TestAnalyzeSRAMVminFacade(t *testing.T) {
	rows, err := AnalyzeSRAMVmin(64, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[3].Scheme != "SuDoku" {
		t.Fatalf("rows: %+v", rows)
	}
	if _, err := AnalyzeSRAMVmin(0, 1e-3); err == nil {
		t.Fatal("zero cache accepted")
	}
	if _, err := AnalyzeSRAMVmin(64, 0); err == nil {
		t.Fatal("zero BER accepted")
	}
}

// TestConcurrentFacade drives the sharded engine through the public
// API: shard resolution, read/write routing, repairs, lock-free stats,
// and the scrub daemon lifecycle end to end.
func TestConcurrentFacade(t *testing.T) {
	cfg := smallConfig(SuDokuZ)
	cfg.Seed = 1
	c, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 32 {
		t.Fatalf("shards = %d, want one per bank", c.Shards())
	}
	data := bytes.Repeat([]byte{0xC3}, 64)
	for i := uint64(0); i < 256; i++ {
		if err := c.Write(i*64, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.InjectFault(5*64, 11); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(5 * 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("repair-on-read failed through the facade")
	}
	if err := c.InjectStuckAt(6*64, 2, true); err != nil {
		t.Fatal(err)
	}
	if c.StuckCells() != 1 {
		t.Fatalf("StuckCells = %d", c.StuckCells())
	}
	if err := c.InjectRandomFaults(9, 50); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Scrub(); err != nil || rep.LinesChecked == 0 {
		t.Fatalf("scrub: %+v, %v", rep, err)
	}
	st := c.Stats()
	if st.Writes != 256 || st.FaultsInjected != 52 {
		t.Fatalf("stats: %+v", st)
	}

	// Daemon lifecycle through the facade.
	if err := c.StopScrub(); !errors.Is(err, ErrScrubNotRunning) {
		t.Fatalf("StopScrub before start: %v", err)
	}
	pol, err := NewAdaptiveScrubPolicy(time.Millisecond, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StartScrub(ScrubDaemonConfig{Interval: 4 * time.Millisecond, Policy: pol, StormPerPass: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.StartScrub(ScrubDaemonConfig{Interval: time.Millisecond}); !errors.Is(err, ErrScrubAlreadyRunning) {
		t.Fatalf("double StartScrub: %v", err)
	}
	if err := c.DrainScrub(); err != nil {
		t.Fatal(err)
	}
	if st := c.ScrubStats(); st.Rotations == 0 || st.ShardPasses < c.Shards() {
		t.Fatalf("daemon stats: %+v", st)
	}
	if err := c.StopScrub(); err != nil {
		t.Fatal(err)
	}
	// Restart with a fresh config works.
	if err := c.StartScrub(ScrubDaemonConfig{Interval: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := c.StopScrub(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentConfigValidation exercises shard-count validation
// through the facade.
func TestConcurrentConfigValidation(t *testing.T) {
	if _, err := NewConcurrent(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := smallConfig(SuDokuZ)
	cfg.Shards = 5
	if _, err := NewConcurrent(cfg); err == nil {
		t.Fatal("non-power-of-two shard count accepted")
	}
}

// TestSimulateReproducible pins the Monte Carlo determinism contract:
// identical SimConfig (seed included) gives bit-for-bit identical
// results, the property the per-shard Split streams preserve for the
// concurrent engine at a fixed shard count.
func TestSimulateReproducible(t *testing.T) {
	run := func() SimResult {
		res, err := Simulate(SimConfig{
			Protection: SuDokuZ,
			CacheMB:    1,
			GroupSize:  64,
			BER:        2e-5,
			Intervals:  30,
			Seed:       1234,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Simulate not reproducible:\n%+v\n%+v", a, b)
	}
	if a.FaultsInjected == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
}

// TestConcurrentDeterministicFaults: the public concurrent engine
// reproduces its aggregate fault/repair outcome for a fixed
// (Seed, Shards).
func TestConcurrentDeterministicFaults(t *testing.T) {
	build := func() *Concurrent {
		cfg := smallConfig(SuDokuZ)
		cfg.Seed = 77
		cfg.Shards = 16
		c, err := NewConcurrent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 512; i++ {
			if err := c.Write(i*64, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.InjectRandomFaults(31, 80); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := build(), build()
	ra, err := a.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("concurrent scrub not reproducible:\n%+v\n%+v", ra, rb)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverge:\n%+v\n%+v", a.Stats(), b.Stats())
	}
}

// TestCacheConcurrentClock is the regression test for the logical
// clock data race: before the clock became atomic, concurrent
// Read/Write both did `clock += lat` and `go test -race` flagged it.
// On the single-lock engine every access advances the same clock.
func TestCacheConcurrentClock(t *testing.T) {
	c, err := NewConcurrent(singleLock(smallConfig(SuDokuZ)))
	if err != nil {
		t.Fatal(err)
	}
	line := bytes.Repeat([]byte{0xa5}, 64)
	for i := uint64(0); i < 64; i++ {
		if err := c.Write(i*64, line); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 200; i++ {
				addr := uint64((g*50+i)%64) * 64
				if i%3 == 0 {
					if err := c.Write(addr, line); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := c.ReadInto(addr, buf); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf, line) {
					t.Errorf("read back %x", buf[:4])
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := c.Scrub(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestCacheReadInto checks the zero-copy read path returns the same
// bytes as Read and validates its buffer length.
func TestCacheReadInto(t *testing.T) {
	c, err := NewConcurrent(singleLock(smallConfig(SuDokuZ)))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 64)
	for i := range want {
		want[i] = byte(3 * i)
	}
	if err := c.Write(0x1000, want); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadInto(0x1000, make([]byte, 63)); err == nil {
		t.Fatal("short buffer accepted")
	}
	buf := make([]byte, 64)
	if err := c.ReadInto(0x1000, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("ReadInto mismatch: %x", buf[:8])
	}
	got, err := c.Read(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("Read and ReadInto disagree")
	}
}

// TestScrubStatsSurviveRestart is the regression test for the daemon
// restart bug: StartScrub after StopScrub used to replace the daemon
// and report only the new daemon's counters, silently zeroing the
// cumulative ScrubStats.
func TestScrubStatsSurviveRestart(t *testing.T) {
	cfg := smallConfig(SuDokuZ)
	cfg.Shards = 4
	c, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 256; i++ {
		if err := c.Write(i*64, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	dcfg := ScrubDaemonConfig{Interval: 4 * time.Millisecond}
	if err := c.StartScrub(dcfg); err != nil {
		t.Fatal(err)
	}
	if err := c.DrainScrub(); err != nil {
		t.Fatal(err)
	}
	if err := c.StopScrub(); err != nil {
		t.Fatal(err)
	}
	first := c.ScrubStats()
	if first.ShardPasses == 0 || first.Rotations == 0 {
		t.Fatalf("no scrub work recorded before restart: %+v", first)
	}
	// A stopped daemon must keep reporting its lifetime totals.
	if got := c.ScrubStats(); got != first {
		t.Fatalf("stats changed while stopped: %+v vs %+v", got, first)
	}
	if err := c.StartScrub(dcfg); err != nil {
		t.Fatal(err)
	}
	after := c.ScrubStats()
	if after.ShardPasses < first.ShardPasses || after.Rotations < first.Rotations {
		t.Fatalf("restart zeroed cumulative stats: %+v -> %+v", first, after)
	}
	if err := c.DrainScrub(); err != nil {
		t.Fatal(err)
	}
	if err := c.StopScrub(); err != nil {
		t.Fatal(err)
	}
	final := c.ScrubStats()
	if final.Rotations <= first.Rotations {
		t.Fatalf("second daemon's rotations not accumulated: %+v -> %+v", first, final)
	}
	if final.Scrub.Passes < first.Scrub.Passes+c.Shards() {
		t.Fatalf("scrubber passes not cumulative: %+v -> %+v", first.Scrub, final.Scrub)
	}
}

// TestConcurrentReadInto drives the sharded engine's zero-copy read
// path under contention.
func TestConcurrentReadInto(t *testing.T) {
	cfg := smallConfig(SuDokuZ)
	cfg.Shards = 4
	c, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const lines = 128
	for i := uint64(0); i < lines; i++ {
		if err := c.Write(i*64, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 300; i++ {
				n := uint64((g*79 + i) % lines)
				if err := c.ReadInto(n*64, buf); err != nil {
					t.Error(err)
					return
				}
				if buf[0] != byte(n) || buf[63] != byte(n) {
					t.Errorf("line %d: got %x", n, buf[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
