package cache

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"sudoku/internal/core"
	"sudoku/internal/rng"
)

// flatMemory is a trivial fixed-latency backing memory for tests.
type flatMemory struct {
	latency  time.Duration
	accesses int64
}

var _ Memory = (*flatMemory)(nil)

func (m *flatMemory) Access(_ time.Duration, _ uint64, _ bool) time.Duration {
	m.accesses++
	return m.latency
}

// testConfig returns a small protected cache: 16K lines (1 MB), 8-way,
// groups of 64 (16K ≥ 64² so skewed hashing is valid).
func testConfig(p core.Protection) Config {
	cfg := DefaultConfig()
	cfg.Lines = 1 << 14
	cfg.GroupSize = 64
	cfg.Protection = p
	return cfg
}

func mustCache(t testing.TB, cfg Config) (*STTRAM, *flatMemory) {
	t.Helper()
	mem := &flatMemory{latency: 60 * time.Nanosecond}
	c, err := New(cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	return c, mem
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(); c.Lines = 100; return c }(),
		func() Config { c := DefaultConfig(); c.Ways = 3; return c }(),
		func() Config { c := DefaultConfig(); c.LineBytes = 32; return c }(),
		func() Config { c := DefaultConfig(); c.Banks = 3; return c }(),
		func() Config { c := DefaultConfig(); c.Lines = 1 << 10; return c }(), // < GroupSize²
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Fatal("nil memory accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	data := bytes.Repeat([]byte{0xa5, 0x3c}, 32)
	if _, err := c.Write(0, 0x4000, data, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Read(0, 0x4000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back wrong data")
	}
	if _, err := c.Write(0, 0, make([]byte, 10), nil); err == nil {
		t.Fatal("short write accepted")
	}
}

func TestMissHitEvictionFlow(t *testing.T) {
	cfg := testConfig(core.ProtectionZ)
	c, mem := mustCache(t, cfg)
	data := bytes.Repeat([]byte{1}, 64)
	if _, err := c.Write(0, 0x100, data, nil); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first write: %+v", st)
	}
	if _, _, err := c.Read(0, 0x100); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("re-read should hit: %+v", st)
	}
	// Walk 9 lines mapping to the same set to force an eviction
	// (8 ways).
	sets := uint64(cfg.Lines / cfg.Ways)
	for i := uint64(1); i <= 9; i++ {
		addr := 0x100 + i*sets*64
		if _, err := c.Write(0, addr, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	st = c.Stats()
	if st.Evictions == 0 || st.WriteBacks == 0 {
		t.Fatalf("conflict walk produced no evictions: %+v", st)
	}
	// The original line was evicted dirty; re-reading it must return
	// the written data from the backing store.
	got, _, err := c.Read(0, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("evicted line lost its data")
	}
	if mem.accesses == 0 {
		t.Fatal("memory never touched")
	}
}

// recordingMemory is a fixed-latency memory that records the address
// of every write-back it services.
type recordingMemory struct {
	writeBacks []uint64
}

func (m *recordingMemory) Access(_ time.Duration, addr uint64, write bool) time.Duration {
	if write {
		m.writeBacks = append(m.writeBacks, addr)
	}
	return 60 * time.Nanosecond
}

// TestDirtyVictimWrittenBackToItsOwnAddress: a dirty line in set 5
// evicted by a conflict walk is written back to its own line address,
// set index included, on the timing path and the functional path.
func TestDirtyVictimWrittenBackToItsOwnAddress(t *testing.T) {
	cfg := testConfig(core.ProtectionZ)
	sets := uint64(cfg.Lines / cfg.Ways)
	const set, tag = 5, 3
	victim := (tag*sets + set) * 64
	data := bytes.Repeat([]byte{7}, 64)
	paths := map[string]func(c *STTRAM, addr uint64) error{
		"AccessTiming": func(c *STTRAM, addr uint64) error {
			c.AccessTiming(0, addr, true)
			return nil
		},
		"functional fill": func(c *STTRAM, addr uint64) error {
			_, err := c.Write(0, addr, data, nil)
			return err
		},
	}
	for name, write := range paths {
		mem := &recordingMemory{}
		c, err := New(cfg, mem)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty the victim first, then fill the set's other ways and one
		// more line so the LRU victim is evicted.
		for i := uint64(0); i <= uint64(cfg.Ways); i++ {
			if err := write(c, victim+i*sets*64); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if len(mem.writeBacks) != 1 || mem.writeBacks[0] != victim {
			t.Errorf("%s: write-backs %#x, want [%#x]", name, mem.writeBacks, victim)
		}
	}
}

func TestSingleFaultRepairedOnRead(t *testing.T) {
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	data := bytes.Repeat([]byte{0xff}, 64)
	if _, err := c.Write(0, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectFault(0, 100); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Read(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("single fault not repaired")
	}
	if st := c.Stats(); st.SingleRepairs != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMultiBitFaultRAIDRepairedOnRead(t *testing.T) {
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	data := bytes.Repeat([]byte{0x77}, 64)
	if _, err := c.Write(0, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{10, 20, 30, 40, 50, 60} {
		if err := c.InjectFault(0, b); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := c.Read(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("six-bit fault not repaired (Figure 2 scenario)")
	}
	if st := c.Stats(); st.RAIDRepairs == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestInjectFaultValidation(t *testing.T) {
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	if err := c.InjectFault(0x99999, 0); err == nil {
		t.Fatal("fault into non-resident line accepted")
	}
	ideal := testConfig(0)
	ci, _ := mustCache(t, ideal)
	if err := ci.InjectFault(0, 0); !errors.Is(err, ErrNotProtected) {
		t.Fatalf("unprotected inject err = %v", err)
	}
	if _, err := ci.Scrub(); !errors.Is(err, ErrNotProtected) {
		t.Fatalf("unprotected scrub err = %v", err)
	}
}

func TestScrubRepairsScatteredFaults(t *testing.T) {
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	data := bytes.Repeat([]byte{0x42}, 64)
	for i := uint64(0); i < 200; i++ {
		if _, err := c.Write(0, i*64, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.New(9)
	if err := c.InjectRandomFaults(r, 50); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DUELines) != 0 {
		t.Fatalf("scattered singles produced DUEs: %+v", rep)
	}
	if rep.SingleRepairs == 0 {
		t.Fatal("scrub repaired nothing")
	}
	// Everything still reads back.
	for i := uint64(0); i < 200; i++ {
		got, _, err := c.Read(0, i*64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("line %d corrupted after scrub", i)
		}
	}
	// A second scrub finds a clean cache.
	rep2, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SingleRepairs+rep2.SDRRepairs+rep2.RAIDRepairs != 0 {
		t.Fatalf("second scrub repaired again: %+v", rep2)
	}
}

func TestScrubSDRScenario(t *testing.T) {
	// Two 2-bit-fault lines in one RAID group: SuDoku-Y territory.
	cfg := testConfig(core.ProtectionY)
	c, _ := mustCache(t, cfg)
	data := bytes.Repeat([]byte{0x13}, 64)
	// Addresses 0 and 64 map to consecutive sets; their physical
	// lines land in the same Hash-1 group (group = phys/64 with
	// 8 ways ⇒ phys 0*8 and 1*8 are both < 64).
	for _, a := range []uint64{0, 64} {
		if _, err := c.Write(0, a, data, nil); err != nil {
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
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DUELines) != 0 || rep.SDRRepairs == 0 {
		t.Fatalf("SDR scenario: %+v", rep)
	}
	for _, a := range []uint64{0, 64} {
		got, _, err := c.Read(0, a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data corrupted")
		}
	}
}

func TestWriteToUncorrectableLineRebuildsParity(t *testing.T) {
	cfg := testConfig(core.ProtectionX) // X cannot fix two multi-bit lines
	c, _ := mustCache(t, cfg)
	data := bytes.Repeat([]byte{0x08}, 64)
	for _, a := range []uint64{0, 64} {
		if _, err := c.Write(0, a, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []uint64{0, 64} {
		for _, b := range []int{10, 20} {
			if err := c.InjectFault(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Reading either line is a DUE at X strength.
	if _, _, err := c.Read(0, 0); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("read err = %v, want ErrUncorrectable", err)
	}
	// Overwriting both lines resynchronizes parity; subsequent reads
	// and scrubs must be clean.
	for _, a := range []uint64{0, 64} {
		if _, err := c.Write(0, a, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DUELines) != 0 {
		t.Fatalf("parity not rebuilt: %+v", rep)
	}
	got, _, err := c.Read(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data wrong after rewrite")
	}
}

func TestTimingHitFasterThanMiss(t *testing.T) {
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	missLat, hit := c.AccessTiming(0, 0x2000, false)
	if hit {
		t.Fatal("cold access hit")
	}
	hitLat, hit := c.AccessTiming(missLat, 0x2000, false)
	if !hit {
		t.Fatal("second access missed")
	}
	if hitLat >= missLat {
		t.Fatalf("hit %v ns not faster than miss %v ns", hitLat, missLat)
	}
}

func TestCRCCheckCycleCharged(t *testing.T) {
	// The protected cache pays one 3.2 GHz cycle (0.3125 ns) per
	// access that the ideal cache does not (§VII-C).
	prot, _ := mustCache(t, testConfig(core.ProtectionZ))
	idealCfg := testConfig(0)
	idealCfg.CRCCheckCycles = 0
	ideal, _ := mustCache(t, idealCfg)
	_, _ = prot.AccessTiming(0, 0x40, false)
	_, _ = ideal.AccessTiming(0, 0x40, false)
	pLat, _ := prot.AccessTiming(1000, 0x40, false)
	iLat, _ := ideal.AccessTiming(1000, 0x40, false)
	diff := pLat - iLat
	cycle := 1 / 3.2
	if diff < cycle-0.01 || diff > cycle+0.01 {
		t.Fatalf("CRC check adds %v ns, want ≈ %v ns", diff, cycle)
	}
}

func TestBankSerializationInCache(t *testing.T) {
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	_, _ = c.AccessTiming(0, 0x40, false) // warm
	l1, _ := c.AccessTiming(1000, 0x40, false)
	l2, _ := c.AccessTiming(1000, 0x40, false) // same bank, same instant
	if l2 <= l1 {
		t.Fatalf("same-bank accesses did not serialize: %v then %v", l1, l2)
	}
}

func TestPLTWritesCounted(t *testing.T) {
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	if _, err := c.Write(0, 0, make([]byte, 64), nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.PLTWrites < 2 {
		t.Fatalf("write must update both PLTs: %+v", st)
	}
}

func BenchmarkAccessTiming(b *testing.B) {
	cfg := testConfig(core.ProtectionZ)
	mem := &flatMemory{latency: 60 * time.Nanosecond}
	c, err := New(cfg, mem)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	now := 0.0
	for i := 0; i < b.N; i++ {
		lat, _ := c.AccessTiming(now, uint64(i%100000)*64, i%3 == 0)
		now += lat
	}
}

func BenchmarkFunctionalReadHit(b *testing.B) {
	c, _ := mustCache(b, testConfig(core.ProtectionZ))
	if _, err := c.Write(0, 0, make([]byte, 64), nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Read(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStuckAtCellSurvivesWritesAndScrubs(t *testing.T) {
	// §VI: permanent faults. A cell stuck at 1 keeps reasserting, yet
	// reads always return correct data and every scrub re-corrects it.
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	data := bytes.Repeat([]byte{0x00}, 64) // data bit 200 should be 0
	if _, err := c.Write(0, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectStuckAt(0, 200, true); err != nil {
		t.Fatal(err)
	}
	if c.StuckCells() != 1 {
		t.Fatalf("StuckCells = %d", c.StuckCells())
	}
	for pass := 0; pass < 5; pass++ {
		got, _, err := c.Read(0, 0)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pass %d: stuck cell leaked into data", pass)
		}
		// Overwrite with the same payload; the stuck cell reasserts.
		if _, err := c.Write(0, 0, data, nil); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.DUELines) != 0 {
			t.Fatalf("pass %d: stuck single became DUE: %+v", pass, rep)
		}
		if rep.SingleRepairs == 0 {
			t.Fatalf("pass %d: scrub did not re-correct the stuck cell", pass)
		}
	}
}

func TestStuckAtValidation(t *testing.T) {
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	if err := c.InjectStuckAt(0x99999, 0, true); err == nil {
		t.Fatal("non-resident stuck injection accepted")
	}
	if _, err := c.Write(0, 0, make([]byte, 64), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectStuckAt(0, 1000, true); err == nil {
		t.Fatal("out-of-range stuck bit accepted")
	}
	ideal, _ := mustCache(t, testConfig(0))
	if err := ideal.InjectStuckAt(0, 0, true); !errors.Is(err, ErrNotProtected) {
		t.Fatalf("unprotected err = %v", err)
	}
}

func TestStuckPlusTransientFaults(t *testing.T) {
	// A permanent fault plus a transient fault on the same line is a
	// 2-bit pattern: per-line ECC-1 fails, the group machinery (which
	// sees the stuck cell as a persistent parity mismatch) repairs it.
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	data := bytes.Repeat([]byte{0x00}, 64)
	if _, err := c.Write(0, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectStuckAt(0, 100, true); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectFault(0, 300); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Read(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stuck+transient pattern not repaired")
	}
}

func TestConcurrentAccessIsSafe(t *testing.T) {
	// The cache serializes internally; hammer it from several
	// goroutines (run with -race in CI) mixing reads, writes, fault
	// injection, and scrubs.
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	data := bytes.Repeat([]byte{0xab}, 64)
	for i := uint64(0); i < 64; i++ {
		if _, err := c.Write(0, i*64, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g))
			for i := 0; i < 200; i++ {
				addr := uint64(r.Intn(64)) * 64
				switch i % 4 {
				case 0:
					if _, _, err := c.Read(0, addr); err != nil && !errors.Is(err, ErrUncorrectable) {
						errCh <- err
						return
					}
				case 1:
					if _, err := c.Write(0, addr, data, nil); err != nil {
						errCh <- err
						return
					}
				case 2:
					_ = c.InjectFault(addr, r.Intn(553))
				case 3:
					if _, err := c.Scrub(); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestECC2CacheRepairsThreeFaultPairs(t *testing.T) {
	// §VII-G plumbed through the cache: a pair of 3-bit-fault lines in
	// one group — fatal at ECC-1 SuDoku-Y — heals under ECC-2.
	cfg := testConfig(core.ProtectionY)
	cfg.ECCStrength = 2
	c, _ := mustCache(t, cfg)
	data := bytes.Repeat([]byte{0x2a}, 64)
	for _, a := range []uint64{0, 64} {
		if _, err := c.Write(0, a, data, nil); err != nil {
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
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DUELines) != 0 {
		t.Fatalf("ECC-2 cache failed the (3,3) pair: %+v", rep)
	}
	for _, a := range []uint64{0, 64} {
		got, _, err := c.Read(0, a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data corrupted")
		}
	}
	// The same pattern defeats the ECC-1 configuration.
	c1, _ := mustCache(t, testConfig(core.ProtectionY))
	for _, a := range []uint64{0, 64} {
		if _, err := c1.Write(0, a, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []struct {
		addr uint64
		bits []int
	}{{0, []int{10, 20, 30}}, {64, []int{40, 50, 60}}} {
		for _, b := range f.bits {
			if err := c1.InjectFault(f.addr, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep1, err := c1.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.DUELines) != 2 {
		t.Fatalf("ECC-1 Y should fail the (3,3) pair: %+v", rep1)
	}
}

// TestStatsSnapshotLockFree exercises the atomic counter snapshot from
// concurrent monitors while the engine lock is held by real traffic —
// the snapshot must never block on (or race with) the access path.
func TestStatsSnapshotLockFree(t *testing.T) {
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	data := bytes.Repeat([]byte{0xAB}, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = c.Stats()
				}
			}
		}()
	}
	var now time.Duration
	for i := 0; i < 2000; i++ {
		addr := uint64(i%256) * 64
		if i%3 == 0 {
			lat, err := c.Write(now, addr, data, nil)
			if err != nil {
				t.Fatal(err)
			}
			now += lat
		} else {
			_, lat, err := c.Read(now, addr)
			if err != nil {
				t.Fatal(err)
			}
			now += lat
		}
	}
	close(stop)
	wg.Wait()
	st := c.Stats()
	if st.Reads+st.Writes != 2000 {
		t.Fatalf("reads+writes = %d, want 2000", st.Reads+st.Writes)
	}
}

// TestStatsAdd checks the snapshot folding used by the sharded engine.
func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, Writes: 2, Hits: 3, Misses: 4, Evictions: 5,
		WriteBacks: 6, PLTWrites: 7, SingleRepairs: 8, SDRRepairs: 9,
		RAIDRepairs: 10, Hash2Repairs: 11, UncorrectableDUEs: 12,
		ScrubPasses: 13, FaultsInjected: 14}
	sum := a
	sum.Add(a)
	if sum.Reads != 2 || sum.FaultsInjected != 28 || sum.ScrubPasses != 26 {
		t.Fatalf("Add: %+v", sum)
	}
}

// TestFirstTouchOfLineAllocatesNothing guards the flat line store: once
// the arena exists, writing a never-written line (a miss and a fill)
// and reading it back allocate nothing — the line's codeword, mirror
// and slot metadata are all rows of preallocated arrays.
func TestFirstTouchOfLineAllocatesNothing(t *testing.T) {
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	data := bytes.Repeat([]byte{0x3C}, c.cfg.LineBytes)
	dst := make([]byte, c.cfg.LineBytes)
	next := uint64(0)
	touch := func() {
		// Consecutive lines fill the sets way by way: no eviction until
		// all 16384 lines are resident.
		addr := next * uint64(c.cfg.LineBytes)
		next++
		if _, err := c.Write(0, addr, data, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadInto(0, addr, dst, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, data) {
			t.Fatalf("line %d: wrong data", next-1)
		}
	}
	touch() // the first functional write allocates the arena
	if n := testing.AllocsPerRun(200, touch); n != 0 {
		t.Fatalf("first write + read of a line: %.1f allocs, want 0", n)
	}
	if st := c.Stats(); st.Misses < 200 || st.SeqlockReads < 200 {
		t.Fatalf("not first touches on the fast read path: %+v", st)
	}
}

// TestTimingOnlyAllocatesNoArena: a cache driven only through
// AccessTiming with the fast path disabled — the performance
// simulator's configuration — builds neither the codeword arena nor
// the mirror arrays.
func TestTimingOnlyAllocatesNoArena(t *testing.T) {
	cfg := testConfig(core.ProtectionZ)
	cfg.DisableFastReads = true
	c, _ := mustCache(t, cfg)
	// Each line is touched twice in a row (a miss, then a hit), and the
	// run spans twice the capacity, so fills evict.
	for i := 0; i < 4*cfg.Lines; i++ {
		c.AccessTiming(float64(i), uint64((i/2)*977)*64, i%3 == 0)
	}
	if st := c.Stats(); st.Misses == 0 || st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("timing run did not exercise hits, misses and evictions: %+v", st)
	}
	if c.fp != nil || c.arena != nil || c.live != nil {
		t.Fatal("timing-only cache allocated a line store")
	}
}
