package shard

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"sudoku/internal/cache"
	"sudoku/internal/core"
)

// fixedMemory is a constant-latency next-level memory for tests.
type fixedMemory struct{}

func (fixedMemory) Access(_ time.Duration, _ uint64, _ bool) time.Duration {
	return 60 * time.Nanosecond
}

func newMemory() (cache.Memory, error) { return fixedMemory{}, nil }

// testConfig is a 4096-line (256 KB) whole-cache geometry that shards
// down to 32 banks' worth of sub-caches.
func testConfig(p core.Protection) Config {
	ccfg := cache.DefaultConfig()
	ccfg.Lines = 1 << 12
	ccfg.GroupSize = 64
	ccfg.Protection = p
	return Config{Cache: ccfg, Seed: 7, NewMemory: newMemory}
}

func mustEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSubConfig(t *testing.T) {
	whole := testConfig(core.ProtectionZ).Cache
	sub, err := SubConfig(whole, 32)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Lines != 128 || sub.Banks != 1 {
		t.Fatalf("sub geometry: %d lines, %d banks", sub.Lines, sub.Banks)
	}
	if sub.GroupSize != 8 {
		t.Fatalf("scaled group size %d, want 8 (8² ≤ 128)", sub.GroupSize)
	}
	// Group scaling never grows the group.
	whole.GroupSize = 4
	if sub, err = SubConfig(whole, 32); err != nil || sub.GroupSize != 4 {
		t.Fatalf("group grew to %d (err %v)", sub.GroupSize, err)
	}
	for _, bad := range []struct {
		shards int
		mutate func(*cache.Config)
	}{
		{0, nil},
		{3, nil},
		{1 << 12, nil}, // one line per shard: cannot hold 8 ways
		{32, func(c *cache.Config) { c.Lines = 1 << 7 }}, // 4 lines/shard: no parity groups
	} {
		c := testConfig(core.ProtectionZ).Cache
		if bad.mutate != nil {
			bad.mutate(&c)
		}
		if _, err := SubConfig(c, bad.shards); err == nil {
			t.Fatalf("SubConfig(%d shards) accepted invalid geometry", bad.shards)
		}
	}
}

func TestNewDefaults(t *testing.T) {
	e := mustEngine(t, testConfig(core.ProtectionZ))
	if e.Shards() != 32 {
		t.Fatalf("default shard count %d, want Banks=32", e.Shards())
	}
	if _, err := New(Config{Cache: cache.DefaultConfig()}); err == nil {
		t.Fatal("nil NewMemory accepted")
	}
	cfg := testConfig(core.ProtectionZ)
	cfg.Shards = 7
	if _, err := New(cfg); err == nil {
		t.Fatal("non-power-of-two shard count accepted")
	}
}

// TestStriping checks the interleaved line→shard map: consecutive
// lines land on consecutive shards, like bank interleaving.
func TestStriping(t *testing.T) {
	e := mustEngine(t, testConfig(core.ProtectionZ))
	for line := 0; line < 128; line++ {
		if got, want := e.ShardFor(uint64(line)*64), line%e.Shards(); got != want {
			t.Fatalf("line %d on shard %d, want %d", line, got, want)
		}
	}
}

// TestGlobalSlotBijective checks the shard-local→whole-cache slot
// remapping covers every slot exactly once.
func TestGlobalSlotBijective(t *testing.T) {
	e := mustEngine(t, testConfig(core.ProtectionZ))
	seen := make([]bool, e.cfg.Cache.Lines)
	for s := 0; s < e.Shards(); s++ {
		for p := 0; p < e.sub.Lines; p++ {
			g := e.globalSlot(s, p)
			if g < 0 || g >= len(seen) || seen[g] {
				t.Fatalf("slot (%d,%d) → %d collides or out of range", s, p, g)
			}
			seen[g] = true
		}
	}
}

// TestReadWriteMatchesGlobal drives the same access sequence through
// the sharded engine and the unsharded substrate and compares data.
func TestReadWriteMatchesGlobal(t *testing.T) {
	cfg := testConfig(core.ProtectionZ)
	e := mustEngine(t, cfg)
	mem := fixedMemory{}
	global, err := cache.New(cfg.Cache, mem)
	if err != nil {
		t.Fatal(err)
	}
	line := func(i int) []byte {
		b := bytes.Repeat([]byte{byte(i)}, 64)
		b[0] = byte(i >> 8)
		return b
	}
	const n = 512
	for i := 0; i < n; i++ {
		addr := uint64(i*3) * 64 // stride past shard and set boundaries
		if err := e.Write(addr, line(i), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := global.Write(0, addr, line(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		addr := uint64(i*3) * 64
		got, err := e.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := global.Read(0, addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("addr %#x: sharded %x != global %x", addr, got[:8], want[:8])
		}
	}
	st := e.Stats()
	if st.Reads != n || st.Writes != n {
		t.Fatalf("aggregate stats %d reads / %d writes, want %d/%d", st.Reads, st.Writes, n, n)
	}
}

// TestRepairLadder injects per-line faults through the engine and
// checks the ladder repairs them on read.
func TestRepairLadder(t *testing.T) {
	e := mustEngine(t, testConfig(core.ProtectionZ))
	data := bytes.Repeat([]byte{0x5A}, 64)
	addr := uint64(5 * 64)
	if err := e.Write(addr, data, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectFault(addr, 17); err != nil {
		t.Fatal(err)
	}
	got, err := e.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("single-bit repair failed: %x", got[:8])
	}
	if st := e.Stats(); st.SingleRepairs == 0 || st.FaultsInjected != 1 {
		t.Fatalf("stats after repair: %+v", st)
	}
}

func TestStuckAt(t *testing.T) {
	e := mustEngine(t, testConfig(core.ProtectionZ))
	data := bytes.Repeat([]byte{0xFF}, 64)
	addr := uint64(9 * 64)
	if err := e.Write(addr, data, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectStuckAt(addr, 3, false); err != nil {
		t.Fatal(err)
	}
	if e.StuckCells() != 1 {
		t.Fatalf("StuckCells = %d", e.StuckCells())
	}
	got, err := e.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stuck cell not re-corrected on read")
	}
}

// TestInjectRandomFaultsDeterministic: identical (seed, shard count)
// must give a bit-for-bit identical fault pattern — verified by
// comparing full scrub reports of two independently built engines.
func TestInjectRandomFaultsDeterministic(t *testing.T) {
	build := func() *Engine {
		e := mustEngine(t, testConfig(core.ProtectionZ))
		for i := 0; i < 256; i++ {
			if err := e.Write(uint64(i)*64, bytes.Repeat([]byte{byte(i)}, 64), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.InjectRandomFaults(42, 100); err != nil {
			t.Fatal(err)
		}
		return e
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
		t.Fatalf("scrub reports diverge:\n%+v\n%+v", ra, rb)
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("stats diverge:\n%+v\n%+v", sa, sb)
	}
	if sa := a.Stats(); sa.FaultsInjected != 100 {
		t.Fatalf("FaultsInjected = %d, want 100", sa.FaultsInjected)
	}
}

// TestInjectRandomFaultsShardCountMatters documents the determinism
// contract's flip side: a different shard count reassigns streams, so
// the pattern legitimately changes.
func TestInjectRandomFaultsShardCountMatters(t *testing.T) {
	reports := make([]cache.ScrubReport, 0, 2)
	for _, shards := range []int{8, 32} {
		cfg := testConfig(core.ProtectionZ)
		cfg.Shards = shards
		e := mustEngine(t, cfg)
		for i := 0; i < 256; i++ {
			if err := e.Write(uint64(i)*64, bytes.Repeat([]byte{byte(i)}, 64), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.InjectRandomFaults(42, 200); err != nil {
			t.Fatal(err)
		}
		rep, err := e.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	if reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatal("8-shard and 32-shard fault patterns should differ")
	}
}

// TestScrubRepairsStorm checks a full incremental walk clears an
// interval's worth of injected noise.
func TestScrubRepairsStorm(t *testing.T) {
	e := mustEngine(t, testConfig(core.ProtectionZ))
	for i := 0; i < 512; i++ {
		if err := e.Write(uint64(i)*64, bytes.Repeat([]byte{byte(i)}, 64), nil); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < e.Shards(); s++ {
		if err := e.StormShard(s, 2); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LinesChecked == 0 {
		t.Fatal("scrub checked nothing")
	}
	if len(rep.DUELines) != 0 {
		t.Fatalf("sparse noise should be fully repairable, got DUEs %v", rep.DUELines)
	}
	// Everything reads back clean.
	for i := 0; i < 512; i++ {
		got, err := e.Read(uint64(i) * 64)
		if err != nil {
			t.Fatal(err)
		}
		if got[1] != byte(i) {
			t.Fatalf("line %d corrupted after scrub", i)
		}
	}
}

func TestUnprotectedEngine(t *testing.T) {
	cfg := testConfig(0)
	cfg.Cache.Protection = 0
	e := mustEngine(t, cfg)
	data := bytes.Repeat([]byte{1}, 64)
	if err := e.Write(0, data, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Scrub(); !errors.Is(err, cache.ErrNotProtected) {
		t.Fatalf("unprotected scrub: %v", err)
	}
	if err := e.InjectRandomFaults(1, 5); !errors.Is(err, cache.ErrNotProtected) {
		t.Fatalf("unprotected inject: %v", err)
	}
}
