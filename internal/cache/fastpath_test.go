package cache

import (
	"bytes"
	"testing"

	"sudoku/internal/core"
)

// fastFixture returns a protected cache with one resident written line
// at addr, its mirror published (the write's syncLine), ready for
// optimistic reads.
func fastFixture(t *testing.T) (*STTRAM, uint64, []byte) {
	t.Helper()
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	if c.fp == nil {
		t.Fatal("fast path not enabled on protected config")
	}
	addr := uint64(0x40)
	data := bytes.Repeat([]byte{0x5A}, c.cfg.LineBytes)
	data[0] = 0x01
	if _, err := c.Write(0, addr, data, nil); err != nil {
		t.Fatal(err)
	}
	return c, addr, data
}

func TestSeqlockFastPathServesCleanHits(t *testing.T) {
	c, addr, data := fastFixture(t)
	dst := make([]byte, c.cfg.LineBytes)
	for i := 0; i < 3; i++ {
		if _, err := c.ReadInto(0, addr, dst, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, data) {
			t.Fatalf("read %d: wrong data", i)
		}
	}
	st := c.Stats()
	if st.SeqlockReads < 3 {
		t.Fatalf("SeqlockReads = %d, want >= 3 (fast path not engaging)", st.SeqlockReads)
	}
	if st.SeqlockFallbacks != 0 {
		t.Fatalf("SeqlockFallbacks = %d, want 0 on uncontended clean hits", st.SeqlockFallbacks)
	}
}

func TestDisableFastReadsForcesLockedPath(t *testing.T) {
	cfg := testConfig(core.ProtectionZ)
	cfg.DisableFastReads = true
	c, _ := mustCache(t, cfg)
	if c.fp != nil {
		t.Fatal("fast path built despite DisableFastReads")
	}
	addr := uint64(0x40)
	data := bytes.Repeat([]byte{7}, c.cfg.LineBytes)
	if _, err := c.Write(0, addr, data, nil); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, c.cfg.LineBytes)
	if _, err := c.ReadInto(0, addr, dst, nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.SeqlockReads != 0 || st.SeqlockFallbacks != 0 {
		t.Fatalf("seqlock counters moved with fast path disabled: %+v", st)
	}
}

// TestSeqlockMidCopyBumpFallsBackOnce drives the exact interleaving the
// sequence recheck exists for: a publish completes between the
// reader's first sequence load and its word copy. The read must take
// the locked fallback exactly once and still return correct data.
func TestSeqlockMidCopyBumpFallsBackOnce(t *testing.T) {
	c, addr, data := fastFixture(t)
	fired := 0
	c.fp.readHook = func(phys int) {
		if fired > 0 {
			return
		}
		fired++
		// A full writer publish: odd, then the next even value — the
		// reader's s1 is now stale, so its final recheck must fail even
		// though the words it copies are internally consistent.
		c.fp.seq[phys].Add(2)
	}
	before := c.Stats()
	dst := make([]byte, c.cfg.LineBytes)
	if _, err := c.ReadInto(0, addr, dst, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("wrong data after mid-copy publish")
	}
	after := c.Stats()
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}
	if got := after.SeqlockFallbacks - before.SeqlockFallbacks; got != 1 {
		t.Fatalf("SeqlockFallbacks delta = %d, want exactly 1", got)
	}
	if after.SeqlockReads != before.SeqlockReads {
		t.Fatal("fast-path success counted on a read that should have fallen back")
	}
	// The hook self-disarmed: the next read goes fast again (the locked
	// fallback resynced the mirror).
	if _, err := c.ReadInto(0, addr, dst, nil); err != nil {
		t.Fatal(err)
	}
	if c.Stats().SeqlockReads != after.SeqlockReads+1 {
		t.Fatal("fast path did not recover after the fallback")
	}
}

// TestSeqlockTornCopyNeverReachesDst pins the ReadInto buffer contract
// for the optimistic path: a torn snapshot must never land in dst. The
// hook plays a mid-copy writer — it rewrites the mirror words to
// garbage and republishes — so the reader's copy is torn no matter how
// the loads interleave; dst must come back holding the true line (via
// the fallback), never the garbage.
func TestSeqlockTornCopyNeverReachesDst(t *testing.T) {
	c, addr, data := fastFixture(t)
	fired := false
	c.fp.readHook = func(phys int) {
		if fired {
			return
		}
		fired = true
		seq := &c.fp.seq[phys]
		s := seq.Load()
		seq.Store(s + 1) // odd: publish in flight
		m := c.fp.mirror(phys)
		for i := range m {
			m[i].Store(0xDEADBEEFDEADBEEF)
		}
		seq.Store(s + 2) // even again, words now garbage
	}
	dst := make([]byte, c.cfg.LineBytes)
	for i := range dst {
		dst[i] = 0xAA // sentinel: must be fully overwritten
	}
	before := c.Stats()
	if _, err := c.ReadInto(0, addr, dst, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatalf("dst holds torn/garbage data: % x", dst[:8])
	}
	if got := c.Stats().SeqlockFallbacks - before.SeqlockFallbacks; got < 1 {
		t.Fatalf("SeqlockFallbacks delta = %d, want >= 1", got)
	}
}

// TestSeqlockFaultFallsBackToRepairLadder injects a real fault into a
// resident line: the fast path must refuse the CRC-flagged mirror and
// the locked ladder must repair and serve, with CRCDetects counted
// exactly once (the fast path's refusal is not a detection event).
func TestSeqlockFaultFallsBackToRepairLadder(t *testing.T) {
	c, addr, data := fastFixture(t)
	// Warm the fast path so the mirror is live.
	dst := make([]byte, c.cfg.LineBytes)
	if _, err := c.ReadInto(0, addr, dst, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectFault(addr, 3); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if _, err := c.ReadInto(0, addr, dst, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("wrong data after repair")
	}
	after := c.Stats()
	if after.SeqlockFallbacks == before.SeqlockFallbacks {
		t.Fatal("faulty read did not fall back")
	}
	if after.CRCDetects-before.CRCDetects != 1 {
		t.Fatalf("CRCDetects delta = %d, want 1 (locked path owns detection)", after.CRCDetects-before.CRCDetects)
	}
	if after.SingleRepairs-before.SingleRepairs != 1 {
		t.Fatalf("SingleRepairs delta = %d, want 1", after.SingleRepairs-before.SingleRepairs)
	}
	// Repaired and resynced: reads go fast again.
	base := c.Stats().SeqlockReads
	if _, err := c.ReadInto(0, addr, dst, nil); err != nil {
		t.Fatal(err)
	}
	if c.Stats().SeqlockReads != base+1 {
		t.Fatal("fast path did not recover after the repair")
	}
}

// TestSeqlockEvictionRecycleIsSafe reuses a set slot for a different
// tag and checks a fast read of the new address never sees the old
// occupant's data, and a fast read of the evicted address misses.
func TestSeqlockEvictionRecycleIsSafe(t *testing.T) {
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	lb := uint64(c.cfg.LineBytes)
	sets := uint64(c.numSets)
	// Ways+1 addresses mapping to set 0 force an eviction.
	n := c.cfg.Ways + 1
	dst := make([]byte, c.cfg.LineBytes)
	for i := 0; i < n; i++ {
		addr := uint64(i) * sets * lb
		data := bytes.Repeat([]byte{byte(i + 1)}, c.cfg.LineBytes)
		if _, err := c.Write(0, addr, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		addr := uint64(i) * sets * lb
		if _, err := c.ReadInto(0, addr, dst, nil); err != nil {
			t.Fatal(err)
		}
		for j, b := range dst {
			if b != byte(i+1) {
				t.Fatalf("addr %#x byte %d = %#x, want %#x", addr, j, b, byte(i+1))
			}
		}
	}
}

// writeAndWarm writes one line per address and reads each back once, so
// every mirror is published and the fast path is warm.
func writeAndWarm(t *testing.T, c *STTRAM, addrs ...uint64) [][]byte {
	t.Helper()
	dst := make([]byte, c.cfg.LineBytes)
	datas := make([][]byte, len(addrs))
	for i, addr := range addrs {
		datas[i] = bytes.Repeat([]byte{byte(0x10 + i)}, c.cfg.LineBytes)
		if _, err := c.Write(0, addr, datas[i], nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadInto(0, addr, dst, nil); err != nil {
			t.Fatal(err)
		}
	}
	return datas
}

// expectFastRead reads addr and requires exactly one seqlock read, no
// fallback, and the expected data.
func expectFastRead(t *testing.T, c *STTRAM, what string, addr uint64, want []byte) {
	t.Helper()
	dst := make([]byte, c.cfg.LineBytes)
	before := c.Stats()
	if _, err := c.ReadInto(0, addr, dst, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) {
		t.Fatalf("%s: wrong data", what)
	}
	after := c.Stats()
	if got := after.SeqlockReads - before.SeqlockReads; got != 1 {
		t.Fatalf("%s: SeqlockReads delta = %d, want 1", what, got)
	}
	if got := after.SeqlockFallbacks - before.SeqlockFallbacks; got != 0 {
		t.Fatalf("%s: SeqlockFallbacks delta = %d, want 0", what, got)
	}
}

// TestSeqlockGroupRepairResyncsTouchedLines checks exact invalidation
// around a group repair: the repair's view turns every member it hands
// out odd, and the repair's caller resyncs them, so once the faulty
// line's read returns, a clean member of the repaired group reads on
// the fast path again — and a line outside every repaired group never
// left it.
func TestSeqlockGroupRepairResyncsTouchedLines(t *testing.T) {
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	// testConfig: 2048 sets × 8 ways, GroupSize 64, so on a fresh cache
	// the line at addr i*64 lands in phys 8i. A (phys 0) and B (phys 8)
	// share Hash-1 group 0; C (phys 520) is in Hash-1 group 8 and
	// Hash-2 group 8, outside every group A's repair can reach.
	const addrA, addrB, addrC = 0, 64, 65 * 64
	datas := writeAndWarm(t, c, addrA, addrB, addrC)
	physOf := func(addr uint64) int {
		set := c.setIndex(addr)
		return c.physIndex(set, c.lookup(set, c.tagOf(addr)))
	}
	pa, pb, pc := physOf(addrA), physOf(addrB), physOf(addrC)
	if c.params.Hash1Of(pb) != c.params.Hash1Of(pa) ||
		c.params.Hash1Of(pc) == c.params.Hash1Of(pa) || c.params.Hash2Of(pc) == c.params.Hash2Of(pa) {
		t.Fatalf("fixture: phys A=%d B=%d C=%d do not split across groups as intended", pa, pb, pc)
	}
	// Two flips defeat ECC-1: A's read needs the group repair (RAID-4
	// reconstruction in Hash-1 group 0).
	for _, bit := range []int{10, 20} {
		if err := c.InjectFault(addrA, bit); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	dst := make([]byte, c.cfg.LineBytes)
	if _, err := c.ReadInto(0, addrA, dst, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, datas[0]) {
		t.Fatal("wrong data after group repair")
	}
	if got := c.Stats().RAIDRepairs - before.RAIDRepairs; got != 1 {
		t.Fatalf("RAIDRepairs delta = %d, want 1 (the group repair did not run)", got)
	}
	expectFastRead(t, c, "repaired-group member B", addrB, datas[1])
	expectFastRead(t, c, "outside line C", addrC, datas[2])
	expectFastRead(t, c, "repaired line A", addrA, datas[0])
}

// TestSeqlockScrubRepairKeepsOtherMirrors is the scrub-pass side of
// exact invalidation: a pass that repairs one line resyncs that line
// and leaves every other mirror untouched.
func TestSeqlockScrubRepairKeepsOtherMirrors(t *testing.T) {
	c, _ := mustCache(t, testConfig(core.ProtectionZ))
	const addrA, addrB = 0, 64
	datas := writeAndWarm(t, c, addrA, addrB)
	if err := c.InjectFault(addrA, 7); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SingleRepairs != 1 {
		t.Fatalf("scrub SingleRepairs = %d, want 1", rep.SingleRepairs)
	}
	expectFastRead(t, c, "scrub-repaired line A", addrA, datas[0])
	expectFastRead(t, c, "untouched line B", addrB, datas[1])
}
