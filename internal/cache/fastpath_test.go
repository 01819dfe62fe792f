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
	c.fp.readHook = func(m *lineMirror) {
		if fired > 0 {
			return
		}
		fired++
		// A full writer publish: odd, then the next even value — the
		// reader's s1 is now stale, so its final recheck must fail even
		// though the words it copies are internally consistent.
		m.seq.Add(2)
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
	c.fp.readHook = func(m *lineMirror) {
		if fired {
			return
		}
		fired = true
		s := m.seq.Load()
		m.seq.Store(s + 1) // odd: publish in flight
		for i := range m.words {
			m.words[i].Store(0xDEADBEEFDEADBEEF)
		}
		m.seq.Store(s + 2) // even again, words now garbage
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
	sets := uint64(len(c.sets))
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

// TestSeqlockGenerationBumpInvalidatesMirrors checks the cache-wide
// generation path: a group repair (unenumerable touched set) makes
// every published mirror stale, reads fall back once, then resync.
func TestSeqlockGenerationBumpInvalidatesMirrors(t *testing.T) {
	c, addr, data := fastFixture(t)
	dst := make([]byte, c.cfg.LineBytes)
	if _, err := c.ReadInto(0, addr, dst, nil); err != nil { // publish + warm
		t.Fatal(err)
	}
	c.mu.Lock()
	c.bumpGen()
	c.mu.Unlock()
	before := c.Stats()
	if _, err := c.ReadInto(0, addr, dst, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("wrong data after generation bump")
	}
	after := c.Stats()
	if after.SeqlockFallbacks-before.SeqlockFallbacks != 1 {
		t.Fatalf("stale-generation read: fallback delta = %d, want 1", after.SeqlockFallbacks-before.SeqlockFallbacks)
	}
	// The locked fallback restamped the mirror's generation.
	if _, err := c.ReadInto(0, addr, dst, nil); err != nil {
		t.Fatal(err)
	}
	if c.Stats().SeqlockReads != after.SeqlockReads+1 {
		t.Fatal("mirror did not resync after generation bump")
	}
}
