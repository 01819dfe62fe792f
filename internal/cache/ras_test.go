package cache

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"sudoku/internal/core"
	"sudoku/internal/ras"
)

// eventTrap collects RAS events from a cache under test.
type eventTrap struct {
	mu     sync.Mutex
	events []ras.Event
}

func (t *eventTrap) sink(e ras.Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

func (t *eventTrap) count(k ras.EventKind) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// trapCache builds a cache with an event trap attached.
func trapCache(t *testing.T, cfg Config) (*STTRAM, *eventTrap) {
	t.Helper()
	c, _ := mustCache(t, cfg)
	trap := &eventTrap{}
	c.SetEventSink(trap.sink)
	return c, trap
}

// setStride is the byte distance between addresses that map to the
// same set in testConfig (2048 sets × 64-byte lines).
const setStride = (1 << 14) / 8 * 64

// defeatX plants the canonical X-defeating pattern: two lines of
// Hash-1 group 0 with two bit flips each.
func defeatX(t *testing.T, c *STTRAM, addrA, addrB uint64) {
	t.Helper()
	for _, f := range []struct {
		addr uint64
		bits []int
	}{{addrA, []int{10, 20}}, {addrB, []int{30, 40}}} {
		for _, b := range f.bits {
			if err := c.InjectFault(f.addr, b); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCleanLineDUERecoveredByRefetch is the tentpole contract: an
// uncorrectable pattern on a CLEAN line is not an error — the line is
// transparently refetched from the backing memory and the read
// succeeds.
func TestCleanLineDUERecoveredByRefetch(t *testing.T) {
	c, trap := trapCache(t, testConfig(core.ProtectionX))
	data := bytes.Repeat([]byte{0x5a}, 64)
	if _, err := c.Write(0, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	// Evict addr 0 (8-way set): eight conflicting fills push it out and
	// write it back; re-reading it fills a CLEAN copy.
	for tag := uint64(1); tag <= 8; tag++ {
		if _, _, err := c.Read(0, tag*setStride); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := c.Read(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip before faults")
	}
	// Second clean line in the same Hash-1 group (set 1 ⇒ phys 8..15,
	// still < 64).
	if _, _, err := c.Read(0, 64); err != nil {
		t.Fatal(err)
	}
	defeatX(t, c, 0, 64)

	got, _, err = c.Read(0, 0)
	if err != nil {
		t.Fatalf("clean-line DUE not recovered: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("recovered data wrong: %x", got[:8])
	}
	if st := c.Stats(); st.DUERecovered == 0 {
		t.Fatalf("DUERecovered = %d", st.DUERecovered)
	}
	if trap.count(ras.KindDUERecovered) == 0 {
		t.Fatal("no due-recovered event")
	}
	// The refetch rewrote the line; a scrub settles the group and the
	// data must survive.
	if _, err := c.Scrub(); err != nil {
		t.Fatal(err)
	}
	got, _, err = c.Read(0, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-scrub read: %v", err)
	}
}

// TestDirtyLineDUEIsDataLoss: the same pattern on a DIRTY line has no
// other copy — the access fails, the loss is recorded, and the line is
// discarded so the slot returns to service.
func TestDirtyLineDUEIsDataLoss(t *testing.T) {
	c, trap := trapCache(t, testConfig(core.ProtectionX))
	data := bytes.Repeat([]byte{0x77}, 64)
	for _, a := range []uint64{0, 64} {
		if _, err := c.Write(0, a, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	defeatX(t, c, 0, 64)

	if _, _, err := c.Read(0, 0); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("dirty DUE err = %v, want ErrUncorrectable", err)
	}
	st := c.Stats()
	if st.DUEDataLoss == 0 {
		t.Fatalf("DUEDataLoss = %d", st.DUEDataLoss)
	}
	if trap.count(ras.KindDUEDataLoss) == 0 {
		t.Fatal("no due-data-loss event")
	}
	// The slot was discarded: the next read misses and refetches the
	// last clean copy (never written back here ⇒ zeros), without error.
	got, _, err := c.Read(0, 0)
	if err != nil {
		t.Fatalf("read after discard: %v", err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("discarded line did not fall back to backing copy")
	}
}

// TestWriteOverDUEEmitsOverwrittenEvent: a full-line write landing on
// uncorrectable content succeeds (parity rebuilt) and records the
// incident.
func TestWriteOverDUEEmitsOverwrittenEvent(t *testing.T) {
	c, trap := trapCache(t, testConfig(core.ProtectionX))
	data := bytes.Repeat([]byte{0x08}, 64)
	for _, a := range []uint64{0, 64} {
		if _, err := c.Write(0, a, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	defeatX(t, c, 0, 64)
	for _, a := range []uint64{0, 64} {
		if _, err := c.Write(0, a, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	if trap.count(ras.KindDUEOverwritten) == 0 {
		t.Fatal("no due-overwritten event")
	}
	got, _, err := c.Read(0, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after overwrite: %v", err)
	}
}

// TestFillWriteLineErrorPropagates is the regression test for the
// silently swallowed writeLine error on the fill path: a substrate
// error now surfaces to the caller and the RAS log instead of
// vanishing.
func TestFillWriteLineErrorPropagates(t *testing.T) {
	c, trap := trapCache(t, testConfig(core.ProtectionZ))
	// Corrupt the substrate: a Hash-1 parity table of the wrong width
	// rejects the fill's parity delta, so its writeLine must fail.
	bad, err := core.NewPLT(c.params.NumGroups(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c.plt1 = bad
	_, _, err = c.Read(0, 0)
	if err == nil {
		t.Fatal("fill over corrupt substrate succeeded")
	}
	if errors.Is(err, ErrUncorrectable) {
		t.Fatalf("geometry error misreported as DUE: %v", err)
	}
	if trap.count(ras.KindWriteLineError) == 0 {
		t.Fatal("no writeline-error event")
	}
	// The slot must not claim to hold the line.
	if w := c.lookup(0, 0); w >= 0 && c.ways[c.physIndex(0, w)].valid {
		t.Fatal("failed fill left a valid way")
	}
}

// TestChronicLineRetiredToSpare: a permanent fault makes a line
// chronically correctable; the leaky bucket trips and the line is
// remapped to a spare that serves all subsequent traffic.
func TestChronicLineRetiredToSpare(t *testing.T) {
	cfg := testConfig(core.ProtectionZ)
	cfg.RetireCEThreshold = 3
	cfg.SpareLines = 2
	c, trap := trapCache(t, cfg)
	data := bytes.Repeat([]byte{0x42}, 64)
	if _, err := c.Write(0, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	// Pin a payload bit to the wrong value: every scrub pass repairs
	// it, every repair feeds the bucket.
	if err := c.InjectStuckAt(0, 3, true); err != nil {
		t.Fatal(err)
	}
	retiredAt := 0
	for pass := 1; pass <= 6; pass++ {
		rep, err := c.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		if rep.LinesRetired > 0 {
			retiredAt = pass
			break
		}
	}
	if retiredAt == 0 {
		t.Fatal("chronic line never retired")
	}
	if c.RetiredLines() != 1 || c.SparesFree() != 1 {
		t.Fatalf("retired=%d sparesFree=%d", c.RetiredLines(), c.SparesFree())
	}
	if st := c.Stats(); st.LinesRetired != 1 {
		t.Fatalf("stats.LinesRetired = %d", st.LinesRetired)
	}
	if trap.count(ras.KindLineRetired) != 1 {
		t.Fatal("no line-retired event")
	}
	// The stuck cell left with the retired array line.
	if c.StuckCells() != 0 {
		t.Fatalf("stuck cells = %d after retirement", c.StuckCells())
	}
	// Round trips now ride the spare: correct data, clean scrubs,
	// faults absorbed.
	got, _, err := c.Read(0, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read via spare: %v", err)
	}
	data2 := bytes.Repeat([]byte{0x43}, 64)
	if _, err := c.Write(0, 0, data2, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectFault(0, 7); err != nil {
		t.Fatal(err)
	}
	got, _, err = c.Read(0, 0)
	if err != nil || !bytes.Equal(got, data2) {
		t.Fatalf("spare row corrupted: %v", err)
	}
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SingleRepairs != 0 || len(rep.DUELines) != 0 {
		t.Fatalf("retired line still scrubbed: %+v", rep)
	}
}

// TestSpareExhaustionReported: with one spare and two chronic lines,
// the second retirement request must surface as an event, not vanish.
func TestSpareExhaustionReported(t *testing.T) {
	cfg := testConfig(core.ProtectionZ)
	cfg.RetireCEThreshold = 2
	cfg.SpareLines = 1
	c, trap := trapCache(t, cfg)
	data := bytes.Repeat([]byte{0x21}, 64)
	for _, a := range []uint64{0, 64} {
		if _, err := c.Write(0, a, data, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.InjectStuckAt(a, 3, true); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 6; pass++ {
		if _, err := c.Scrub(); err != nil {
			t.Fatal(err)
		}
	}
	if c.RetiredLines() != 1 || c.SparesFree() != 0 {
		t.Fatalf("retired=%d sparesFree=%d", c.RetiredLines(), c.SparesFree())
	}
	if trap.count(ras.KindSpareExhausted) == 0 {
		t.Fatal("no spare-exhausted event")
	}
	// Both addresses still serve correct data (one via spare, one via
	// per-pass repair).
	for _, a := range []uint64{0, 64} {
		got, _, err := c.Read(0, a)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("addr %d: %v", a, err)
		}
	}
}

// TestParityFaultQuarantinesRegion: a fault in a parity line itself is
// caught by the scrub-time audit (all members clean, parity
// mismatches), the region is quarantined, writes keep working, and a
// rebuild returns it to service.
func TestParityFaultQuarantinesRegion(t *testing.T) {
	cfg := testConfig(core.ProtectionZ)
	cfg.QuarantineAuditPasses = 1
	c, trap := trapCache(t, cfg)
	data := bytes.Repeat([]byte{0x11}, 64)
	for _, a := range []uint64{0, 64, 128} {
		if _, err := c.Write(0, a, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.InjectParityFault(0, 17); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RegionsQuarantined != 1 || c.QuarantinedRegions() != 1 {
		t.Fatalf("quarantine: rep=%+v live=%d", rep, c.QuarantinedRegions())
	}
	if trap.count(ras.KindRegionQuarantined) != 1 {
		t.Fatal("no region-quarantined event")
	}
	// Writes into the quarantined region succeed (Hash-1 accounting
	// bypassed) and scrub skips its lines.
	data2 := bytes.Repeat([]byte{0x12}, 64)
	if _, err := c.Write(0, 0, data2, nil); err != nil {
		t.Fatal(err)
	}
	rep, err = c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuarantineSkipped == 0 {
		t.Fatalf("scrub did not skip quarantined lines: %+v", rep)
	}
	// Rebuild: parity recomputed, region back in service, audit clean.
	n, err := c.RebuildQuarantined()
	if err != nil || n != 1 {
		t.Fatalf("rebuild = %d, %v", n, err)
	}
	if c.QuarantinedRegions() != 0 {
		t.Fatal("region still quarantined after rebuild")
	}
	if trap.count(ras.KindRegionRebuilt) != 1 {
		t.Fatal("no region-rebuilt event")
	}
	rep, err = c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RegionsQuarantined != 0 || rep.QuarantineSkipped != 0 {
		t.Fatalf("post-rebuild scrub: %+v", rep)
	}
	for _, tc := range []struct {
		addr uint64
		want []byte
	}{{0, data2}, {64, data}, {128, data}} {
		got, _, err := c.Read(0, tc.addr)
		if err != nil || !bytes.Equal(got, tc.want) {
			t.Fatalf("addr %d after rebuild: %v", tc.addr, err)
		}
	}
}

// TestQuarantinedRegionDUEsRecoverViaRefetch: with the group machinery
// down, a multi-bit fault on a clean line in a quarantined region
// still recovers through the memory-refetch path.
func TestQuarantinedRegionDUEsRecoverViaRefetch(t *testing.T) {
	cfg := testConfig(core.ProtectionZ)
	cfg.QuarantineAuditPasses = 1
	c, trap := trapCache(t, cfg)
	// A clean resident line: fill by read.
	if _, _, err := c.Read(0, 128); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectParityFault(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Scrub(); err != nil {
		t.Fatal(err)
	}
	if c.QuarantinedRegions() != 1 {
		t.Fatal("region not quarantined")
	}
	// Multi-bit fault on the clean line: per-line ECC-1 can't fix it,
	// the region's group repair is down, so this is a DUE — recovered
	// by refetch because the line is clean.
	for _, b := range []int{10, 20} {
		if err := c.InjectFault(128, b); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := c.Read(0, 128)
	if err != nil {
		t.Fatalf("quarantined-region clean DUE not recovered: %v", err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatal("recovered content wrong")
	}
	if trap.count(ras.KindDUERecovered) == 0 {
		t.Fatal("no due-recovered event")
	}
}

// TestValidateRejectsRASMisconfig pins the config error paths.
func TestValidateRejectsRASMisconfig(t *testing.T) {
	for i, mut := range []func(*Config){
		func(c *Config) { c.RetireCEThreshold = -1 },
		func(c *Config) { c.SpareLines = -1 },
		func(c *Config) { c.QuarantineAuditPasses = -1 },
		func(c *Config) { c.Protection = 0; c.CRCCheckCycles = 0; c.RetireCEThreshold = 2 },
		func(c *Config) { c.Protection = 0; c.CRCCheckCycles = 0; c.QuarantineAuditPasses = 2 },
	} {
		cfg := testConfig(core.ProtectionZ)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: bad config validated", i)
		}
	}
}
