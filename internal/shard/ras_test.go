package shard

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sudoku/internal/cache"
	"sudoku/internal/core"
	"sudoku/internal/ras"
)

// TestEngineRemapsEventCoordinates: a shard-local RAS event must land
// in the engine log with whole-cache Shard/Line/Addr coordinates.
func TestEngineRemapsEventCoordinates(t *testing.T) {
	e := mustEngine(t, testConfig(core.ProtectionX))
	// Shard 3, sub-set 0: global lines 3 and 512+3 (sub lines 0 and 16
	// of 16 sets) share shard-local Hash-1 group 0 (GroupSize 8).
	addrA, addrB := uint64(3*64), uint64((512+3)*64)
	data := bytes.Repeat([]byte{0x9c}, 64)
	for _, a := range []uint64{addrA, addrB} {
		if err := e.Write(a, data, nil); err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{11, 22} {
			if err := e.InjectFault(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.Read(addrA); !errors.Is(err, cache.ErrUncorrectable) {
		t.Fatalf("dirty DUE err = %v", err)
	}
	var loss *ras.Event
	for _, ev := range e.Events().Snapshot() {
		if ev.Kind == ras.KindDUEDataLoss {
			ev := ev
			loss = &ev
			break
		}
	}
	if loss == nil {
		t.Fatal("no due-data-loss event in engine log")
	}
	if loss.Shard != 3 {
		t.Fatalf("event shard = %d, want 3", loss.Shard)
	}
	if loss.Addr != addrA {
		t.Fatalf("event addr = %#x, want %#x (whole-cache frame)", loss.Addr, addrA)
	}
	// Sub-set 0 of shard 3 occupies global slots [24, 32).
	if loss.Line < 24 || loss.Line >= 32 {
		t.Fatalf("event line = %d, want in [24,32)", loss.Line)
	}
}

// TestEngineHealthAggregates: retirement and quarantine surface through
// the engine-wide health accessors, and RebuildQuarantined clears the
// quarantine across shards.
func TestEngineHealthAggregates(t *testing.T) {
	cfg := testConfig(core.ProtectionZ)
	cfg.Cache.RetireCEThreshold = 2
	cfg.Cache.SpareLines = 1
	cfg.Cache.QuarantineAuditPasses = 1
	e := mustEngine(t, cfg)
	if e.SparesFree() != e.Shards() {
		t.Fatalf("spares free = %d, want %d", e.SparesFree(), e.Shards())
	}
	data := bytes.Repeat([]byte{0x33}, 64)
	if err := e.Write(192, data, nil); err != nil { // shard 3
		t.Fatal(err)
	}
	if err := e.InjectStuckAt(192, 3, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4 && e.RetiredLines() == 0; i++ {
		if _, err := e.Scrub(); err != nil {
			t.Fatal(err)
		}
	}
	if e.RetiredLines() != 1 || e.SparesFree() != e.Shards()-1 {
		t.Fatalf("retired=%d sparesFree=%d", e.RetiredLines(), e.SparesFree())
	}
	if got, err := e.Read(192); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read via spare: %v", err)
	}
	// Parity fault in shard 0, group 0 (materialized by a write).
	if err := e.Write(0, data, nil); err != nil {
		t.Fatal(err)
	}
	if g := e.ParityGroups(); g <= 0 {
		t.Fatalf("parity groups = %d", g)
	}
	if err := e.InjectParityFault(0, 0, 5); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RegionsQuarantined != 1 || e.QuarantinedRegions() != 1 {
		t.Fatalf("quarantine: rep=%+v live=%d", rep, e.QuarantinedRegions())
	}
	n, err := e.RebuildQuarantined()
	if err != nil || n != 1 {
		t.Fatalf("rebuild = %d, %v", n, err)
	}
	if e.QuarantinedRegions() != 0 {
		t.Fatal("region still quarantined")
	}
	c := e.Events().Counts()
	if c.LinesRetired != 1 || c.RegionsQuarantined != 1 || c.RegionsRebuilt != 1 {
		t.Fatalf("event census: %+v", c)
	}
}

// TestDaemonRecoversFromPanic: a panicking OnPass abandons the rotation
// but the daemon restarts, later rotations complete, and the panic is
// on the record.
func TestDaemonRecoversFromPanic(t *testing.T) {
	e := mustEngine(t, testConfig(core.ProtectionZ))
	var calls atomic.Int64
	d, err := NewScrubDaemon(e, DaemonConfig{
		Interval: 2 * time.Millisecond,
		OnPass: func(Pass) {
			if calls.Add(1) == 1 {
				panic("synthetic OnPass failure")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if err := d.Drain(); err != nil {
		t.Fatalf("daemon did not recover: %v", err)
	}
	if st := d.Stats(); st.Panics != 1 || st.Rotations < 1 {
		t.Fatalf("stats after panic: %+v", st)
	}
	if e.Events().Count(ras.KindDaemonPanic) != 1 {
		t.Fatal("no daemon-panic event")
	}
	found := false
	for _, ev := range e.Events().Snapshot() {
		if ev.Kind == ras.KindDaemonPanic && strings.Contains(ev.Detail, "synthetic OnPass failure") {
			found = true
		}
	}
	if !found {
		t.Fatal("panic event lost its payload")
	}
}

// TestWatchdogFlagsStalledPass: a pass exceeding the stall budget is
// reported exactly once via stats and the RAS log.
func TestWatchdogFlagsStalledPass(t *testing.T) {
	e := mustEngine(t, testConfig(core.ProtectionZ))
	var stalled atomic.Bool
	d, err := NewScrubDaemon(e, DaemonConfig{
		Interval: time.Millisecond,
		Watchdog: 20 * time.Millisecond,
		OnPass: func(p Pass) {
			if p.Rotation == 1 && p.Shard == 0 && !stalled.Swap(true) {
				time.Sleep(120 * time.Millisecond)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for e.Events().Count(ras.KindScrubStall) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if e.Events().Count(ras.KindScrubStall) == 0 {
		t.Fatal("watchdog never flagged the stalled pass")
	}
	if st := d.Stats(); st.Stalls == 0 {
		t.Fatalf("stats.Stalls = %d", st.Stalls)
	}
	// The daemon is still making progress after the stall.
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainContextTimeout: a context deadline bounds the wait without
// disturbing the daemon.
func TestDrainContextTimeout(t *testing.T) {
	e := mustEngine(t, testConfig(core.ProtectionZ))
	d, err := NewScrubDaemon(e, DaemonConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := d.DrainContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DrainContext = %v, want DeadlineExceeded", err)
	}
	if !d.Running() {
		t.Fatal("timed-out drain killed the daemon")
	}
	// An uncancelled context still drains normally on a fast daemon.
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	d2, err := NewScrubDaemon(e, DaemonConfig{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Start(); err != nil {
		t.Fatal(err)
	}
	defer d2.Stop()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := d2.DrainContext(ctx2); err != nil {
		t.Fatal(err)
	}
}
