package shard

import (
	"testing"
	"time"
)

// Regression guard for the targeted-scrub containment contract: an
// out-of-band ScrubRegion must not double-count into the daemon's
// rotation bookkeeping or touch its heartbeat. A stalled rotation has
// to stay visibly stalled even while the storm controller scrubs hot
// regions behind it — otherwise targeted scrubs would mask a wedged
// scrubber from the watchdog and health endpoints.
func TestTargetedScrubDoesNotMaskStalledRotation(t *testing.T) {
	e := seededEngine(t)

	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	d, err := NewScrubDaemon(e, DaemonConfig{
		Interval: 20 * time.Millisecond,
		Watchdog: 30 * time.Millisecond,
		OnPass: func(Pass) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-block // wedge the rotation mid-pass
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Stop() }()
	defer close(block)

	<-entered
	waitFor(t, 2*time.Second, "watchdog to flag the stall", d.Stalled)
	// Stalled reads the heartbeat live, but the watchdog counts the stall
	// only on its next tick; it flags each stalled pass once, so wait for
	// that count before snapshotting the daemon stats.
	waitFor(t, 2*time.Second, "watchdog to count the stall", func() bool { return d.Stats().Stalls == 1 })

	dstatsBefore := d.Stats()
	if dstatsBefore.Rotations != 0 {
		t.Fatalf("rotation completed despite blocked OnPass: %+v", dstatsBefore)
	}
	if !d.LastPass().IsZero() {
		t.Fatal("LastPass set before any pass finished")
	}
	passesBefore := e.Stats().ScrubPasses

	// The out-of-band targeted scrub, as the storm controller issues it.
	if _, err := e.ScrubRegion(0, 0); err != nil {
		t.Fatalf("ScrubRegion during stalled rotation: %v", err)
	}

	stats := e.Stats()
	if stats.TargetedScrubs != 1 {
		t.Fatalf("TargetedScrubs = %d, want 1", stats.TargetedScrubs)
	}
	if stats.ScrubPasses != passesBefore {
		t.Fatalf("targeted scrub counted as a scrub pass: %d -> %d", passesBefore, stats.ScrubPasses)
	}
	if got := d.Stats(); got != dstatsBefore {
		t.Fatalf("daemon stats moved: %+v -> %+v", dstatsBefore, got)
	}
	if !d.LastPass().IsZero() {
		t.Fatal("targeted scrub reset the daemon's LastPass")
	}
	if !d.Stalled() {
		t.Fatal("targeted scrub fed the watchdog: stall no longer visible")
	}
}
