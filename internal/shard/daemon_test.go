package shard

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sudoku/internal/core"
	"sudoku/internal/ras"
	"sudoku/internal/scrubber"
)

func seededEngine(t testing.TB) *Engine {
	t.Helper()
	e := mustEngine(t, testConfig(core.ProtectionZ))
	for i := 0; i < 512; i++ {
		if err := e.Write(uint64(i)*64, bytes.Repeat([]byte{byte(i)}, 64), nil); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestDaemonValidate(t *testing.T) {
	e := seededEngine(t)
	if _, err := NewScrubDaemon(nil, DaemonConfig{Interval: time.Millisecond}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewScrubDaemon(e, DaemonConfig{}); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := NewScrubDaemon(e, DaemonConfig{Interval: time.Millisecond, StormPerPass: -1}); err == nil {
		t.Fatal("negative storm accepted")
	}
}

func TestDaemonLifecycle(t *testing.T) {
	e := seededEngine(t)
	d, err := NewScrubDaemon(e, DaemonConfig{Interval: 5 * time.Millisecond, StormPerPass: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("Stop before Start: %v", err)
	}
	if err := d.Drain(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("Drain before Start: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); !errors.Is(err, ErrAlreadyRunning) {
		t.Fatalf("double Start: %v", err)
	}
	if !d.Running() {
		t.Fatal("not running after Start")
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Rotations < 1 || st.ShardPasses < e.Shards() {
		t.Fatalf("after drain: %+v", st)
	}
	if st.Scrub.Passes != st.ShardPasses {
		t.Fatalf("scrub accounting diverges: %+v", st)
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	if d.Running() {
		t.Fatal("running after Stop")
	}
	// Restartable.
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonDrainSeesFaults: faults injected before Drain must be
// repaired by the time Drain returns (the rotation that covers the
// drain target scrubs every shard after the call).
func TestDaemonDrainSeesFaults(t *testing.T) {
	e := seededEngine(t)
	d, err := NewScrubDaemon(e, DaemonConfig{Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if err := e.InjectRandomFaults(99, 40); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	// Post-drain, a synchronous pass finds nothing left to repair.
	rep, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SingleRepairs+rep.SDRRepairs+rep.RAIDRepairs+rep.Hash2Repairs != 0 || len(rep.DUELines) != 0 {
		t.Fatalf("repairs left after drain: %+v", rep)
	}
}

// TestDaemonOnPassOrder checks passes walk shards 0..N-1 within each
// rotation.
func TestDaemonOnPassOrder(t *testing.T) {
	e := seededEngine(t)
	var mu sync.Mutex
	var passes []Pass
	d, err := NewScrubDaemon(e, DaemonConfig{
		Interval: time.Millisecond,
		OnPass: func(p Pass) {
			mu.Lock()
			passes = append(passes, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(passes) < e.Shards() {
		t.Fatalf("only %d passes", len(passes))
	}
	for i, p := range passes {
		if want := i % e.Shards(); p.Shard != want && p.Rotation == 1 {
			t.Fatalf("pass %d on shard %d, want %d", i, p.Shard, want)
		}
	}
}

// TestDaemonBackpressure: an interval far below the cost of a pass
// must register backpressure instead of sleeping.
func TestDaemonBackpressure(t *testing.T) {
	e := seededEngine(t)
	d, err := NewScrubDaemon(e, DaemonConfig{
		Interval:     time.Nanosecond, // per-shard slot rounds to zero
		StormPerPass: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Backpressure == 0 {
		t.Fatalf("no backpressure under an impossible interval: %+v", st)
	}
}

// panicPolicy panics exactly once, then behaves as a fixed policy.
type panicPolicy struct {
	fired atomic.Bool
}

func (p *panicPolicy) NextInterval(_ scrubber.Pass, current time.Duration) time.Duration {
	if p.fired.CompareAndSwap(false, true) {
		panic("synthetic policy failure")
	}
	return current
}

// TestDaemonSurvivesPolicyPanic: a panicking Policy abandons its
// rotation but the daemon restarts, later rotations complete with the
// policy still consulted, and the panic is on the RAS record.
func TestDaemonSurvivesPolicyPanic(t *testing.T) {
	e := seededEngine(t)
	pol := &panicPolicy{}
	d, err := NewScrubDaemon(e, DaemonConfig{
		Interval: 2 * time.Millisecond,
		Policy:   pol,
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
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Panics < 1 {
		t.Fatalf("policy panic not counted: %+v", st)
	}
	if st.Rotations < 1 {
		t.Fatalf("no rotations completed after panic: %+v", st)
	}
	if e.Events().Count(ras.KindDaemonPanic) < 1 {
		t.Fatal("no daemon-panic event")
	}
	found := false
	for _, ev := range e.Events().Snapshot() {
		if ev.Kind == ras.KindDaemonPanic && strings.Contains(ev.Detail, "synthetic policy failure") {
			found = true
		}
	}
	if !found {
		t.Fatal("panic event lost its payload")
	}
}

// TestDaemonPolicy: the adaptive ladder reacts to rotation outcomes —
// under heavy storms the interval shrinks from the configured one.
func TestDaemonPolicy(t *testing.T) {
	e := seededEngine(t)
	pol, err := scrubber.NewAdaptivePolicy(time.Millisecond, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewScrubDaemon(e, DaemonConfig{
		Interval:     64 * time.Millisecond,
		Policy:       pol,
		StormPerPass: 30, // multi-bit collisions virtually certain per rotation
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Interval >= 64*time.Millisecond {
		t.Fatalf("interval did not shrink under fault pressure: %+v", st)
	}
}
