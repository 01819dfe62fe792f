package sudoku

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// defeatCacheX plants two double-bit faults in one Hash-1 group of the
// single-lock engine (smallConfig geometry: 2048 sets, group 0 spans
// sets 0..7).
func defeatCacheX(t *testing.T, c *Concurrent, addrA, addrB uint64) {
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

// TestDirtyDUEPropagatesThroughCache: the error contract at the facade
// on the single-lock engine — a dirty-line DUE surfaces as
// ErrUncorrectable from Read and lands in Health.
func TestDirtyDUEPropagatesThroughCache(t *testing.T) {
	c, err := NewConcurrent(singleLock(smallConfig(SuDokuX)))
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x61}, 64)
	for _, a := range []uint64{0, 64} {
		if err := c.Write(a, data); err != nil {
			t.Fatal(err)
		}
	}
	defeatCacheX(t, c, 0, 64)
	if _, err := c.Read(0); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("Read = %v, want ErrUncorrectable", err)
	}
	h := c.Health()
	if h.Counts.DUEDataLoss == 0 {
		t.Fatalf("health census: %+v", h.Counts)
	}
	if len(h.Events) == 0 {
		t.Fatal("health has no events")
	}
}

// TestCleanDUERecoveredThroughCache: a clean line's DUE is invisible to
// the facade caller — the read succeeds via backing-memory refetch and
// only Health shows it happened.
func TestCleanDUERecoveredThroughCache(t *testing.T) {
	c, err := NewConcurrent(singleLock(smallConfig(SuDokuX)))
	if err != nil {
		t.Fatal(err)
	}
	const setStride = 2048 * 64
	data := bytes.Repeat([]byte{0x62}, 64)
	if err := c.Write(0, data); err != nil {
		t.Fatal(err)
	}
	// Evict (write back) and refill clean.
	for tag := uint64(1); tag <= 8; tag++ {
		if _, err := c.Read(tag * setStride); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Read(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(64); err != nil {
		t.Fatal(err)
	}
	defeatCacheX(t, c, 0, 64)
	got, err := c.Read(0)
	if err != nil {
		t.Fatalf("clean DUE leaked to caller: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("recovered data wrong")
	}
	if h := c.Health(); h.Counts.DUERecovered == 0 {
		t.Fatalf("health census: %+v", h.Counts)
	}
}

// TestDirtyDUEPropagatesThroughConcurrent: the same contract through
// the sharded engine — STTRAM → shard.Engine → Concurrent.
func TestDirtyDUEPropagatesThroughConcurrent(t *testing.T) {
	c, err := NewConcurrent(smallConfig(SuDokuX))
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 (32 shards, 512 lines/shard, sub group size 16): global
	// lines 0 and 32 are that shard's sub-lines 0 and 1, in sub-sets 0
	// and 1 — both inside shard-local Hash-1 group 0.
	addrA, addrB := uint64(0), uint64(32*64)
	data := bytes.Repeat([]byte{0x63}, 64)
	for _, a := range []uint64{addrA, addrB} {
		if err := c.Write(a, data); err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{10, 20} {
			if err := c.InjectFault(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.Read(addrA); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("Read = %v, want ErrUncorrectable", err)
	}
	h := c.Health()
	if h.Counts.DUEDataLoss == 0 {
		t.Fatalf("health census: %+v", h.Counts)
	}
	for _, ev := range h.Events {
		if ev.Shard != 0 {
			t.Fatalf("event from shard %d, want 0: %v", ev.Shard, ev)
		}
	}
}

// TestReadIntoBufferUnspecifiedOnError pins the ReadInto contract: on
// error the destination contents are unspecified and must not be used;
// the buffer is fully valid again after the next successful call.
func TestReadIntoBufferUnspecifiedOnError(t *testing.T) {
	c, err := NewConcurrent(singleLock(smallConfig(SuDokuX)))
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x64}, 64)
	for _, a := range []uint64{0, 64} {
		if err := c.Write(a, data); err != nil {
			t.Fatal(err)
		}
	}
	good := bytes.Repeat([]byte{0x65}, 64)
	if err := c.Write(128, good); err != nil {
		t.Fatal(err)
	}
	defeatCacheX(t, c, 0, 64)
	buf := bytes.Repeat([]byte{0xee}, 64)
	if err := c.ReadInto(0, buf); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("ReadInto = %v, want ErrUncorrectable", err)
	}
	// buf is now unspecified — the only valid move is reuse. A
	// subsequent successful ReadInto must fully determine it.
	if err := c.ReadInto(128, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, good) {
		t.Fatal("buffer not fully rewritten after error")
	}

	cc, err := NewConcurrent(smallConfig(SuDokuX))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []uint64{0, 32 * 64} {
		if err := cc.Write(a, data); err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{10, 20} {
			if err := cc.InjectFault(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cc.ReadInto(0, buf); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("Concurrent.ReadInto = %v, want ErrUncorrectable", err)
	}
}

// TestConcurrentHealthLifecycle: RecordSDC, scrub-daemon visibility,
// and DrainScrubContext deadlines through the public API.
func TestConcurrentHealthLifecycle(t *testing.T) {
	cfg := smallConfig(SuDokuZ)
	cfg.RetireCEThreshold = 2
	cfg.SpareLines = 1
	cfg.QuarantineAuditPasses = 1
	c, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DrainScrubContext(context.Background()); !errors.Is(err, ErrScrubNotRunning) {
		t.Fatalf("DrainScrubContext without daemon = %v", err)
	}
	if h := c.Health(); h.ScrubRunning || h.SparesFree != c.Shards() {
		t.Fatalf("initial health: %+v", h)
	}
	c.RecordSDC(4096, "shadow mismatch (test)")
	h := c.Health()
	if h.Counts.SDC != 1 {
		t.Fatalf("SDC census: %+v", h.Counts)
	}
	if len(h.Events) == 0 || h.Events[len(h.Events)-1].Addr != 4096 {
		t.Fatal("SDC event missing or mislabeled")
	}
	if err := c.StartScrub(ScrubDaemonConfig{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer c.StopScrub()
	if !c.Health().ScrubRunning {
		t.Fatal("health does not see the daemon")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.DrainScrubContext(ctx); err != nil {
		t.Fatal(err)
	}
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := c.DrainScrubContext(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired drain = %v", err)
	}
}

// TestConfigRejectsBadRASFields: facade-level validation of the new
// knobs.
func TestConfigRejectsBadRASFields(t *testing.T) {
	for i, mut := range []func(*Config){
		func(c *Config) { c.RetireCEThreshold = -1 },
		func(c *Config) { c.SpareLines = -2 },
		func(c *Config) { c.QuarantineAuditPasses = -3 },
	} {
		cfg := smallConfig(SuDokuZ)
		mut(&cfg)
		if _, err := NewConcurrent(singleLock(cfg)); err == nil {
			t.Fatalf("case %d: single-lock NewConcurrent accepted bad config", i)
		}
		if _, err := NewConcurrent(cfg); err == nil {
			t.Fatalf("case %d: NewConcurrent accepted bad config", i)
		}
	}
}
