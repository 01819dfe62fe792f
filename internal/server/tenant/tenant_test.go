package tenant

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestRegistryPacksWindows(t *testing.T) {
	r, err := NewRegistry(1024, []Config{
		{Name: "a", Lines: 256},
		{Name: "b", Lines: 512, Priority: High},
		{Name: "c", Lines: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := r.Lookup("a")
	b, _ := r.Lookup("b")
	c, _ := r.Lookup("c")
	if a.BaseLine() != 0 || b.BaseLine() != 256 || c.BaseLine() != 768 {
		t.Fatalf("bases: a=%d b=%d c=%d", a.BaseLine(), b.BaseLine(), c.BaseLine())
	}
	if lo, hi := b.Window(); lo != 256*64 || hi != 768*64 {
		t.Fatalf("b window [%d,%d)", lo, hi)
	}
	if b.Priority() != High {
		t.Fatal("b priority lost")
	}
	if _, err := r.Lookup("nope"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("lookup nope: %v", err)
	}
}

func TestRegistryRejectsOversubscription(t *testing.T) {
	if _, err := NewRegistry(100, []Config{{Name: "a", Lines: 64}, {Name: "b", Lines: 64}}); err == nil {
		t.Fatal("oversubscription accepted")
	}
	if _, err := NewRegistry(100, []Config{{Name: "a", Lines: 10}, {Name: "a", Lines: 10}}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := NewRegistry(100, []Config{{Name: "", Lines: 10}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewRegistry(100, []Config{{Name: "z", Lines: 0}}); err == nil {
		t.Fatal("zero-line namespace accepted")
	}
}

func TestMapAddrBounds(t *testing.T) {
	r, err := NewRegistry(512, []Config{{Name: "pad", Lines: 128}, {Name: "t", Lines: 256}})
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := r.Lookup("t")
	got, err := tn.MapAddr(64)
	if err != nil || got != 128*64+64 {
		t.Fatalf("MapAddr(64) = %d, %v", got, err)
	}
	if _, err := tn.MapAddr(63); !errors.Is(err, ErrBounds) {
		t.Fatalf("unaligned accepted: %v", err)
	}
	if _, err := tn.MapAddr(256 * 64); !errors.Is(err, ErrBounds) {
		t.Fatalf("one-past-end accepted: %v", err)
	}
	// Round trip through the engine space.
	if back, ok := tn.UnmapAddr(got); !ok || back != 64 {
		t.Fatalf("UnmapAddr(%d) = %d, %v", got, back, ok)
	}
	if _, ok := tn.UnmapAddr(0); ok {
		t.Fatal("neighbor tenant's address unmapped as ours")
	}
}

func TestTimeoutScalesWithBatchSize(t *testing.T) {
	r, _ := NewRegistry(64, []Config{{
		Name: "t", Lines: 64,
		BaseTimeout: 5 * time.Second, PerItemTimeout: 50 * time.Millisecond,
	}})
	tn, _ := r.Lookup("t")
	// The discipline of the note-store sync client: small syncs get a
	// tight budget, bulk syncs earn proportionally more.
	cases := []struct {
		items int
		want  time.Duration
	}{
		{1, 5*time.Second + 50*time.Millisecond},
		{5, 5*time.Second + 250*time.Millisecond},
		{500, 30 * time.Second},
		{2000, 105 * time.Second},
	}
	for _, tc := range cases {
		if got := tn.Timeout(tc.items); got != tc.want {
			t.Errorf("Timeout(%d) = %v, want %v", tc.items, got, tc.want)
		}
	}
	// Zero-valued config falls back to defaults rather than a zero deadline.
	r2, _ := NewRegistry(64, []Config{{Name: "d", Lines: 64}})
	d, _ := r2.Lookup("d")
	if got := d.Timeout(10); got != DefaultBaseTimeout+10*DefaultPerItemTimeout {
		t.Errorf("default Timeout(10) = %v", got)
	}
}

func TestTokenBucket(t *testing.T) {
	r, _ := NewRegistry(64, []Config{{Name: "t", Lines: 64, RateOps: 1000, Burst: 10}})
	tn, _ := r.Lookup("t")
	// Pin the clock so refill is deterministic.
	clock := time.Unix(1000, 0)
	tn.now = func() time.Time { return clock }
	tn.bucket.last = clock
	tn.bucket.tokens = 10

	if err := tn.TakeTokens(10); err != nil {
		t.Fatal(err)
	}
	err := tn.TakeTokens(5)
	var re *RateError
	if !errors.As(err, &re) || !errors.Is(err, ErrRateLimited) {
		t.Fatalf("drained bucket: err=%v", err)
	}
	if re.RetryAfter <= 0 || re.RetryAfter > 5*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want (0, 5ms] for a 5-op deficit at 1000 ops/s", re.RetryAfter)
	}
	// Advance 5ms: 5 tokens refill, the charge now fits.
	clock = clock.Add(5 * time.Millisecond)
	if err := tn.TakeTokens(5); err != nil {
		t.Fatal(err)
	}
	// Refill caps at Burst: an hour later only 10 tokens are there.
	clock = clock.Add(time.Hour)
	if err := tn.TakeTokens(11); err == nil {
		t.Fatal("burst cap not enforced")
	}
	if err := tn.TakeTokens(10); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireSyncContextCancel(t *testing.T) {
	r, _ := NewRegistry(64, []Config{{Name: "t", Lines: 64, MinDelay: time.Hour}})
	tn, _ := r.Lookup("t")
	rel, err := tn.AcquireSync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()
	// Second sync inside the hour-long min delay: a short context must
	// abort the wait, not sit in it.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	rel2, err := tn.AcquireSync(ctx)
	rel2()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("cancel took %v", waited)
	}
	// The session must be usable afterwards (not left locked).
	tn.session.lastDone = time.Time{} // forget the delay for this check
	rel3, err := tn.AcquireSync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel3()
}

// TestAcquireSyncCancelWhileHeld: a waiter whose context expires while
// another sync holds the session returns the context error and leaves
// no goroutine behind, and the session is free the moment the holder
// releases it.
func TestAcquireSyncCancelWhileHeld(t *testing.T) {
	r, _ := NewRegistry(64, []Config{{Name: "t", Lines: 64}})
	tn, _ := r.Lookup("t")
	rel, err := tn.AcquireSync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rel2, err := tn.AcquireSync(ctx)
	rel2()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// The context's timer goroutine may still be exiting; anything the
	// acquire started would stay blocked until the holder releases.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the cancelled wait, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	rel()
	if n := len(tn.session.slot); n != 0 {
		t.Fatalf("session still held after its only holder released (%d tokens)", n)
	}
	rel3, err := tn.AcquireSync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel3()
}
