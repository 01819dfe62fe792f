// Package tenant gives each sudoku-cached client an isolated slice of
// the shared engine plus the access discipline that keeps one noisy
// client from starving the rest: a base+limit address window, a
// token-bucket op-rate limit, a minimum delay between consecutive
// batch syncs, and per-request timeouts that scale with batch size.
//
// The sync discipline follows the session model of synchronizing
// note-store clients: a session admits one sync at a time (concurrent
// syncs on one session serialize on the session lock rather than
// interleaving), consecutive syncs are separated by a configurable
// minimum delay, and a sync's deadline grows with the number of items
// it carries — a 5-item sync and a 500-item sync get very different
// budgets instead of one global timeout that is either too tight for
// bulk or too loose for interactive traffic.
package tenant

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// LineBytes is the engine's line size; tenant windows and addresses
// are expressed in it.
const LineBytes = 64

// Priority orders tenants for admission-control shedding: Low traffic
// is shed first when the engine enters a fault storm.
type Priority uint8

const (
	Low Priority = iota
	High
)

func (p Priority) String() string {
	if p == High {
		return "high"
	}
	return "low"
}

// Config describes one tenant.
type Config struct {
	// Name keys the tenant on the wire. Must be non-empty, ≤255
	// bytes (the binary codec's limit), and unique.
	Name string
	// Lines is the tenant's namespace size in cache lines. The
	// registry packs windows back to back and rejects oversubscription.
	Lines uint64
	// Priority picks the shedding class. Default Low.
	Priority Priority
	// RateOps is the token-bucket refill rate in ops/second; an
	// N-item batch costs N tokens. Zero disables rate limiting.
	RateOps float64
	// Burst is the bucket capacity. Defaults to RateOps (one second
	// of burst) when zero.
	Burst float64
	// MinDelay is the minimum spacing between consecutive syncs on
	// this tenant's session; an acquire that arrives early waits out
	// the remainder (or its context). Zero disables.
	MinDelay time.Duration
	// BaseTimeout and PerItemTimeout build a request's deadline:
	// BaseTimeout + items×PerItemTimeout. Defaults: 5s base, 50ms
	// per item.
	BaseTimeout    time.Duration
	PerItemTimeout time.Duration
}

// Defaults for Config timeout fields.
const (
	DefaultBaseTimeout    = 5 * time.Second
	DefaultPerItemTimeout = 50 * time.Millisecond
)

var (
	// ErrRateLimited is wrapped by rejections carrying a retry hint;
	// use RetryAfter to extract it.
	ErrRateLimited = errors.New("tenant: rate limit exceeded")
	ErrBounds      = errors.New("tenant: address outside namespace")
	ErrUnknown     = errors.New("tenant: unknown tenant")
)

// RateError is an ErrRateLimited with the bucket's refill hint.
type RateError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *RateError) Error() string {
	return fmt.Sprintf("tenant %s: rate limit exceeded, retry after %v", e.Tenant, e.RetryAfter)
}

func (e *RateError) Unwrap() error { return ErrRateLimited }

// Tenant is one registered client namespace plus its admission state.
type Tenant struct {
	cfg  Config
	base uint64 // first engine line of the window

	// session serializes syncs and carries the min-delay clock. A sync
	// holds the session while its token sits in the one-slot channel;
	// lastDone is written only by the holder.
	session struct {
		slot     chan struct{}
		lastDone time.Time
	}

	bucket struct {
		sync.Mutex
		tokens float64
		last   time.Time
	}

	now func() time.Time // injectable for tests
}

// Name returns the tenant's wire name.
func (t *Tenant) Name() string { return t.cfg.Name }

// Priority returns the tenant's shedding class.
func (t *Tenant) Priority() Priority { return t.cfg.Priority }

// Lines returns the namespace size in lines.
func (t *Tenant) Lines() uint64 { return t.cfg.Lines }

// BaseLine returns the first engine line of the tenant's window.
func (t *Tenant) BaseLine() uint64 { return t.base }

// Window returns the tenant's engine byte-address window [lo, hi).
func (t *Tenant) Window() (lo, hi uint64) {
	return t.base * LineBytes, (t.base + t.cfg.Lines) * LineBytes
}

// MapAddr translates a tenant-relative byte address into the engine
// address space, rejecting unaligned or out-of-window addresses.
func (t *Tenant) MapAddr(addr uint64) (uint64, error) {
	if addr%LineBytes != 0 {
		return 0, fmt.Errorf("%w: address %#x not line-aligned", ErrBounds, addr)
	}
	if addr/LineBytes >= t.cfg.Lines {
		return 0, fmt.Errorf("%w: address %#x beyond %d-line window", ErrBounds, addr, t.cfg.Lines)
	}
	return t.base*LineBytes + addr, nil
}

// UnmapAddr translates an engine byte address back into the tenant's
// namespace; ok reports whether it falls inside the window.
func (t *Tenant) UnmapAddr(engineAddr uint64) (addr uint64, ok bool) {
	lo, hi := t.Window()
	if engineAddr < lo || engineAddr >= hi {
		return 0, false
	}
	return engineAddr - lo, true
}

// Timeout is the deadline budget for a sync of n items:
// BaseTimeout + n×PerItemTimeout, so bulk syncs earn proportionally
// more time instead of borrowing from a global knob.
func (t *Tenant) Timeout(n int) time.Duration {
	base, per := t.cfg.BaseTimeout, t.cfg.PerItemTimeout
	if base <= 0 {
		base = DefaultBaseTimeout
	}
	if per <= 0 {
		per = DefaultPerItemTimeout
	}
	return base + time.Duration(n)*per
}

// TakeTokens charges n ops against the tenant's bucket. On rejection
// the returned error is a *RateError carrying how long until the
// bucket can cover the charge.
func (t *Tenant) TakeTokens(n int) error {
	if t.cfg.RateOps <= 0 || n <= 0 {
		return nil
	}
	burst := t.cfg.Burst
	if burst <= 0 {
		burst = t.cfg.RateOps
	}
	need := float64(n)
	t.bucket.Lock()
	defer t.bucket.Unlock()
	now := t.now()
	t.bucket.tokens += now.Sub(t.bucket.last).Seconds() * t.cfg.RateOps
	if t.bucket.tokens > burst {
		t.bucket.tokens = burst
	}
	t.bucket.last = now
	if t.bucket.tokens < need {
		deficit := need - t.bucket.tokens
		wait := time.Duration(deficit / t.cfg.RateOps * float64(time.Second))
		return &RateError{Tenant: t.cfg.Name, RetryAfter: wait}
	}
	t.bucket.tokens -= need
	return nil
}

// AcquireSync admits one sync on the tenant's session: it waits for
// the session lock (a concurrent sync holds it until done), then waits
// out any remaining MinDelay since the previous sync completed. The
// context bounds both waits. The returned release func marks the sync
// complete and must be called exactly once; release is safe to call
// even after ctx cancellation during the delay (the sync is then not
// admitted and release is a no-op).
func (t *Tenant) AcquireSync(ctx context.Context) (release func(), err error) {
	select {
	case t.session.slot <- struct{}{}:
	case <-ctx.Done():
		return func() {}, ctx.Err()
	}
	if d := t.cfg.MinDelay; d > 0 && !t.session.lastDone.IsZero() {
		remain := d - t.now().Sub(t.session.lastDone)
		if remain > 0 {
			timer := time.NewTimer(remain)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				<-t.session.slot
				return func() {}, ctx.Err()
			}
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			t.session.lastDone = t.now()
			<-t.session.slot
		})
	}, nil
}

// Registry maps tenant names to their namespaces over one engine.
type Registry struct {
	byName  map[string]*Tenant
	ordered []*Tenant
	lines   uint64 // engine capacity in lines
	used    uint64
}

// NewRegistry packs cfgs back to back into an engine of totalLines
// lines. Windows are allocated in config order; the sum of Lines must
// fit the engine.
func NewRegistry(totalLines uint64, cfgs []Config) (*Registry, error) {
	r := &Registry{byName: make(map[string]*Tenant, len(cfgs)), lines: totalLines}
	for _, cfg := range cfgs {
		if _, err := r.Add(cfg); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Add registers one tenant at the next free base line.
func (r *Registry) Add(cfg Config) (*Tenant, error) {
	if cfg.Name == "" || len(cfg.Name) > 255 {
		return nil, fmt.Errorf("tenant: name %q must be 1–255 bytes", cfg.Name)
	}
	if _, dup := r.byName[cfg.Name]; dup {
		return nil, fmt.Errorf("tenant: duplicate name %q", cfg.Name)
	}
	if cfg.Lines == 0 {
		return nil, fmt.Errorf("tenant %s: zero-line namespace", cfg.Name)
	}
	if r.used+cfg.Lines > r.lines {
		return nil, fmt.Errorf("tenant %s: %d lines oversubscribe engine (%d of %d used)",
			cfg.Name, cfg.Lines, r.used, r.lines)
	}
	t := &Tenant{cfg: cfg, base: r.used, now: time.Now}
	t.session.slot = make(chan struct{}, 1)
	t.bucket.tokens = cfg.Burst
	if t.bucket.tokens <= 0 {
		t.bucket.tokens = cfg.RateOps
	}
	t.bucket.last = time.Now()
	r.used += cfg.Lines
	r.byName[cfg.Name] = t
	r.ordered = append(r.ordered, t)
	return t, nil
}

// Lookup resolves a wire name.
func (r *Registry) Lookup(name string) (*Tenant, error) {
	t, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	return t, nil
}

// Tenants returns the tenants in registration (window) order.
func (r *Registry) Tenants() []*Tenant { return r.ordered }

// UsedLines returns the packed namespace total.
func (r *Registry) UsedLines() uint64 { return r.used }
