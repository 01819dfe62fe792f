package client

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"sudoku/internal/server/wire"
	"sudoku/internal/telemetry"
)

// HedgeOptions tunes hedged reads: after a latency-percentile delay, a
// second identical attempt races the first and the first answer wins.
// Hedging is restricted to idempotent ops (reads, health) — a write
// hedge could apply twice with an observable difference if another
// writer interleaves, so writes retry but never hedge.
type HedgeOptions struct {
	// Enabled arms hedging. Off by default: the hedged path allocates
	// (race context, channel, goroutines), so it is opt-in for callers
	// who want tail-latency cover and can spend the allocation.
	Enabled bool
	// Quantile of the local attempt-latency histogram at which the
	// hedge timer fires. Default 0.95.
	Quantile float64
	// MinSamples is the histogram warm-up before any hedge fires, so a
	// cold client doesn't hedge off noise. Default 64.
	MinSamples int
	// MinDelay/MaxDelay clamp the computed hedge delay. Defaults
	// 1ms / 250ms.
	MinDelay, MaxDelay time.Duration
	// BudgetFraction caps hedges at this fraction of total attempts,
	// so hedging cannot double load on a slow-for-everyone server.
	// Default 0.05.
	BudgetFraction float64
}

// ResilienceOptions is the client's retry/hedge/breaker policy. A nil
// Options.Resilience keeps the legacy single-shot behavior; a zero
// ResilienceOptions (or DefaultResilience()) enables retries with
// jittered exponential backoff and the per-endpoint circuit breaker,
// with hedging off.
type ResilienceOptions struct {
	// MaxAttempts bounds tries per operation (first attempt included).
	// Default 4.
	MaxAttempts int
	// BaseBackoff is the first retry's backoff ceiling; attempt n draws
	// uniformly from [0, min(BaseBackoff<<(n-1), MaxBackoff)] (full
	// jitter), then sleeps max(draw, server Retry-After hint). Defaults
	// 25ms / 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// AttemptTimeout bounds each attempt; OpTimeout bounds the whole
	// operation including backoff sleeps. Zero (the default) means
	// unbounded — and keeps the success path allocation-free, since
	// either bound costs a derived context per call.
	AttemptTimeout time.Duration
	OpTimeout      time.Duration
	// Seed fixes the jitter stream for deterministic tests. Zero seeds
	// from the wall clock at New.
	Seed uint64

	Hedge   HedgeOptions
	Breaker BreakerOptions
}

// DefaultResilience is the recommended production policy: 4 attempts,
// 25ms..2s full-jitter backoff, breaker on, hedging off.
func DefaultResilience() *ResilienceOptions { return &ResilienceOptions{} }

func (o *ResilienceOptions) withDefaults() ResilienceOptions {
	r := *o
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 4
	}
	if r.BaseBackoff <= 0 {
		r.BaseBackoff = 25 * time.Millisecond
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 2 * time.Second
	}
	if r.Hedge.Quantile <= 0 || r.Hedge.Quantile >= 1 {
		r.Hedge.Quantile = 0.95
	}
	if r.Hedge.MinSamples <= 0 {
		r.Hedge.MinSamples = 64
	}
	if r.Hedge.MinDelay <= 0 {
		r.Hedge.MinDelay = time.Millisecond
	}
	if r.Hedge.MaxDelay <= 0 {
		r.Hedge.MaxDelay = 250 * time.Millisecond
	}
	if r.Hedge.BudgetFraction <= 0 {
		r.Hedge.BudgetFraction = 0.05
	}
	r.Breaker = r.Breaker.withDefaults()
	return r
}

// Op classes: each gets its own breaker and metrics label, so a
// stalling batch path cannot open the read breaker.
const numOpClasses = 5

var opNames = [numOpClasses]string{"read", "write", "read_batch", "write_batch", "health"}

func opIdx(op uint8) int {
	switch op {
	case wire.OpRead:
		return 0
	case wire.OpWrite:
		return 1
	case wire.OpReadBatch:
		return 2
	case wire.OpWriteBatch:
		return 3
	default:
		return 4 // OpHealth and anything future
	}
}

func hedgeable(op uint8) bool {
	switch op {
	case wire.OpRead, wire.OpReadBatch, wire.OpHealth:
		return true
	}
	return false
}

// policy is the resilience engine: one per Client, shared by all ops.
// The attempt function is a stored field — not a per-call closure — so
// the default success path (no retry, no hedge, no timeouts) performs
// zero heap allocations; BenchmarkClientReadNoFault gates that in CI.
type policy struct {
	opts    ResilienceOptions
	attempt func(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error)
	// evict nudges the transport's idle-connection pool (the Client
	// wires it to http.Client.CloseIdleConnections). Called when an
	// attempt times out with the caller still live: the connection the
	// attempt hung on is likely dead (blackholed, half-open TCP), and
	// its cancellation closes it, but the idle connections pooled
	// beside it likely sit behind the same blackhole; without eviction
	// every retry would pick one of them up and hang again until the
	// caller's own deadline fires.
	evict func()

	// now/sleep are swappable for fake-clock tests. sleep must honor
	// ctx and return its error when interrupted.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error

	breakers [numOpClasses]breaker

	attempts         telemetry.Counter
	retriesShed      telemetry.Counter
	retriesTransport telemetry.Counter
	hedges           telemetry.Counter
	hedgeWins        telemetry.Counter
	breakerRejects   telemetry.Counter

	// lat feeds the hedge-delay estimate: successful attempt latency,
	// all hedgeable ops pooled. cachedDelayNs refreshes from a
	// histogram snapshot every 256 hedge evaluations, so the hot path
	// reads one atomic instead of walking buckets.
	lat           telemetry.Histogram
	hedgeEvals    atomic.Uint64
	cachedDelayNs atomic.Int64

	rngState atomic.Uint64
}

func newPolicy(opts ResilienceOptions) *policy {
	p := &policy{
		opts:  opts.withDefaults(),
		now:   time.Now,
		sleep: sleepCtx,
	}
	seed := p.opts.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	p.rngState.Store(seed)
	return p
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// rand64 is an atomic splitmix64 step — a lock-free jitter source
// shared by every goroutine using this client.
func (p *policy) rand64() uint64 {
	x := p.rngState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoff draws the full-jitter sleep before retry #attempt.
func (p *policy) backoff(attempt int) time.Duration {
	ceil := p.opts.MaxBackoff
	if attempt < 62 {
		if c := p.opts.BaseBackoff << uint(attempt-1); c > 0 && c < ceil {
			ceil = c
		}
	}
	return time.Duration(p.rand64() % uint64(ceil))
}

// classifyRetry sorts an attempt error into retryable-with-hint or
// terminal. Sheds and breaker rejections carry a Retry-After hint (the
// server's storm schedule, or the breaker's cooldown remainder);
// transport failures retry on backoff alone. Everything else —
// structural rejections, per-item batch failures, context expiry — is
// terminal: the same request would fail the same way, or the caller
// has given up. (An AttemptTimeout expiry never reaches here raw:
// typeAttemptExpiry retypes it as a *TransportError while the caller
// is still live, so only a genuine caller deadline is terminal.)
func classifyRetry(err error) (retry bool, hint time.Duration) {
	switch e := err.(type) {
	case *ShedError:
		return true, e.RetryAfter
	case *TransportError:
		return true, 0
	case *BreakerOpenError:
		return true, e.RetryAfter
	}
	return false, 0
}

// run executes one operation under the policy: breaker gate, attempt
// (possibly hedged), classify, backoff, repeat. On success it returns
// the response unwrapped; on final failure it returns an *OpError
// wrapping the last cause, so errors.As still reaches the last
// *ShedError (and its RetryAfter) after the budget is spent.
func (p *policy) run(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
	idx := opIdx(op)
	if p.opts.OpTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.opts.OpTimeout)
		defer cancel()
	}
	hedged := false
	for attempt := 1; ; attempt++ {
		var resp *wire.Response
		var err error
		allowed, token := true, uint64(0)
		if !p.opts.Breaker.Disabled {
			allowed, token = p.breakers[idx].allow(p.now().UnixNano(), &p.opts.Breaker)
		}
		if !allowed {
			p.breakerRejects.Inc()
			err = &BreakerOpenError{
				Op:         opNames[idx],
				RetryAfter: p.breakers[idx].retryAfter(p.now().UnixNano(), &p.opts.Breaker),
			}
		} else {
			p.attempts.Inc()
			var didHedge bool
			resp, didHedge, err = p.attemptOnce(ctx, op, req)
			hedged = hedged || didHedge
			p.record(ctx, idx, token, err)
		}
		if err == nil {
			return resp, nil
		}
		retry, hint := classifyRetry(err)
		if !retry || attempt >= p.opts.MaxAttempts {
			return nil, &OpError{Op: opNames[idx], Attempts: attempt, Hedged: hedged, Err: err}
		}
		switch err.(type) {
		case *ShedError:
			p.retriesShed.Inc()
		case *TransportError:
			p.retriesTransport.Inc()
		}
		d := p.backoff(attempt)
		if hint > d {
			d = hint
		}
		if serr := p.sleep(ctx, d); serr != nil {
			// Out of time mid-backoff: surface the last cause, not the
			// bare context error — the caller wants to know why the
			// final attempt failed (e.g. the server's Retry-After).
			return nil, &OpError{Op: opNames[idx], Attempts: attempt, Hedged: hedged, Err: err}
		}
	}
}

// record feeds the breaker. Only transport failures count against it,
// and only when the caller's context is still live — a hedge loser or
// a caller-canceled request must not poison the breaker. A shed or
// structural rejection means the server answered: transport healthy.
// token is the half-open probe token from allow (zero when the
// attempt was admitted closed); an attempt whose outcome must not
// count still releases its probe slot, or a burst of cancellations
// could drain the half-open admission budget and wedge the breaker.
func (p *policy) record(ctx context.Context, idx int, token uint64, err error) {
	if p.opts.Breaker.Disabled {
		return
	}
	if err == nil {
		// Fast path kept ahead of the errors.As target: &te escapes,
		// so declaring it before this return would cost an allocation
		// on every fault-free call.
		p.breakers[idx].onSuccess(token, &p.opts.Breaker)
		return
	}
	var te *TransportError
	switch {
	case errors.As(err, &te):
		if ctx.Err() == nil {
			p.breakers[idx].onFailure(p.now().UnixNano(), token, &p.opts.Breaker)
		} else {
			p.breakers[idx].release(token)
		}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The caller gave up mid-attempt: no evidence either way.
		p.breakers[idx].release(token)
	default:
		// Shed, structural, per-item: the server answered.
		p.breakers[idx].onSuccess(token, &p.opts.Breaker)
	}
}

// attemptOnce runs one attempt, hedged when armed. It reports whether
// a hedge actually launched.
func (p *policy) attemptOnce(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, bool, error) {
	hedge := p.opts.Hedge.Enabled && hedgeable(op)
	var delay time.Duration
	if hedge {
		var ok bool
		delay, ok = p.hedgeDelay()
		hedge = ok && p.hedgeBudgetOK()
	}
	parent := ctx
	if p.opts.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.opts.AttemptTimeout)
		defer cancel()
	}
	start := p.now()
	var resp *wire.Response
	var launched bool
	var err error
	if !hedge {
		resp, err = p.attempt(ctx, op, req)
	} else {
		resp, launched, err = p.hedgedAttempt(ctx, op, req, delay)
	}
	if err == nil {
		p.lat.ObserveNs(p.now().Sub(start).Nanoseconds())
		return resp, launched, nil
	}
	return nil, launched, p.typeAttemptExpiry(parent, err)
}

// typeAttemptExpiry converts an attempt-deadline expiry into a
// retryable fault. The single-attempt path returns the raw context
// error on expiry so a caller's own deadline stays terminal — but
// when the parent context is still live, the deadline that fired was
// AttemptTimeout's, and the raw error would be misread downstream:
// terminal to the retry loop and neutral to the breaker. A hung or
// blackholed connection is exactly the transport fault the
// per-attempt deadline exists to recover from, so it is typed as one,
// and the connection pool is nudged so the retry dials fresh instead
// of picking up an idle connection behind the same blackhole.
func (p *policy) typeAttemptExpiry(parent context.Context, err error) error {
	if p.opts.AttemptTimeout <= 0 || parent.Err() != nil || !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	var te *TransportError
	if errors.As(err, &te) {
		return err // already typed by the transport layer
	}
	if p.evict != nil {
		p.evict()
	}
	return &TransportError{Detail: "attempt timed out", Err: err}
}

// hedgeDelay returns the armed hedge delay, refreshing the cached
// percentile every 256 evaluations. Not ready until MinSamples
// successful attempts have been observed.
func (p *policy) hedgeDelay() (time.Duration, bool) {
	n := p.hedgeEvals.Add(1)
	if n&0xFF == 1 || p.cachedDelayNs.Load() == 0 {
		snap := p.lat.Snapshot()
		if snap.Count < int64(p.opts.Hedge.MinSamples) {
			return 0, false
		}
		d := snap.Quantile(p.opts.Hedge.Quantile)
		if d < p.opts.Hedge.MinDelay {
			d = p.opts.Hedge.MinDelay
		}
		if d > p.opts.Hedge.MaxDelay {
			d = p.opts.Hedge.MaxDelay
		}
		p.cachedDelayNs.Store(d.Nanoseconds())
	}
	d := p.cachedDelayNs.Load()
	if d <= 0 {
		return 0, false
	}
	return time.Duration(d), true
}

func (p *policy) hedgeBudgetOK() bool {
	return float64(p.hedges.Value()) < p.opts.Hedge.BudgetFraction*float64(p.attempts.Value())
}

// hedgedAttempt races the primary attempt against a delayed hedge on a
// shared cancelable context: the first success cancels the loser. If
// the primary fails before the hedge timer fires, it returns
// immediately — the outer retry loop owns backoff, not the hedge
// lane. When both lanes fail, the primary's error wins (the hedge
// loser was likely canceled noise).
func (p *policy) hedgedAttempt(ctx context.Context, op uint8, req *wire.Request, delay time.Duration) (*wire.Response, bool, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type laneResult struct {
		resp *wire.Response
		err  error
		lane int
	}
	ch := make(chan laneResult, 2)
	go func() {
		r, e := p.attempt(rctx, op, req)
		ch <- laneResult{r, e, 0}
	}()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	launched := 1
	var errs [2]error
	done := 0
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				if r.lane == 1 {
					p.hedgeWins.Inc()
				}
				return r.resp, launched > 1, nil
			}
			errs[r.lane] = r.err
			done++
			if done == launched {
				err := errs[0]
				if err == nil {
					err = errs[1]
				}
				return nil, launched > 1, err
			}
		case <-timer.C:
			if launched == 1 {
				launched = 2
				p.hedges.Inc()
				p.attempts.Inc()
				go func() {
					r, e := p.attempt(rctx, op, req)
					ch <- laneResult{r, e, 1}
				}()
			}
		case <-ctx.Done():
			return nil, launched > 1, ctx.Err()
		}
	}
}
