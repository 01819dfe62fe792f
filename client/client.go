// Package client is the Go client for sudoku-cached: it speaks the
// length-prefixed frame protocol (internal/server/wire) over HTTP/1.1
// keep-alive connections, one framed POST per request, each request on
// a pooled connection of its own. The stress swarm drives its load
// through this package, so the client is also the reference
// implementation of good citizenship: it surfaces shed responses as
// typed errors carrying the server's Retry-After so callers can back
// off instead of hammering a storm-mode engine.
//
// With Options.Resilience set, every operation runs under a
// policy-driven resilience layer: jittered exponential backoff that
// honors the server's Retry-After hints, per-attempt and end-to-end
// deadlines, optional hedged reads, and a per-endpoint circuit
// breaker. The layer guarantees typed errors — no raw net/io error
// escapes to callers (see Typed) — and stamps each framed request
// with the remaining context budget (wire.FlagDeadline) so the server
// can shed work that cannot finish in time.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sudoku/internal/server/wire"
)

// LineBytes is the server's cache-line size.
const LineBytes = 64

// Options configures a Client.
type Options struct {
	// Addr is the server's host:port. Required.
	Addr string
	// Codec picks the payload encoding for requests
	// (wire.CodecBinary by default; JSON aids debugging).
	Codec uint8
	// HTTPTimeout bounds each non-streaming request end to end.
	// Zero means no client-side bound (the server still applies its
	// batch-scaled deadline).
	HTTPTimeout time.Duration
	// NextTraceID overrides per-request trace-id generation (tests pin
	// ids with this). Default is an atomic counter seeded from the
	// wall clock at New, so ids are unique within a process and
	// distinct across restarts.
	NextTraceID func() uint64
	// Resilience enables the retry/hedge/breaker layer. Nil keeps the
	// legacy single-shot behavior (one attempt, typed errors only).
	// DefaultResilience() is the recommended production policy.
	Resilience *ResilienceOptions
}

// Client is safe for concurrent use; requests and event streams share
// one pool of HTTP/1.1 keep-alive connections, at most maxConns of them,
// each carrying one request at a time. Close cancels open event streams
// and releases idle connections; it is safe to call more than once.
type Client struct {
	base   string
	codec  uint8
	nextID func() uint64
	hc     *http.Client
	// evhc has no timeout: event streams are open-ended.
	evhc *http.Client

	// policy is the resilience engine, nil when Options.Resilience was
	// nil.
	policy *policy

	closed    atomic.Bool
	closeOnce sync.Once
	streamMu  sync.Mutex
	streams   map[*EventStream]struct{}
}

// ShedError is a server rejection from admission control, rate
// limiting, or degraded mode. RetryAfter is the server's backoff hint;
// TraceID is the request's trace id as echoed by the server, so a shed
// request can be found in the server's flight recorder.
type ShedError struct {
	Detail     string
	RetryAfter time.Duration
	TraceID    uint64
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("client: %s (retry after %v)", e.Detail, e.RetryAfter)
}

// Reason extracts the server's shed reason ("inflight", "storm",
// "rate", "deadline", "degraded", ...) from the detail the server
// renders as "shed: <reason>[: extra]". Empty when the detail doesn't
// carry one.
func (e *ShedError) Reason() string {
	const prefix = "shed: "
	d := e.Detail
	if len(d) < len(prefix) || d[:len(prefix)] != prefix {
		return ""
	}
	d = d[len(prefix):]
	for i := 0; i < len(d); i++ {
		if d[i] == ':' || d[i] == ' ' {
			return d[:i]
		}
	}
	return d
}

// ItemError reports per-item failures of a partial batch: Errs[i] is
// "" when item i succeeded. Read data for successful items is valid.
type ItemError struct {
	Errs []string
}

func (e *ItemError) Error() string {
	n := 0
	for _, s := range e.Errs {
		if s != "" {
			n++
		}
	}
	return fmt.Sprintf("client: %d of %d batch items failed", n, len(e.Errs))
}

// Health mirrors the server's OpHealth summary payload.
type Health struct {
	Storm              string  `json:"storm"`
	Degraded           bool    `json:"degraded"`
	DegradedReason     string  `json:"degraded_reason,omitempty"`
	ScrubRunning       bool    `json:"scrub_running"`
	ScrubStalled       bool    `json:"scrub_stalled"`
	RetiredLines       int     `json:"retired_lines"`
	QuarantinedRegions int     `json:"quarantined_regions"`
	EventsDropped      int64   `json:"events_dropped"`
	UptimeSeconds      float64 `json:"uptime_seconds"`
	Inflight           int64   `json:"inflight"`
}

// maxConns caps the client's connections to the server and the idle
// connections it keeps: one per request in flight, up to the server's
// default MaxInflight, beyond which the server sheds anyway. Keeping as
// many idle as may be busy is what lets a steady load reuse its
// connections instead of redialing.
const maxConns = 256

// New builds a client. The transport speaks cleartext HTTP/1.1 with
// keep-alive, which the daemon's listener accepts beside h2c; a
// request occupies its connection until the response body is read,
// so concurrent requests run on parallel connections rather than
// queueing behind one another on a multiplexed stream.
func New(opts Options) *Client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
	}
	nextID := opts.NextTraceID
	if nextID == nil {
		ctr := new(atomic.Uint64)
		ctr.Store(uint64(time.Now().UnixNano()))
		nextID = func() uint64 { return ctr.Add(1) }
	}
	c := &Client{
		base:    "http://" + opts.Addr,
		codec:   opts.Codec,
		nextID:  nextID,
		hc:      &http.Client{Transport: tr, Timeout: opts.HTTPTimeout},
		evhc:    &http.Client{Transport: tr},
		streams: make(map[*EventStream]struct{}),
	}
	if opts.Resilience != nil {
		c.policy = newPolicy(*opts.Resilience)
		c.policy.attempt = c.doOnce
		// An attempt that outlives AttemptTimeout likely hung on a dead
		// connection. Its cancellation closes that connection; the
		// pooled connections idle behind the same blackhole are
		// dropped here, so the retry dials fresh.
		c.policy.evict = c.hc.CloseIdleConnections
	}
	return c
}

// Close cancels all open event streams, releases idle connections, and
// fails subsequent operations with ErrClosed. Safe to call more than
// once; in-flight requests are not interrupted.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		c.streamMu.Lock()
		streams := make([]*EventStream, 0, len(c.streams))
		for s := range c.streams {
			streams = append(streams, s)
		}
		c.streams = nil
		c.streamMu.Unlock()
		for _, s := range streams {
			s.shutdown()
		}
		c.hc.CloseIdleConnections() // evhc shares the transport
	})
	return nil
}

// do routes one operation through the resilience policy when
// configured, or a single typed attempt otherwise.
func (c *Client) do(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if c.policy != nil {
		return c.policy.run(ctx, op, req)
	}
	return c.doOnce(ctx, op, req)
}

// doOnce sends one framed request and decodes the framed response —
// exactly one network attempt, every failure typed. When the context
// carries a deadline, the remaining budget is stamped onto the frame
// (wire.FlagDeadline, relative millis) so the server can shed work
// that cannot finish in time.
func (c *Client) doOnce(ctx context.Context, op uint8, req *wire.Request) (*wire.Response, error) {
	payload, err := wire.EncodeRequest(c.codec, req)
	if err != nil {
		return nil, &ProtocolError{Detail: "encoding request", Err: err}
	}
	id := c.nextID()
	h := wire.Header{
		Version: wire.Version, Codec: c.codec, Op: op,
		Flags: wire.FlagTrace, TraceID: id,
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1 // expired budgets still ship: the server sheds them with reason "deadline"
		}
		if ms > int64(^uint32(0)) {
			ms = int64(^uint32(0))
		}
		h.Flags |= wire.FlagDeadline
		h.DeadlineMillis = uint32(ms)
	}
	var body bytes.Buffer
	if err := wire.WriteFrame(&body, h, payload); err != nil {
		return nil, &ProtocolError{Detail: "framing request", Err: err}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/op", &body)
	if err != nil {
		return nil, &ProtocolError{Detail: "building request", Err: err}
	}
	hreq.Header.Set("Content-Type", "application/x-sudoku-frame")
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, &TransportError{Detail: "posting frame", Err: err}
	}
	defer hresp.Body.Close()
	rh, rp, err := wire.ReadFrame(hresp.Body)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, &TransportError{
			Detail: fmt.Sprintf("reading response frame (HTTP %d)", hresp.StatusCode), Err: err,
		}
	}
	// Only a body read to EOF returns its connection to the pool, and a
	// chunked response's last chunk can arrive after the frame's last
	// byte.
	_, _ = io.Copy(io.Discard, hresp.Body)
	resp, err := wire.DecodeResponse(rh.Codec, rp)
	if err != nil {
		// A payload that frames but doesn't decode is a damaged byte
		// stream (truncation, torn write), not a server rejection.
		return nil, &TransportError{Detail: "decoding response", Err: err}
	}
	// The server echoes the trace id on every response to a frame it
	// managed to parse; a mismatched echo means crossed frames. A
	// structural error keeps its own detail — the server may have
	// rejected the frame before it saw the id.
	if rh.Flags&wire.FlagTrace != 0 && rh.TraceID != id {
		return nil, &TransportError{
			Detail: fmt.Sprintf("trace id mismatch: sent %016x, echoed %016x", id, rh.TraceID),
		}
	}
	switch resp.Status {
	case wire.StatusShed:
		return nil, &ShedError{
			Detail:     resp.Detail,
			RetryAfter: time.Duration(resp.RetryAfterMillis) * time.Millisecond,
			TraceID:    rh.TraceID,
		}
	case wire.StatusError:
		return nil, &ProtocolError{
			Detail: fmt.Sprintf("server error (HTTP %d): %s", hresp.StatusCode, resp.Detail),
		}
	}
	if rh.Flags&wire.FlagTrace == 0 {
		return nil, &TransportError{
			Detail: fmt.Sprintf("response dropped trace context (sent %016x)", id),
		}
	}
	return resp, nil
}

// Read fetches one line.
func (c *Client) Read(ctx context.Context, tn string, addr uint64) ([]byte, error) {
	resp, err := c.do(ctx, wire.OpRead, &wire.Request{Tenant: tn, Addrs: []uint64{addr}})
	if err != nil {
		return nil, err
	}
	if resp.Status == wire.StatusPartial {
		return nil, &ItemError{Errs: resp.Errs}
	}
	if len(resp.Data) != LineBytes {
		return nil, &ProtocolError{Detail: fmt.Sprintf("read returned %d bytes", len(resp.Data))}
	}
	return resp.Data, nil
}

// Write stores one 64-byte line.
func (c *Client) Write(ctx context.Context, tn string, addr uint64, data []byte) error {
	resp, err := c.do(ctx, wire.OpWrite, &wire.Request{Tenant: tn, Addrs: []uint64{addr}, Data: data})
	if err != nil {
		return err
	}
	if resp.Status == wire.StatusPartial {
		return &ItemError{Errs: resp.Errs}
	}
	return nil
}

// ReadBatch fetches len(addrs) lines in one sync. On full success the
// returned buffer holds item i at [i*64:(i+1)*64] and err is nil; on a
// partial batch err is an *ItemError and successful items' data is
// still valid.
func (c *Client) ReadBatch(ctx context.Context, tn string, addrs []uint64) ([]byte, error) {
	resp, err := c.do(ctx, wire.OpReadBatch, &wire.Request{Tenant: tn, Addrs: addrs})
	if err != nil {
		return nil, err
	}
	if want := len(addrs) * LineBytes; len(resp.Data) != want {
		return nil, &ProtocolError{Detail: fmt.Sprintf("batch read returned %d bytes, want %d", len(resp.Data), want)}
	}
	if resp.Status == wire.StatusPartial {
		return resp.Data, &ItemError{Errs: resp.Errs}
	}
	return resp.Data, nil
}

// WriteBatch stores len(addrs) lines (item i at data[i*64:]) in one
// sync. A partial batch returns *ItemError.
func (c *Client) WriteBatch(ctx context.Context, tn string, addrs []uint64, data []byte) error {
	resp, err := c.do(ctx, wire.OpWriteBatch, &wire.Request{Tenant: tn, Addrs: addrs, Data: data})
	if err != nil {
		return err
	}
	if resp.Status == wire.StatusPartial {
		return &ItemError{Errs: resp.Errs}
	}
	return nil
}

// Health fetches the engine health summary (bypasses admission
// server-side, so it works on a saturated server).
func (c *Client) Health(ctx context.Context, tn string) (*Health, error) {
	resp, err := c.do(ctx, wire.OpHealth, &wire.Request{Tenant: tn})
	if err != nil {
		return nil, err
	}
	h := new(Health)
	if err := json.Unmarshal(resp.Data, h); err != nil {
		return nil, &ProtocolError{Detail: "health payload", Err: err}
	}
	return h, nil
}

// EventStream is one open tenant tap. Next blocks for the next event;
// Close tears the stream down (a pending Next returns an error).
// Client.Close closes every open stream.
type EventStream struct {
	body   io.ReadCloser
	cancel context.CancelFunc
	c      *Client
	once   sync.Once
}

// Events opens the tenant's RAS tap. The stream stays open until
// Close (its own or the Client's), ctx cancellation, or server
// shutdown.
func (c *Client) Events(ctx context.Context, tn string) (*EventStream, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	// The stream gets its own cancel so Client.Close can sever it even
	// when the caller's ctx is long-lived.
	sctx, cancel := context.WithCancel(ctx)
	hreq, err := http.NewRequestWithContext(sctx, http.MethodGet, c.base+"/v1/events?tenant="+tn, nil)
	if err != nil {
		cancel()
		return nil, &ProtocolError{Detail: "building events request", Err: err}
	}
	hresp, err := c.evhc.Do(hreq)
	if err != nil {
		cancel()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, &TransportError{Detail: "opening events stream", Err: err}
	}
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		hresp.Body.Close()
		cancel()
		return nil, &ProtocolError{Detail: fmt.Sprintf("events stream: HTTP %d: %s", hresp.StatusCode, bytes.TrimSpace(msg))}
	}
	s := &EventStream{body: hresp.Body, cancel: cancel, c: c}
	c.streamMu.Lock()
	if c.closed.Load() { // lost the race with Close
		c.streamMu.Unlock()
		s.shutdown()
		return nil, ErrClosed
	}
	c.streams[s] = struct{}{}
	c.streamMu.Unlock()
	return s, nil
}

// Next returns the next event. io.EOF means the server closed the
// stream cleanly.
func (s *EventStream) Next() (*wire.Event, error) {
	h, payload, err := wire.ReadFrame(s.body)
	if err != nil {
		return nil, err
	}
	if h.Op != wire.OpEvent {
		return nil, fmt.Errorf("client: unexpected op %d on event stream", h.Op)
	}
	ev := new(wire.Event)
	if err := json.Unmarshal(payload, ev); err != nil {
		return nil, fmt.Errorf("client: event payload: %w", err)
	}
	return ev, nil
}

// Close tears down the stream and unregisters it from its Client.
// Safe to call more than once, and concurrently with Client.Close.
func (s *EventStream) Close() error {
	s.c.streamMu.Lock()
	if s.c.streams != nil {
		delete(s.c.streams, s)
	}
	s.c.streamMu.Unlock()
	s.shutdown()
	return nil
}

// shutdown severs the stream without touching the client registry.
func (s *EventStream) shutdown() {
	s.once.Do(func() {
		s.cancel()
		s.body.Close()
	})
}

// IsShed reports whether err is (or wraps) a shed/rate rejection and
// returns the server's backoff hint.
func IsShed(err error) (time.Duration, bool) {
	var se *ShedError
	if errors.As(err, &se) {
		return se.RetryAfter, true
	}
	return 0, false
}
