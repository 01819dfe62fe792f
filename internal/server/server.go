// Package server is the sudoku-cached service layer: it fronts one
// shared sudoku.Concurrent engine to many network tenants over an
// HTTP-carried frame protocol (package wire), one frame per request,
// with per-tenant namespaces, rate limits and session discipline
// (package tenant), storm-aware admission control, and a streaming
// per-tenant RAS-event tap. The daemon in cmd/sudoku-cached wires this
// to a listener that accepts HTTP/1.1 and h2c, telemetry, and
// lifecycle management.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sudoku"
	"sudoku/internal/reqtrace"
	"sudoku/internal/server/tenant"
	"sudoku/internal/server/wire"
)

// Options configures a Server.
type Options struct {
	// Engine is the shared cache engine. Required.
	Engine *sudoku.Concurrent
	// Tenants is the namespace registry. Required, fixed for the
	// server's lifetime.
	Tenants *tenant.Registry
	// MaxInflight caps concurrent admitted requests. Default 256.
	MaxInflight int
	// Headroom is the fraction of MaxInflight reserved away from
	// client traffic so scrubs and parity audits never starve.
	// Default 0.2.
	Headroom float64
	// EventBuffer is the per-tap channel depth for /v1/events
	// streams. Default 256.
	EventBuffer int
	// StormFn overrides the admission controller's storm-state
	// source; default is Engine.StormState. Tests use this to force
	// ladder levels.
	StormFn func() sudoku.StormState
	// Degrade tunes degraded-mode (brownout) detection.
	Degrade DegradeOptions
}

// Server serves the sudoku-cached protocol. Construct with New, mount
// Handler on an http.Server (HTTP/1.1, h2c, or both), and Register the
// metrics on the daemon's telemetry registry.
type Server struct {
	engine  *sudoku.Concurrent
	tenants *tenant.Registry
	tracer  *sudoku.Tracer
	adm     *admission
	storm   func() sudoku.StormState
	deg     *degrade
	evBuf   int
	metrics map[string]*tenantMetrics
}

// New validates opts and builds the server.
func New(opts Options) (*Server, error) {
	if opts.Engine == nil || opts.Tenants == nil {
		return nil, errors.New("server: Engine and Tenants are required")
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 256
	}
	if opts.Headroom <= 0 {
		opts.Headroom = 0.2
	}
	if opts.EventBuffer <= 0 {
		opts.EventBuffer = 256
	}
	storm := opts.StormFn
	if storm == nil {
		storm = opts.Engine.StormState
	}
	s := &Server{
		engine:  opts.Engine,
		tenants: opts.Tenants,
		tracer:  opts.Engine.Tracer(),
		storm:   storm,
		adm:     newAdmission(opts.MaxInflight, opts.Headroom, storm),
		evBuf:   opts.EventBuffer,
		metrics: make(map[string]*tenantMetrics),
	}
	for _, t := range opts.Tenants.Tenants() {
		s.metrics[t.Name()] = newTenantMetrics()
	}
	s.deg = newDegrade(opts.Degrade, opts.Engine.Health, s.tapDropsTotal)
	return s, nil
}

// tapDropsTotal sums tap drops across every tenant — the degraded-mode
// tap-overload source.
func (s *Server) tapDropsTotal() int64 {
	var total int64
	for _, tm := range s.metrics {
		total += tm.droppedTotal()
	}
	return total
}

// Handler returns the server's route table: POST /v1/op (one frame in,
// one frame out) and GET /v1/events (frame stream).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/op", s.handleOp)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	return mux
}

// echoHeader builds the response frame header for a request header:
// same codec and op, trace context echoed verbatim when the request
// carried it.
func echoHeader(reqh wire.Header) wire.Header {
	h := wire.Header{Version: wire.Version, Codec: reqh.Codec, Op: reqh.Op}
	if reqh.Flags&wire.FlagTrace != 0 {
		h.Flags = wire.FlagTrace
		h.TraceID = reqh.TraceID
	}
	return h
}

// writeError sends an error frame with the given HTTP status.
func writeError(w http.ResponseWriter, reqh wire.Header, httpStatus int, detail string) {
	resp := &wire.Response{Status: wire.StatusError, Detail: detail}
	writeResponse(w, reqh, httpStatus, resp)
}

// writeShed sends a 429 with Retry-After (whole seconds, minimum 1,
// per the HTTP header's granularity; the frame carries milliseconds).
// extra, when non-empty, is appended to the detail after the reason
// ("shed: degraded: checkpoint_stale") — the client's Reason() parser
// still extracts the leading reason token.
func writeShed(w http.ResponseWriter, reqh wire.Header, d Decision, extra string) {
	secs := int(d.RetryAfter.Seconds())
	if secs < 1 {
		secs = 1
	}
	detail := "shed: " + d.Reason
	if extra != "" {
		detail += ": " + extra
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeResponse(w, reqh, http.StatusTooManyRequests, &wire.Response{
		Status:           wire.StatusShed,
		RetryAfterMillis: uint32(d.RetryAfter.Milliseconds()),
		Detail:           detail,
	})
}

func writeResponse(w http.ResponseWriter, reqh wire.Header, httpStatus int, resp *wire.Response) {
	payload, err := wire.EncodeResponse(reqh.Codec, resp)
	if err != nil {
		// Response built by this package; encode failure is a bug.
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-sudoku-frame")
	w.WriteHeader(httpStatus)
	_ = wire.WriteFrame(w, echoHeader(reqh), payload)
}

// shedCode maps an admission Decision.Reason to its trace span code.
func shedCode(reason string) uint8 {
	switch reason {
	case ShedInflight:
		return reqtrace.AdmissionInflight
	case ShedStorm:
		return reqtrace.AdmissionStorm
	case ShedRate:
		return reqtrace.AdmissionRate
	case ShedDeadline:
		return reqtrace.AdmissionDeadline
	case ShedDegraded:
		return reqtrace.AdmissionDegraded
	}
	return 0
}

func isBatch(op uint8) bool { return op == wire.OpReadBatch || op == wire.OpWriteBatch }
func isWrite(op uint8) bool { return op == wire.OpWrite || op == wire.OpWriteBatch }

// handleOp serves one framed request.
func (s *Server) handleOp(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h, payload, err := wire.ReadFrame(http.MaxBytesReader(w, r.Body, wire.MaxFrame+4))
	if err != nil {
		writeError(w, wire.Header{Codec: wire.CodecJSON}, http.StatusBadRequest, err.Error())
		return
	}
	// A request carrying trace context gets a request-scoped trace for
	// its whole server residency; the engine threads it down the repair
	// ladder and the tail sampler decides at Finish whether it lands in
	// the flight recorder.
	var tr *sudoku.Trace
	if h.Flags&wire.FlagTrace != 0 {
		tr = s.tracer.Begin(h.TraceID, h.Op)
		defer s.tracer.Finish(tr)
	}
	req, err := wire.DecodeRequest(h, payload)
	if err != nil {
		writeError(w, h, http.StatusBadRequest, err.Error())
		return
	}
	tn, err := s.tenants.Lookup(req.Tenant)
	if err != nil {
		writeError(w, h, http.StatusNotFound, err.Error())
		return
	}
	tm := s.metrics[req.Tenant]

	if h.Op == wire.OpHealth {
		// Health is the liveness probe of last resort: it bypasses
		// admission so operators can see a saturated server.
		s.handleHealth(w, h, tm, start)
		return
	}

	items := len(req.Addrs)
	if err := validateShape(h.Op, req); err != nil {
		tm.requests[outcomeError].Add(1)
		writeError(w, h, http.StatusBadRequest, err.Error())
		return
	}

	// A wire deadline caps the service timeout; a budget already too
	// small to finish is shed before it takes an inflight slot — doing
	// the work would only burn engine-lock bandwidth on an answer the
	// client will have stopped waiting for.
	timeout := tn.Timeout(items)
	if h.Flags&wire.FlagDeadline != 0 {
		budget := time.Duration(h.DeadlineMillis) * time.Millisecond
		if budget < deadlineFloor {
			tr.Note(reqtrace.KindAdmission, 0, reqtrace.AdmissionDeadline)
			tm.shed[ShedDeadline].Add(1)
			writeShed(w, h, Decision{Reason: ShedDeadline, RetryAfter: retryDeadline}, "")
			return
		}
		if budget < timeout {
			timeout = budget
		}
	}

	// Degraded mode: reads keep flowing, writes and batches shed with
	// a typed reason — the brownout contract (see degrade.go).
	if isWrite(h.Op) || isBatch(h.Op) {
		if degraded, reason := s.deg.current(); degraded {
			tr.Note(reqtrace.KindAdmission, 0, reqtrace.AdmissionDegraded)
			tm.shed[ShedDegraded].Add(1)
			writeShed(w, h, Decision{Reason: ShedDegraded, RetryAfter: retryDegraded}, reason)
			return
		}
	}

	release, decision := s.adm.admit(tn.Priority(), isBatch(h.Op))
	if !decision.Allow {
		tr.Note(reqtrace.KindAdmission, 0, shedCode(decision.Reason))
		tm.shed[decision.Reason].Add(1)
		writeShed(w, h, decision, "")
		return
	}
	defer release()

	if err := tn.TakeTokens(items); err != nil {
		var re *tenant.RateError
		if errors.As(err, &re) {
			tr.Note(reqtrace.KindAdmission, 0, reqtrace.AdmissionRate)
			tm.shed[ShedRate].Add(1)
			writeShed(w, h, Decision{Reason: ShedRate, RetryAfter: re.RetryAfter}, "")
			return
		}
		tm.requests[outcomeError].Add(1)
		writeError(w, h, http.StatusInternalServerError, err.Error())
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Batch ops are syncs: one at a time per tenant session, spaced
	// by the tenant's min delay. Singles bypass the session and ride
	// on the engine's own shard concurrency.
	if isBatch(h.Op) {
		rel, err := tn.AcquireSync(ctx)
		if err != nil {
			rel()
			tm.requests[outcomeTimeout].Add(1)
			writeError(w, h, http.StatusGatewayTimeout,
				fmt.Sprintf("session acquire: %v", err))
			return
		}
		defer rel()
	}

	engineAddrs := make([]uint64, items)
	for i, a := range req.Addrs {
		ea, err := tn.MapAddr(a)
		if err != nil {
			tm.requests[outcomeError].Add(1)
			writeError(w, h, http.StatusBadRequest, err.Error())
			return
		}
		engineAddrs[i] = ea
	}

	resp := s.execute(h.Op, engineAddrs, req.Data, tr)
	outcome := outcomeOK
	if resp.Status == wire.StatusPartial {
		outcome = outcomePartial
	} else if resp.Status == wire.StatusError {
		outcome = outcomeError
	}
	tm.requests[outcome].Add(1)
	tm.latency.Observe(time.Since(start))
	writeResponse(w, h, http.StatusOK, resp)
}

// validateShape checks op-specific request invariants before any
// engine work: item counts, data sizing, single-vs-batch arity.
func validateShape(op uint8, req *wire.Request) error {
	items := len(req.Addrs)
	switch op {
	case wire.OpRead, wire.OpWrite:
		if items != 1 {
			return fmt.Errorf("single op carries %d addrs", items)
		}
	case wire.OpReadBatch, wire.OpWriteBatch:
		if items == 0 {
			return errors.New("empty batch")
		}
	default:
		return fmt.Errorf("unknown op %d", op)
	}
	if isWrite(op) {
		if len(req.Data) != items*tenant.LineBytes {
			return fmt.Errorf("write data is %d bytes, want %d for %d lines",
				len(req.Data), items*tenant.LineBytes, items)
		}
	} else if len(req.Data) != 0 {
		return errors.New("read carries data")
	}
	return nil
}

// execute runs the op against the engine and builds the response.
// Per-item repair failures are data, not transport errors: they come
// back as StatusPartial with the errs vector, and successful items'
// data is still delivered.
func (s *Server) execute(op uint8, addrs []uint64, data []byte, tr *sudoku.Trace) *wire.Response {
	items := len(addrs)
	switch op {
	case wire.OpRead:
		buf := make([]byte, tenant.LineBytes)
		if err := s.engine.ReadIntoTraced(addrs[0], buf, tr); err != nil {
			return &wire.Response{Status: wire.StatusPartial, Errs: []string{err.Error()}}
		}
		return &wire.Response{Status: wire.StatusOK, Data: buf}
	case wire.OpWrite:
		if err := s.engine.WriteTraced(addrs[0], data, tr); err != nil {
			return &wire.Response{Status: wire.StatusPartial, Errs: []string{err.Error()}}
		}
		return &wire.Response{Status: wire.StatusOK}
	case wire.OpReadBatch:
		buf := make([]byte, items*tenant.LineBytes)
		errs, err := s.engine.ReadBatchTraced(addrs, buf, tr)
		if err != nil {
			return &wire.Response{Status: wire.StatusError, Detail: err.Error()}
		}
		if errs == nil {
			return &wire.Response{Status: wire.StatusOK, Data: buf}
		}
		return &wire.Response{Status: wire.StatusPartial, Errs: errStrings(errs), Data: buf}
	case wire.OpWriteBatch:
		errs, err := s.engine.WriteBatchTraced(addrs, data, tr)
		if err != nil {
			return &wire.Response{Status: wire.StatusError, Detail: err.Error()}
		}
		if errs == nil {
			return &wire.Response{Status: wire.StatusOK}
		}
		return &wire.Response{Status: wire.StatusPartial, Errs: errStrings(errs)}
	}
	return &wire.Response{Status: wire.StatusError, Detail: "unreachable op"}
}

func errStrings(errs []error) []string {
	out := make([]string, len(errs))
	for i, e := range errs {
		if e != nil {
			out[i] = e.Error()
		}
	}
	return out
}

// HealthSummary is the OpHealth payload (JSON in Response.Data).
type HealthSummary struct {
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

func (s *Server) handleHealth(w http.ResponseWriter, h wire.Header, tm *tenantMetrics, start time.Time) {
	hr := s.engine.Health()
	degraded, reason := s.deg.current()
	sum := HealthSummary{
		Storm:              s.storm().String(),
		Degraded:           degraded,
		DegradedReason:     reason,
		ScrubRunning:       hr.ScrubRunning,
		ScrubStalled:       hr.ScrubStalled,
		RetiredLines:       hr.RetiredLines,
		QuarantinedRegions: hr.QuarantinedRegions,
		EventsDropped:      hr.EventsDropped,
		UptimeSeconds:      hr.Uptime.Seconds(),
		Inflight:           s.adm.Inflight(),
	}
	payload, err := encodeJSON(sum)
	if err != nil {
		writeError(w, h, http.StatusInternalServerError, err.Error())
		return
	}
	tm.requests[outcomeOK].Add(1)
	tm.latency.Observe(time.Since(start))
	writeResponse(w, h, http.StatusOK, &wire.Response{Status: wire.StatusOK, Data: payload})
}
