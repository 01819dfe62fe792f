package client

import (
	"context"
	"errors"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sudoku"
	"sudoku/internal/server"
	"sudoku/internal/server/tenant"
	"sudoku/internal/server/wire"
	"sudoku/internal/telemetry"
)

// startFrameServer serves handler on an ephemeral loopback port and
// returns its address — the client-side mirror of the server package's
// test helper, for tests that need to script the server's exact bytes.
func startFrameServer(t testing.TB, handler http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveFrames(t, ln, handler)
	return ln.Addr().String()
}

// serveFrames serves handler on ln over cleartext HTTP/1.1, the one
// protocol the client speaks.
func serveFrames(t testing.TB, ln net.Listener, handler http.Handler) {
	hs := &http.Server{Handler: handler}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() { _ = hs.Close() })
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// echoHandler answers every /v1/op frame with a 64-byte OK response
// echoing the trace id, and records the request headers it saw.
func echoHandler(headers chan<- wire.Header) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, _, err := wire.ReadFrame(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		select {
		case headers <- h:
		default:
		}
		payload, _ := wire.EncodeResponse(h.Codec, &wire.Response{
			Status: wire.StatusOK, Data: make([]byte, LineBytes),
		})
		_ = wire.WriteFrame(w, wire.Header{
			Version: wire.Version, Codec: h.Codec, Op: h.Op,
			Flags: wire.FlagTrace, TraceID: h.TraceID,
		}, payload)
	})
}

// TestDeadlineStamping: a context deadline rides the frame as a
// relative budget; an unbounded context leaves the extension off.
func TestDeadlineStamping(t *testing.T) {
	headers := make(chan wire.Header, 2)
	addr := startFrameServer(t, echoHandler(headers))
	c := New(Options{Addr: addr})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Read(ctx, "t", 0); err != nil {
		t.Fatal(err)
	}
	h := <-headers
	if h.Flags&wire.FlagDeadline == 0 {
		t.Fatal("deadline context did not stamp FlagDeadline")
	}
	if h.DeadlineMillis == 0 || h.DeadlineMillis > 5000 {
		t.Fatalf("DeadlineMillis = %d, want (0, 5000]", h.DeadlineMillis)
	}

	if _, err := c.Read(context.Background(), "t", 0); err != nil {
		t.Fatal(err)
	}
	h = <-headers
	if h.Flags&wire.FlagDeadline != 0 {
		t.Fatal("unbounded context stamped FlagDeadline")
	}
}

// TestTypedErrors: transport failures surface as typed errors on both
// the single-shot and resilient paths — no raw net errors escape.
func TestTypedErrors(t *testing.T) {
	// A listener that is immediately closed: connection refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := New(Options{Addr: addr})
	_, err = c.Read(context.Background(), "t", 0)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("single-shot dial failure not a TransportError: %v", err)
	}
	if !Typed(err) {
		t.Fatalf("not typed: %v", err)
	}

	rc := New(Options{Addr: addr, Resilience: &ResilienceOptions{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, Seed: 1,
	}})
	_, err = rc.Read(context.Background(), "t", 0)
	var oe *OpError
	if !errors.As(err, &oe) || oe.Attempts != 2 {
		t.Fatalf("resilient dial failure not a 2-attempt OpError: %v", err)
	}
	if !errors.As(err, &te) || !Typed(err) {
		t.Fatalf("OpError does not wrap a typed transport cause: %v", err)
	}
}

// TestClientClose: Close is idempotent, fails later ops with
// ErrClosed, and cancels open event streams without leaking their
// reader goroutines.
func TestClientClose(t *testing.T) {
	events := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done() // hold the stream open until severed
	})
	addr := startFrameServer(t, events)

	before := runtime.NumGoroutine()
	c := New(Options{Addr: addr})
	var readers atomic.Int32
	var streams []*EventStream
	for i := 0; i < 4; i++ {
		s, err := c.Events(context.Background(), "t")
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
		readers.Add(1)
		go func() {
			defer readers.Add(-1)
			for {
				if _, err := s.Next(); err != nil {
					return
				}
			}
		}()
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // double close is safe
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for readers.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := readers.Load(); n != 0 {
		t.Fatalf("%d stream readers still blocked after Close", n)
	}
	// Stream Close after Client Close is a safe no-op, twice.
	for _, s := range streams {
		_ = s.Close()
		_ = s.Close()
	}

	if _, err := c.Read(context.Background(), "t", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("op after Close: %v, want ErrClosed", err)
	}
	if _, err := c.Events(context.Background(), "t"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Events after Close: %v, want ErrClosed", err)
	}

	// The transport goroutines (h2 readers, stream handlers) must
	// drain back to roughly the baseline: no leak per stream.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after Close", before, runtime.NumGoroutine())
}

// TestShedReason parses the server's "shed: <reason>" detail form.
func TestShedReason(t *testing.T) {
	for detail, want := range map[string]string{
		"shed: storm":               "storm",
		"shed: degraded: writes":    "degraded",
		"shed: deadline budget 1ms": "deadline",
		"shed: inflight":            "inflight",
		"storm":                     "",
		"":                          "",
	} {
		se := &ShedError{Detail: detail}
		if got := se.Reason(); got != want {
			t.Errorf("Reason(%q) = %q, want %q", detail, got, want)
		}
	}
}

// realHandler builds the actual server stack (a 1 MB engine, tenant
// t0 of 1024 lines, admission) for end-to-end client tests and returns
// its handler.
func realHandler(t testing.TB, storm *atomic.Int32) http.Handler {
	t.Helper()
	cfg := sudoku.DefaultConfig()
	cfg.CacheMB = 1
	cfg.Shards = 4
	cfg.Seed = 42
	lines := cfg.CacheMB << 20 / 64
	for lines < cfg.GroupSize*cfg.GroupSize {
		cfg.GroupSize /= 2
	}
	eng, err := sudoku.NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.NewRegistry(uint64(eng.Geometry().Lines), []tenant.Config{
		{Name: "t0", Lines: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{
		Engine: eng, Tenants: reg, MaxInflight: 64,
		StormFn: func() sudoku.StormState { return sudoku.StormState(storm.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler()
}

// TestRetryAfterEndToEnd: a real server in Critical storm sheds a
// low-priority read with its Retry-After; the resilient client's
// backoff honors the hint on every retry and the exhausted-budget
// error still wraps the server's ShedError.
func TestRetryAfterEndToEnd(t *testing.T) {
	storm := new(atomic.Int32)
	storm.Store(int32(sudoku.StormCritical))
	addr := startFrameServer(t, realHandler(t, storm))

	c := New(Options{Addr: addr, Resilience: &ResilienceOptions{
		MaxAttempts: 3, Seed: 1,
	}})
	defer c.Close()
	// Fake the clock so three 2s Retry-After sleeps don't slow the
	// suite; the schedule is still asserted for real.
	clk := new(fakeClock)
	clk.install(c.policy)

	_, err := c.Read(context.Background(), "t0", 0)
	if err == nil {
		t.Fatal("critical storm did not shed")
	}
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("final error does not wrap the server's ShedError: %v", err)
	}
	if se.Reason() != "storm" {
		t.Fatalf("shed reason = %q (%q), want storm", se.Reason(), se.Detail)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("server Retry-After lost: %+v", se)
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Attempts != 3 {
		t.Fatalf("want 3-attempt OpError, got %v", err)
	}
	if len(clk.sleeps) != 2 {
		t.Fatalf("sleeps = %v, want 2", clk.sleeps)
	}
	for i, d := range clk.sleeps {
		if d < se.RetryAfter {
			t.Errorf("sleep %d = %v, below the server hint %v", i, d, se.RetryAfter)
		}
	}
	st := c.ResilienceStats()
	if st.RetriesShed != 2 {
		t.Fatalf("RetriesShed = %d, want 2", st.RetriesShed)
	}

	// Storm clears: the same client succeeds (breaker untouched by
	// sheds) and metrics render.
	storm.Store(int32(sudoku.StormNormal))
	if err := c.Write(context.Background(), "t0", 0, make([]byte, LineBytes)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(context.Background(), "t0", 0); err != nil {
		t.Fatal(err)
	}
	treg := telemetry.NewRegistry()
	c.RegisterMetrics(treg)
	var sb []byte
	sb = treg.AppendPrometheus(sb)
	for _, want := range []string{
		"sudoku_client_attempts_total",
		`sudoku_client_retries_total{cause="shed"} 2`,
		`sudoku_client_breaker_state{op="read"} 0`,
	} {
		if !strings.Contains(string(sb), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb)
		}
	}
}

// TestConnectionReuse: each request in flight holds an HTTP/1.1
// connection of its own and the pool keeps every one of them idle
// afterwards. Eight goroutines of 100 reads and batch reads dial at
// most eight connections, and 200 further sequential ops dial none.
// A pool that kept fewer idle connections than goroutines (net/http's
// default is two per host) would redial throughout.
func TestConnectionReuse(t *testing.T) {
	const goroutines = 8
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	var notH1, arrived atomic.Int32
	// The first request of every goroutine is held until all of them
	// are in flight. Otherwise a request that finds no idle connection
	// dials, is handed one another request has just released, and its
	// own dial lands in the pool as a connection no goroutine needed.
	allIn := make(chan struct{})
	srv := realHandler(t, new(atomic.Int32))
	serveFrames(t, cl, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ProtoMajor != 1 {
			notH1.Add(1)
		}
		if arrived.Add(1) == goroutines {
			close(allIn)
		}
		select {
		case <-allIn:
		case <-r.Context().Done():
			return
		}
		srv.ServeHTTP(w, r)
	}))
	c := New(Options{Addr: ln.Addr().String()})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	batch := make([]uint64, 64)
	for i := range batch {
		batch[i] = uint64(i) * LineBytes
	}
	// Every fourth op is a 64-line batch, whose response is too large
	// to carry a Content-Length and arrives chunked.
	op := func(i int) error {
		if i%4 == 3 {
			_, err := c.ReadBatch(ctx, "t0", batch)
			return err
		}
		_, err := c.Read(ctx, "t0", uint64(i%1024)*LineBytes)
		return err
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := op(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	dialed := cl.accepted.Load()
	if dialed > goroutines {
		t.Fatalf("%d goroutines dialed %d connections", goroutines, dialed)
	}
	for i := 0; i < 200; i++ {
		if err := op(i); err != nil {
			t.Fatal(err)
		}
	}
	if n := cl.accepted.Load(); n != dialed {
		t.Fatalf("200 sequential ops dialed %d new connections", n-dialed)
	}
	if n := notH1.Load(); n != 0 {
		t.Fatalf("%d requests arrived over HTTP/2, want HTTP/1.1", n)
	}
}

// TestChunkedResponseKeepsConnection: a response whose terminating
// chunk arrives after the frame's last byte still returns its
// connection to the pool, so sequential batch reads share one
// connection.
func TestChunkedResponseKeepsConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	serveFrames(t, cl, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, _, err := wire.ReadFrame(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		payload, _ := wire.EncodeResponse(h.Codec, &wire.Response{
			Status: wire.StatusOK, Data: make([]byte, 64*LineBytes),
		})
		_ = wire.WriteFrame(w, wire.Header{
			Version: wire.Version, Codec: h.Codec, Op: h.Op,
			Flags: wire.FlagTrace, TraceID: h.TraceID,
		}, payload)
		w.(http.Flusher).Flush()
		time.Sleep(2 * time.Millisecond) // the last chunk follows later
	}))
	c := New(Options{Addr: ln.Addr().String()})
	defer c.Close()
	addrs := make([]uint64, 64)
	for i := 0; i < 10; i++ {
		if _, err := c.ReadBatch(context.Background(), "t", addrs); err != nil {
			t.Fatal(err)
		}
	}
	if n := cl.accepted.Load(); n != 1 {
		t.Fatalf("10 sequential batch reads dialed %d connections, want 1", n)
	}
}

// BenchmarkServedRead is one served single-line read end to end over
// loopback: the resilient client, a real listener, the server's handler
// and a 1 MB engine, driven by two goroutines.
func BenchmarkServedRead(b *testing.B) {
	addr := startFrameServer(b, realHandler(b, new(atomic.Int32)))
	c := New(Options{Addr: addr, Resilience: DefaultResilience()})
	defer c.Close()
	ctx := context.Background()
	if err := c.Write(ctx, "t0", 0, make([]byte, LineBytes)); err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := c.Read(ctx, "t0", 0); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
