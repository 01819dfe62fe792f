package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sudoku"
	"sudoku/client"
	"sudoku/internal/server/tenant"
	"sudoku/internal/server/wire"
)

// testConfig is a small engine: 1 MB, 4 shards, SuDoku-Z.
func testConfig() sudoku.Config {
	cfg := sudoku.DefaultConfig()
	cfg.CacheMB = 1
	cfg.Shards = 4
	cfg.Seed = 42
	lines := cfg.CacheMB << 20 / 64
	for lines < cfg.GroupSize*cfg.GroupSize {
		cfg.GroupSize /= 2
	}
	return cfg
}

type testServer struct {
	srv    *Server
	eng    *sudoku.Concurrent
	addr   string
	storm  *atomic.Int32
	finish func()
}

// startServer boots an engine plus the full serving stack, on a
// listener that accepts HTTP/1.1 and h2c, on an ephemeral port. The returned storm atomic forces the admission ladder level.
func startServer(t *testing.T, cfgs []tenant.Config, maxInflight int) *testServer {
	t.Helper()
	eng, err := sudoku.NewConcurrent(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.NewRegistry(uint64(eng.Geometry().Lines), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	storm := new(atomic.Int32)
	srv, err := New(Options{
		Engine:      eng,
		Tenants:     reg,
		MaxInflight: maxInflight,
		StormFn:     func() sudoku.StormState { return sudoku.StormState(storm.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	hs := &http.Server{Handler: srv.Handler(), Protocols: &protos}
	go func() { _ = hs.Serve(ln) }()
	return &testServer{
		srv: srv, eng: eng, addr: ln.Addr().String(), storm: storm,
		finish: func() { _ = hs.Close() },
	}
}

func TestEndToEndBothCodecs(t *testing.T) {
	ts := startServer(t, []tenant.Config{
		{Name: "a", Lines: 1024},
		{Name: "b", Lines: 1024, Priority: tenant.High},
	}, 64)
	defer ts.finish()
	ctx := context.Background()

	for _, codec := range []uint8{wire.CodecJSON, wire.CodecBinary} {
		cl := client.New(client.Options{Addr: ts.addr, Codec: codec})
		// Singles round trip, per tenant: the same tenant-relative
		// address in two namespaces must hold independent data.
		lineA := bytes.Repeat([]byte{0xA1}, 64)
		lineB := bytes.Repeat([]byte{0xB2}, 64)
		if err := cl.Write(ctx, "a", 128, lineA); err != nil {
			t.Fatal(err)
		}
		if err := cl.Write(ctx, "b", 128, lineB); err != nil {
			t.Fatal(err)
		}
		got, err := cl.Read(ctx, "a", 128)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, lineA) {
			t.Fatalf("codec %d: tenant a read %x", codec, got[:4])
		}
		got, err = cl.Read(ctx, "b", 128)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, lineB) {
			t.Fatal("tenant namespaces overlap")
		}

		// Batch round trip.
		addrs := make([]uint64, 16)
		data := make([]byte, 16*64)
		for i := range addrs {
			addrs[i] = uint64(i) * 64
			for j := 0; j < 64; j++ {
				data[i*64+j] = byte(i ^ j ^ int(codec))
			}
		}
		if err := cl.WriteBatch(ctx, "a", addrs, data); err != nil {
			t.Fatal(err)
		}
		back, err := cl.ReadBatch(ctx, "a", addrs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("codec %d: batch round trip mismatch", codec)
		}
	}
}

func TestBoundsAndShapeRejected(t *testing.T) {
	ts := startServer(t, []tenant.Config{{Name: "a", Lines: 256}}, 64)
	defer ts.finish()
	ctx := context.Background()
	cl := client.New(client.Options{Addr: ts.addr, Codec: wire.CodecBinary})

	if _, err := cl.Read(ctx, "a", 256*64); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("out-of-window read: %v", err)
	}
	if _, err := cl.Read(ctx, "a", 63); err == nil {
		t.Fatal("unaligned read accepted")
	}
	if _, err := cl.Read(ctx, "ghost", 0); err == nil || !strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("unknown tenant: %v", err)
	}
	if err := cl.Write(ctx, "a", 0, []byte{1, 2, 3}); err == nil {
		t.Fatal("short write data accepted")
	}
}

func TestStormSheddingLadder(t *testing.T) {
	ts := startServer(t, []tenant.Config{
		{Name: "low", Lines: 1024},
		{Name: "high", Lines: 1024, Priority: tenant.High},
	}, 64)
	defer ts.finish()
	ctx := context.Background()
	cl := client.New(client.Options{Addr: ts.addr, Codec: wire.CodecBinary})
	line := bytes.Repeat([]byte{7}, 64)
	addrs := []uint64{0, 64}
	batch := bytes.Repeat([]byte{9}, 128)

	// Normal: everything flows.
	if err := cl.Write(ctx, "low", 0, line); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteBatch(ctx, "low", addrs, batch); err != nil {
		t.Fatal(err)
	}

	// Elevated: low-priority batches shed; low singles and high
	// batches still flow.
	ts.storm.Store(int32(sudoku.StormElevated))
	err := cl.WriteBatch(ctx, "low", addrs, batch)
	if ra, ok := client.IsShed(err); !ok || ra <= 0 {
		t.Fatalf("elevated low batch: err=%v, want shed with Retry-After", err)
	}
	if err := cl.Write(ctx, "low", 0, line); err != nil {
		t.Fatalf("elevated low single: %v", err)
	}
	if err := cl.WriteBatch(ctx, "high", addrs, batch); err != nil {
		t.Fatalf("elevated high batch: %v", err)
	}

	// Critical: all low traffic and all batches shed; high singles
	// survive.
	ts.storm.Store(int32(sudoku.StormCritical))
	if _, ok := client.IsShed(cl.Write(ctx, "low", 0, line)); !ok {
		t.Fatal("critical low single not shed")
	}
	if _, ok := client.IsShed(cl.WriteBatch(ctx, "high", addrs, batch)); !ok {
		t.Fatal("critical high batch not shed")
	}
	if err := cl.Write(ctx, "high", 0, line); err != nil {
		t.Fatalf("critical high single: %v", err)
	}
	// Health bypasses admission even at Critical.
	h, err := cl.Health(ctx, "low")
	if err != nil {
		t.Fatalf("health during critical: %v", err)
	}
	if h.Storm != "critical" {
		t.Fatalf("health storm = %q", h.Storm)
	}

	// Recovery: back to normal, shed counters stay as evidence.
	ts.storm.Store(int32(sudoku.StormNormal))
	if err := cl.WriteBatch(ctx, "low", addrs, batch); err != nil {
		t.Fatalf("post-storm low batch: %v", err)
	}
	if got := ts.srv.metrics["low"].shed[ShedStorm].Load(); got < 2 {
		t.Fatalf("low shed[storm] = %d, want ≥ 2", got)
	}
}

func TestRateLimitShedsWithRetryAfter(t *testing.T) {
	ts := startServer(t, []tenant.Config{
		{Name: "a", Lines: 256, RateOps: 1, Burst: 1},
	}, 64)
	defer ts.finish()
	ctx := context.Background()
	cl := client.New(client.Options{Addr: ts.addr, Codec: wire.CodecJSON})
	line := bytes.Repeat([]byte{1}, 64)
	if err := cl.Write(ctx, "a", 0, line); err != nil {
		t.Fatal(err)
	}
	ra, ok := client.IsShed(cl.Write(ctx, "a", 0, line))
	if !ok || ra <= 0 {
		t.Fatalf("drained bucket not shed with hint")
	}
	if got := ts.srv.metrics["a"].shed[ShedRate].Load(); got != 1 {
		t.Fatalf("shed[rate] = %d", got)
	}
}

func TestEventTapScopedAndRebased(t *testing.T) {
	ts := startServer(t, []tenant.Config{
		{Name: "a", Lines: 1024},
		{Name: "b", Lines: 1024},
	}, 64)
	defer ts.finish()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := client.New(client.Options{Addr: ts.addr})
	streamA, err := cl.Events(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer streamA.Close()
	streamB, err := cl.Events(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer streamB.Close()

	// An SDC recorded inside tenant b's window: only b's tap may see
	// it, rebased into b's namespace.
	bEngineAddr := uint64(1024*64) + 5*64 // b's window starts at line 1024
	ts.eng.RecordSDC(bEngineAddr, "test sdc")

	ev, err := streamB.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Addr != 5*64 {
		t.Fatalf("event addr %#x, want rebased %#x", ev.Addr, 5*64)
	}
	if ev.Kind == "" || ev.Seq == 0 {
		t.Fatalf("event missing metadata: %+v", ev)
	}

	// Tenant a's tap must stay silent for b's event. Give the fan-out
	// a moment, then prove nothing arrived by recording an in-window
	// event and checking it is the FIRST thing a sees.
	aEngineAddr := uint64(3 * 64)
	ts.eng.RecordSDC(aEngineAddr, "test sdc a")
	evA, err := streamA.Next()
	if err != nil {
		t.Fatal(err)
	}
	if evA.Addr != 3*64 {
		t.Fatalf("tenant a first event addr %#x — leaked another tenant's event?", evA.Addr)
	}
}

// TestTraceIDEchoedOverWire pins wire trace propagation end to end:
// the client stamps every frame with a trace id, the server's
// responses echo it (the client errors on a mismatch, so a clean round
// trip IS the assertion), shed responses surface the id on ShedError,
// and server-side traces of shed requests land in the flight recorder
// under the client's id.
func TestTraceIDEchoedOverWire(t *testing.T) {
	ts := startServer(t, []tenant.Config{{Name: "a", Lines: 1024}}, 64)
	defer ts.finish()
	ctx := context.Background()

	var lastID atomic.Uint64
	next := func() uint64 { return 0x7700 + lastID.Add(1) }
	for _, codec := range []uint8{wire.CodecJSON, wire.CodecBinary} {
		cl := client.New(client.Options{Addr: ts.addr, Codec: codec, NextTraceID: next})
		line := bytes.Repeat([]byte{0xC3}, 64)
		// Write, read, batch, health: each verifies its echo internally.
		if err := cl.Write(ctx, "a", 0, line); err != nil {
			t.Fatalf("codec %d write: %v", codec, err)
		}
		if _, err := cl.Read(ctx, "a", 0); err != nil {
			t.Fatalf("codec %d read: %v", codec, err)
		}
		if _, err := cl.ReadBatch(ctx, "a", []uint64{0, 64}); err != nil {
			t.Fatalf("codec %d batch: %v", codec, err)
		}
		if _, err := cl.Health(ctx, "a"); err != nil {
			t.Fatalf("codec %d health: %v", codec, err)
		}
		// Error frames echo too: the client surfaces the server's
		// detail, not a trace mismatch.
		if _, err := cl.Read(ctx, "ghost", 0); err == nil ||
			!strings.Contains(err.Error(), "unknown tenant") {
			t.Fatalf("codec %d error echo: %v", codec, err)
		}
	}

	// The shed path: a storm rejection carries the trace id on the
	// typed error AND publishes the shed trace server-side.
	cl := client.New(client.Options{Addr: ts.addr, Codec: wire.CodecBinary, NextTraceID: next})
	ts.storm.Store(int32(sudoku.StormCritical))
	defer ts.storm.Store(int32(sudoku.StormNormal))
	err := cl.WriteBatch(ctx, "a", []uint64{0}, bytes.Repeat([]byte{1}, 64))
	var se *client.ShedError
	if !errors.As(err, &se) {
		t.Fatalf("critical batch: %v, want ShedError", err)
	}
	wantID := 0x7700 + lastID.Load()
	if se.TraceID != wantID {
		t.Fatalf("ShedError.TraceID = %#x, want %#x", se.TraceID, wantID)
	}
	found := false
	for _, tr := range ts.eng.Tracer().Ring().Snapshot(nil) {
		if tr.ID != wantID {
			continue
		}
		found = true
		if tr.N < 1 || tr.Spans[0].Kind.String() != "admission_shed" {
			t.Fatalf("shed trace spans: %+v", tr.Spans[:tr.N])
		}
	}
	if !found {
		t.Fatal("shed request's trace not in the server flight recorder")
	}
}

func TestAdmissionInflightHeadroom(t *testing.T) {
	// Unit-level: soft cap = 4×(1−0.5) = 2 admitted, third shed.
	storm := func() sudoku.StormState { return sudoku.StormNormal }
	a := newAdmission(4, 0.5, storm)
	r1, d1 := a.admit(tenant.High, false)
	r2, d2 := a.admit(tenant.High, false)
	if !d1.Allow || !d2.Allow {
		t.Fatal("first two not admitted")
	}
	if rel, d := a.admit(tenant.High, false); d.Allow {
		rel()
		t.Fatal("third admitted past soft cap")
	} else if d.Reason != ShedInflight || d.RetryAfter <= 0 {
		t.Fatalf("decision %+v", d)
	}
	r1()
	if rel, d := a.admit(tenant.High, false); !d.Allow {
		t.Fatal("slot not released")
	} else {
		rel()
	}
	r2()
	if got := a.Inflight(); got != 0 {
		t.Fatalf("inflight %d after all released", got)
	}
}

func TestSessionDisciplineOverWire(t *testing.T) {
	// MinDelay spaces consecutive batch syncs server-side.
	ts := startServer(t, []tenant.Config{
		{Name: "a", Lines: 256, MinDelay: 40 * time.Millisecond},
	}, 64)
	defer ts.finish()
	ctx := context.Background()
	cl := client.New(client.Options{Addr: ts.addr, Codec: wire.CodecBinary})
	addrs := []uint64{0}
	data := bytes.Repeat([]byte{3}, 64)
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := cl.WriteBatch(ctx, "a", addrs, data); err != nil {
			t.Fatal(err)
		}
	}
	// Three syncs → two enforced gaps.
	if elapsed := time.Since(start); elapsed < 76*time.Millisecond {
		t.Fatalf("3 syncs finished in %v; min-delay not enforced over the wire", elapsed)
	}
	// Singles bypass the session: a burst of them must NOT take
	// 40ms each.
	start = time.Now()
	for i := 0; i < 5; i++ {
		if err := cl.Write(ctx, "a", 0, data); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("5 singles took %v; session discipline leaked onto singles", elapsed)
	}
}

func TestTimeoutDuringSessionAcquire(t *testing.T) {
	ts := startServer(t, []tenant.Config{
		{Name: "a", Lines: 256, MinDelay: 5 * time.Second,
			BaseTimeout: 100 * time.Millisecond, PerItemTimeout: time.Millisecond},
	}, 64)
	defer ts.finish()
	ctx := context.Background()
	cl := client.New(client.Options{Addr: ts.addr, Codec: wire.CodecJSON})
	addrs := []uint64{0}
	data := bytes.Repeat([]byte{4}, 64)
	if err := cl.WriteBatch(ctx, "a", addrs, data); err != nil {
		t.Fatal(err)
	}
	// Second sync hits the 5s min delay with a ~100ms budget: the
	// server must give up within its own deadline, not hold the line.
	start := time.Now()
	err := cl.WriteBatch(ctx, "a", addrs, data)
	if err == nil {
		t.Fatal("second sync admitted inside min delay despite timeout")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("client saw raw context error, want server-side report: %v", err)
	}
}
