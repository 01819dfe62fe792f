package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"time"

	"sudoku"
	"sudoku/internal/bitvec"
	"sudoku/internal/ecc/crc"
	"sudoku/internal/ecc/hamming"
	"sudoku/internal/rng"
	"sudoku/internal/server/wire"
)

// Probe sizes: enough calls for a stable median, few enough that the
// probes add a few seconds to a traced run.
const (
	probePoints  = 2000  // single-line request shapes
	probeBatches = 200   // 64-line batch shapes
	probeLines   = 20000 // lines' worth of frames each codec loop encodes or decodes
	probeKernel  = 100000
	probeScrubs  = 5
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// layerInputs is what a traced window leaves for the per-layer report.
type layerInputs struct {
	cfg       config
	stk       *stack
	sh        *shadow
	rec       *recorder
	c0, c1    counters
	ops       float64
	opP50     float64 // client.op median over the traced window, µs
	spans     [][]clientSpan
	took      []uint32 // storm-mix scrub passes inside the window, ns
	stormPeak sudoku.StormState
}

// report pairs and writes the spans, runs the layer probes, and adds
// every per-layer metric to res in BENCHMARK.json order.
func (in *layerInputs) report(res *result) error {
	c0, c1, ops := in.c0, in.c1, in.ops
	win := c1.at.Sub(c0.at).Seconds()
	pairs := in.rec.pair(in.spans)
	if err := pairs.write(in.cfg.spans); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	handle, h2c := sorted(pairs.handleTimes()), sorted(pairs.h2cTimes())
	res.note("%d server.handle spans (%d paired with a client.op) written to %s; %d h2c connection(s) accepted",
		len(handle), len(h2c), in.cfg.spans, in.rec.conns.accepted.Load())

	pr := newProber(in.cfg, in.stk, in.sh)
	echo, err := pr.echoRTT()
	if err != nil {
		return fmt.Errorf("h2c echo probe: %w", err)
	}
	wr, err := pr.wire()
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	inmem, inmemAllocs, err := pr.inmem()
	if err != nil {
		return fmt.Errorf("in-memory server probe: %w", err)
	}
	acquire, err := pr.acquireSync()
	if err != nil {
		return fmt.Errorf("tenant probe: %w", err)
	}
	eng, err := pr.engine()
	if err != nil {
		return fmt.Errorf("engine probe: %w", err)
	}
	crcNs, hamNs, err := kernels(in.cfg.seed)
	if err != nil {
		return fmt.Errorf("ecc probe: %w", err)
	}

	res.add("client.op_p50_us", in.opP50, "us")
	res.add("server.handle_p50_us", quantileUs(handle, 0.50), "us")
	res.add("server.handle_p99_us", quantileUs(handle, 0.99), "us")
	res.add("client.h2c_p50_us", quantileUs(h2c, 0.50), "us")
	res.add("h2c.echo_rtt_us", echo, "us")
	res.add("h2c.bytes_per_op", float64(c1.netBytes-c0.netBytes)/ops, "B")
	res.add("h2c.writes_per_op", float64(c1.netSends-c0.netSends)/ops, "count")
	res.add("client.attempts_per_op", float64(c1.client.Attempts-c0.client.Attempts)/ops, "count")
	res.add("client.retries", float64(c1.client.RetriesShed+c1.client.RetriesTransport-
		c0.client.RetriesShed-c0.client.RetriesTransport), "count")
	res.add("wire.req_encode_ns", wr.reqEncode, "ns")
	res.add("wire.req_decode_ns", wr.reqDecode, "ns")
	res.add("wire.resp_encode_ns", wr.respEncode, "ns")
	res.add("wire.resp_decode_ns", wr.respDecode, "ns")
	res.add("wire.json_roundtrip_ns", wr.jsonRoundTrip, "ns")
	res.add("server.inmem_us", inmem, "us")
	res.add("server.inmem_allocs_per_op", inmemAllocs, "count")
	res.add("server.shed_share", share(c1.shed-c0.shed, c1.shed-c0.shed+c1.requests-c0.requests), "ratio")
	res.add("tenant.acquire_sync_us", acquire, "us")
	res.add("reqtrace.bracket_ns", pr.bracket(), "ns")
	res.add("reqtrace.published_share", share(float64(c1.publish-c0.publish), float64(c1.begun-c0.begun)), "ratio")
	res.add("engine.read_ns", eng.readNs, "ns")
	res.add("engine.write_ns", eng.writeNs, "ns")
	res.add("engine.untraced_read_ns", eng.untracedReadNs, "ns")
	res.add("engine.read_batch64_us", eng.readBatchUs, "us")
	res.add("engine.write_batch64_us", eng.writeBatchUs, "us")
	res.add("engine.allocs_per_op", eng.allocs, "count")

	d := func(f func(sudoku.Stats) int64) float64 { return float64(f(c1.eng) - f(c0.eng)) }
	res.add("engine.seqlock_share", share(d(func(s sudoku.Stats) int64 { return s.SeqlockReads }),
		d(func(s sudoku.Stats) int64 { return s.Reads })), "ratio")
	res.add("engine.seqlock_fallbacks", d(func(s sudoku.Stats) int64 { return s.SeqlockFallbacks }), "count")
	res.add("engine.plt_writes_per_write", share(d(func(s sudoku.Stats) int64 { return s.PLTWrites }),
		d(func(s sudoku.Stats) int64 { return s.Writes })), "ratio")
	res.add("engine.crc_detects_per_s", d(func(s sudoku.Stats) int64 { return s.CRCDetects })/win, "1/s")
	res.add("engine.ecc1_repairs_per_s", d(func(s sudoku.Stats) int64 { return s.SingleRepairs })/win, "1/s")
	res.add("engine.raid_repairs_per_s", d(func(s sudoku.Stats) int64 { return s.RAIDRepairs })/win, "1/s")
	res.add("engine.sdr_repairs_per_s", d(func(s sudoku.Stats) int64 { return s.SDRRepairs })/win, "1/s")
	res.add("engine.hash2_repairs_per_s", d(func(s sudoku.Stats) int64 { return s.Hash2Repairs })/win, "1/s")
	res.add("engine.due_per_s", d(func(s sudoku.Stats) int64 { return s.UncorrectableDUEs })/win, "1/s")

	// Scrub passes come from the daemon inside the window on storm-mix;
	// the workloads without a daemon time synchronous full scrubs after
	// it, reported per shard.
	passes, duty, bp := in.took, 0.0, 0.0
	if in.stk.storm != nil {
		var busy float64
		for _, t := range passes {
			busy += float64(t)
		}
		duty, bp = busy/1e9/win, backpressureShare(c0.scrub, c1.scrub)
	} else if passes, err = pr.scrubs(); err != nil {
		return fmt.Errorf("scrub probe: %w", err)
	}
	passes = sorted(passes)
	res.add("scrub.pass_p50_us", quantileUs(passes, 0.50), "us")
	res.add("scrub.pass_p99_us", quantileUs(passes, 0.99), "us")
	res.add("scrub.duty", duty, "ratio")
	res.add("scrub.backpressure_share", bp, "ratio")
	res.add("storm.max_level", float64(in.stormPeak), "level")
	res.add("ecc.crc31_ns", crcNs, "ns")
	res.add("ecc.hamming_ns", hamNs, "ns")
	addMC(res, mcCounts{})
	addGo(res, c0, c1, ops)

	// The ledger: a request's median should be the transport round trip
	// plus the client-side codec plus the server's in-memory handling.
	// What is left over is a layer none of those measures (the client's
	// resilience policy, scheduling, tracing itself).
	parts := echo + (wr.reqEncode+wr.respDecode)/1e3 + inmem
	res.add("ledger.gap_share", math.Abs(in.opP50-parts)/in.opP50, "ratio")
	res.note("ledger: op p50 %.1f us = h2c echo %.1f + client wire %.2f + server in-memory %.1f + gap %.1f",
		in.opP50, echo, (wr.reqEncode+wr.respDecode)/1e3, inmem, in.opP50-parts)
	return nil
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// addGo reports the Go runtime's allocation and GC activity over a
// window.
func addGo(res *result, c0, c1 counters, ops float64) {
	res.set("go.allocs_per_op", float64(c1.mem.Mallocs-c0.mem.Mallocs)/ops, "count")
	res.set("go.bytes_per_op", float64(c1.mem.TotalAlloc-c0.mem.TotalAlloc)/ops, "B")
	res.set("go.gc_cycles", float64(c1.mem.NumGC-c0.mem.NumGC), "count")
	res.set("go.gc_pause_ms", float64(c1.mem.PauseTotalNs-c0.mem.PauseTotalNs)/1e6, "ms")
}

// prober replays seeded request shapes against each layer's public
// function, one call at a time, with the workload's daemons still
// running. Writes store the version the shadow already records, so
// probing never changes what a line holds.
type prober struct {
	stk   *stack
	sh    *shadow
	batch bool
	// shapes are the workload's request shapes; points and blocks the
	// single-line and batch shapes the engine probes use on every
	// workload, and reads the lines of the untraced read probe. Every
	// probe makes one pass over lines drawn uniformly from the whole
	// cache, as the workloads do, so none runs on lines a previous
	// probe left in the CPU caches.
	shapes, points, blocks, reads []op
}

func newProber(cfg config, stk *stack, sh *shadow) *prober {
	lines := len(sh.versions)
	draw := func(workload string, n int) []op {
		g := newGenerators(workload, cfg.seed, 1, lines)[0]
		ops := make([]op, n)
		for i := range ops {
			ops[i] = g.next()
		}
		return ops
	}
	points := draw(pointMix, 2*probePoints)
	pr := &prober{stk: stk, sh: sh, batch: cfg.workload == batchMix,
		points: points[:probePoints], reads: points[probePoints:], blocks: draw(batchMix, probeBatches)}
	pr.shapes = pr.points
	if pr.batch {
		pr.shapes = pr.blocks
	}
	return pr
}

// current is the shadow's content of n lines from line on.
func (pr *prober) current(line uint64, n int) []byte {
	data := make([]byte, n*64)
	for i := 0; i < n; i++ {
		fillPattern(data[i*64:], pr.sh.seed, line+uint64(i), pr.sh.versions[line+uint64(i)]&^unknownVersion)
	}
	return data
}

// message builds the wire request a shape becomes and the response the
// server sends back for it.
func (pr *prober) message(o op) (code uint8, req *wire.Request, resp *wire.Response) {
	batch, n := pr.batch, 1
	if batch {
		n = batchLines
	}
	req = &wire.Request{Tenant: tenantName, Addrs: make([]uint64, n)}
	for i := range req.Addrs {
		req.Addrs[i] = (o.line + uint64(i)) * 64
	}
	resp = &wire.Response{Status: wire.StatusOK}
	switch {
	case o.kind == opRead && !batch:
		code, resp.Data = wire.OpRead, pr.current(o.line, n)
	case o.kind == opRead:
		code, resp.Data = wire.OpReadBatch, pr.current(o.line, n)
	case !batch:
		code, req.Data = wire.OpWrite, pr.current(o.line, n)
	default:
		code, req.Data = wire.OpWriteBatch, pr.current(o.line, n)
	}
	return code, req, resp
}

func header(codec, code uint8, id uint64) wire.Header {
	return wire.Header{Version: wire.Version, Codec: codec, Op: code, Flags: wire.FlagTrace, TraceID: id}
}

func requestFrame(codec, code uint8, id uint64, req *wire.Request) ([]byte, error) {
	p, err := wire.EncodeRequest(codec, req)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	err = wire.WriteFrame(&b, header(codec, code, id), p)
	return b.Bytes(), err
}

func responseFrame(codec, code uint8, id uint64, resp *wire.Response) ([]byte, error) {
	p, err := wire.EncodeResponse(codec, resp)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	err = wire.WriteFrame(&b, header(codec, code, id), p)
	return b.Bytes(), err
}

// echoRTT is the median round trip of the workload's request frames
// over a second loopback h2c server whose handler reads the frame and
// answers with a canned response frame of the real response's size.
func (pr *prober) echoRTT() (float64, error) {
	reqs := make([][]byte, len(pr.shapes))
	replies := make(map[uint8][]byte)
	for i, o := range pr.shapes {
		code, req, resp := pr.message(o)
		var err error
		if reqs[i], err = requestFrame(wire.CodecBinary, code, uint64(i+1), req); err != nil {
			return 0, err
		}
		if replies[code], err = responseFrame(wire.CodecBinary, code, 1, resp); err != nil {
			return 0, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := newH2CServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, _, err := wire.ReadFrame(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-sudoku-frame")
		_, _ = w.Write(replies[h.Op]) // a failed write fails the client's read
	}))
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	defer func() {
		_ = hs.Close() // the probe's result is already taken
		<-served
	}()

	tr := &http.Transport{Protocols: new(http.Protocols)}
	tr.Protocols.SetUnencryptedHTTP2(true)
	hc := &http.Client{Transport: tr}
	defer hc.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/v1/op"
	post := func(b []byte) error {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/x-sudoku-frame")
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("echo status %d", resp.StatusCode)
		}
		return nil
	}
	for _, b := range reqs[:min(50, len(reqs))] { // dial and warm the connection
		if err := post(b); err != nil {
			return 0, err
		}
	}
	lat := make([]uint32, len(reqs))
	for i, b := range reqs {
		start := time.Now()
		if err := post(b); err != nil {
			return 0, err
		}
		lat[i] = uint32(time.Since(start).Nanoseconds())
	}
	return quantileUs(sorted(lat), 0.50), nil
}

// wireCosts are mean per-frame codec costs over the workload's shapes:
// the binary codec's four steps (each an Encode plus WriteFrame or a
// ReadFrame plus Decode) and one JSON round trip of all four.
type wireCosts struct {
	reqEncode, reqDecode, respEncode, respDecode, jsonRoundTrip float64
}

func (pr *prober) wire() (wireCosts, error) {
	type msg struct {
		code      uint8
		req       *wire.Request
		resp      *wire.Response
		reqFrame  [2][]byte // by codec
		respFrame [2][]byte
	}
	msgs := make([]msg, len(pr.shapes))
	for i, o := range pr.shapes {
		m := &msgs[i]
		m.code, m.req, m.resp = pr.message(o)
		for _, codec := range []uint8{wire.CodecJSON, wire.CodecBinary} {
			var err error
			if m.reqFrame[codec], err = requestFrame(codec, m.code, uint64(i+1), m.req); err != nil {
				return wireCosts{}, err
			}
			if m.respFrame[codec], err = responseFrame(codec, m.code, uint64(i+1), m.resp); err != nil {
				return wireCosts{}, err
			}
		}
	}
	var buf bytes.Buffer
	var rd bytes.Reader
	steps := [4]func(codec uint8, m *msg) error{
		func(codec uint8, m *msg) error {
			p, err := wire.EncodeRequest(codec, m.req)
			if err != nil {
				return err
			}
			buf.Reset()
			return wire.WriteFrame(&buf, header(codec, m.code, 1), p)
		},
		func(codec uint8, m *msg) error {
			rd.Reset(m.reqFrame[codec])
			h, p, err := wire.ReadFrame(&rd)
			if err == nil {
				_, err = wire.DecodeRequest(h, p)
			}
			return err
		},
		func(codec uint8, m *msg) error {
			p, err := wire.EncodeResponse(codec, m.resp)
			if err != nil {
				return err
			}
			buf.Reset()
			return wire.WriteFrame(&buf, header(codec, m.code, 1), p)
		},
		func(codec uint8, m *msg) error {
			rd.Reset(m.respFrame[codec])
			h, p, err := wire.ReadFrame(&rd)
			if err == nil {
				_, err = wire.DecodeResponse(h.Codec, p)
			}
			return err
		},
	}
	lines := 1
	if pr.batch {
		lines = batchLines
	}
	reps := max(1, probeLines/(lines*len(msgs)))
	mean := func(codec uint8, stepsToRun ...func(uint8, *msg) error) (float64, error) {
		start := time.Now()
		for r := 0; r < reps; r++ {
			for i := range msgs {
				for _, step := range stepsToRun {
					if err := step(codec, &msgs[i]); err != nil {
						return 0, err
					}
				}
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(reps*len(msgs)), nil
	}
	var c wireCosts
	var err error
	for i, dst := range []*float64{&c.reqEncode, &c.reqDecode, &c.respEncode, &c.respDecode} {
		if *dst, err = mean(wire.CodecBinary, steps[i]); err != nil {
			return c, err
		}
	}
	c.jsonRoundTrip, err = mean(wire.CodecJSON, steps[:]...)
	return c, err
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status.
type discardWriter struct {
	header http.Header
	status int
}

func (d *discardWriter) Header() http.Header { return d.header }

func (d *discardWriter) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	return len(p), nil
}

func (d *discardWriter) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}

// inmem serves the workload's request frames through the server's
// handler in memory, with no network: the median per request, and the
// heap allocations per request (process-wide, so the storm-mix daemons'
// share is included).
func (pr *prober) inmem() (p50, allocs float64, err error) {
	frames := make([][]byte, len(pr.shapes))
	for i, o := range pr.shapes {
		code, req, _ := pr.message(o)
		if frames[i], err = requestFrame(wire.CodecBinary, code, uint64(i+1), req); err != nil {
			return 0, 0, err
		}
	}
	h := pr.stk.srv.Handler()
	rw := &discardWriter{header: make(http.Header)}
	body := bytes.NewReader(nil)
	req, err := http.NewRequest(http.MethodPost, "http://bench/v1/op", nil)
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/x-sudoku-frame")
	req.Body = io.NopCloser(body)
	lat := make([]uint32, len(frames))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, f := range frames {
		body.Reset(f)
		req.ContentLength = int64(len(f))
		clear(rw.header)
		rw.status = 0
		start := time.Now()
		h.ServeHTTP(rw, req)
		lat[i] = uint32(time.Since(start).Nanoseconds())
		if rw.status != http.StatusOK {
			return 0, 0, fmt.Errorf("in-memory request %d: HTTP %d", i, rw.status)
		}
	}
	runtime.ReadMemStats(&m1)
	return quantileUs(sorted(lat), 0.50), float64(m1.Mallocs-m0.Mallocs) / float64(len(frames)), nil
}

// acquireSync is the median cost of an uncontended batch-session
// admission: Tenant.AcquireSync plus its release.
func (pr *prober) acquireSync() (float64, error) {
	lat := make([]uint32, probePoints)
	for i := range lat {
		start := time.Now()
		release, err := pr.stk.tn.AcquireSync(context.Background())
		release()
		if err != nil {
			return 0, err
		}
		lat[i] = uint32(time.Since(start).Nanoseconds())
	}
	return quantileUs(sorted(lat), 0.50), nil
}

// bracket is the mean cost of the server's per-request trace bracket:
// Tracer.Begin plus Finish.
func (pr *prober) bracket() float64 {
	tracer := pr.stk.eng.Tracer()
	start := time.Now()
	for i := 0; i < probeKernel; i++ {
		tracer.Finish(tracer.Begin(uint64(i), wire.OpRead))
	}
	return float64(time.Since(start).Nanoseconds()) / probeKernel
}

// engineCosts are the engine probes' means.
type engineCosts struct {
	readNs, writeNs, untracedReadNs float64
	readBatchUs, writeBatchUs       float64
	allocs                          float64 // per traced call
}

// engine times the traced engine calls exactly as the server's execute
// makes them (a fresh read buffer and a live trace per call; the trace
// bracket itself is reqtrace.bracket_ns), and the untraced read. Each
// call is timed on its own, so every mean includes one clock read.
func (pr *prober) engine() (engineCosts, error) {
	eng, tracer := pr.stk.eng, pr.stk.eng.Tracer()
	writes := make([][]byte, len(pr.points))
	for i, o := range pr.points {
		if o.kind == opWrite {
			writes[i] = pr.current(o.line, 1)
		}
	}
	blockData := make([][]byte, len(pr.blocks))
	blockAddrs := make([][]uint64, len(pr.blocks))
	for i, o := range pr.blocks {
		blockAddrs[i] = make([]uint64, batchLines)
		for j := range blockAddrs[i] {
			blockAddrs[i][j] = (o.line + uint64(j)) * 64
		}
		if o.kind == opWrite {
			blockData[i] = pr.current(o.line, batchLines)
		}
	}

	var c engineCosts
	var t [4]time.Duration // read, write, batch read, batch write
	var n [4]int
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, o := range pr.points {
		k := int(o.kind)
		tr := tracer.Begin(uint64(i), wire.OpRead+uint8(k))
		start := time.Now()
		var err error
		if o.kind == opRead {
			buf := make([]byte, 64)
			err = eng.ReadIntoTraced(o.line*64, buf, tr)
		} else {
			err = eng.WriteTraced(o.line*64, writes[i], tr)
		}
		t[k] += time.Since(start)
		n[k]++
		tracer.Finish(tr)
		if err != nil && !errors.Is(err, sudoku.ErrUncorrectable) {
			return c, err
		}
	}
	for i, o := range pr.blocks {
		k := 2 + int(o.kind)
		tr := tracer.Begin(uint64(i), wire.OpReadBatch+uint8(o.kind))
		start := time.Now()
		var err error
		if o.kind == opRead {
			buf := make([]byte, batchLines*64)
			_, err = eng.ReadBatchTraced(blockAddrs[i], buf, tr)
		} else {
			_, err = eng.WriteBatchTraced(blockAddrs[i], blockData[i], tr)
		}
		t[k] += time.Since(start)
		n[k]++
		tracer.Finish(tr)
		if err != nil {
			return c, err
		}
	}
	runtime.ReadMemStats(&m1)
	per := func(k int) float64 { return float64(t[k].Nanoseconds()) / float64(max(1, n[k])) }
	c.readNs, c.writeNs = per(0), per(1)
	c.readBatchUs, c.writeBatchUs = per(2)/1e3, per(3)/1e3
	c.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(len(pr.points)+len(pr.blocks))

	buf := make([]byte, 64)
	var untraced time.Duration
	for _, o := range pr.reads {
		start := time.Now()
		err := eng.ReadInto(o.line*64, buf)
		untraced += time.Since(start)
		if err != nil && !errors.Is(err, sudoku.ErrUncorrectable) {
			return c, err
		}
	}
	c.untracedReadNs = float64(untraced.Nanoseconds()) / float64(len(pr.reads))
	return c, nil
}

// scrubs times synchronous full scrubs and reports each as the mean
// per-shard pass, in ns.
func (pr *prober) scrubs() ([]uint32, error) {
	shards := pr.stk.eng.Shards()
	out := make([]uint32, probeScrubs)
	for i := range out {
		start := time.Now()
		if _, err := pr.stk.eng.Scrub(); err != nil {
			return nil, err
		}
		out[i] = uint32(time.Since(start).Nanoseconds() / int64(shards))
	}
	return out, nil
}

// kernels is the mean cost of the line codec's two kernels: CRC-31 over
// the 512 data bits and the Hamming encode over the 543-bit message.
func kernels(seed uint64) (crcNs, hammingNs float64, err error) {
	src := rng.New(seed)
	words := make([]uint64, 9)
	for i := range words {
		words[i] = src.Uint64()
	}
	data, msg := bitvec.FromWords(words[:8], 512), bitvec.FromWords(words, 543)
	c := crc.NewCRC31()
	code, err := hamming.New(543)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for i := 0; i < probeKernel; i++ {
		sink ^= c.Compute(data)
	}
	crcNs = float64(time.Since(start).Nanoseconds()) / probeKernel
	start = time.Now()
	for i := 0; i < probeKernel; i++ {
		ck, err := code.Encode(msg)
		if err != nil {
			return 0, 0, err
		}
		sink ^= ck
	}
	return crcNs, float64(time.Since(start).Nanoseconds()) / probeKernel, nil
}
