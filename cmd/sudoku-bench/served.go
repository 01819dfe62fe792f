package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sudoku"
	"sudoku/client"
	"sudoku/internal/server"
	"sudoku/internal/server/tenant"
	"sudoku/internal/server/wire"
	"sudoku/internal/sttram"
	"sudoku/internal/telemetry"
)

const tenantName = "bench"

// The storm-mix operating point. The paper scrubs every 20 ms. At 64 MB
// a per-shard pass takes ~10 ms beside the foreground load on a 2-core
// host, so a rotation needs ~320 ms of scrub time: at 250 ms half the
// passes backpressure, at 500 ms 4–6%. A request also waits out a pass
// when it lands on the shard being scrubbed, a share of about duty/32
// of requests. Near 1% that share puts p99 on the knee between the fast
// path and a pass wait, and it grows when the host slows: at 1 s and 2 s
// rotations p99 swung 3–4× between runs. At 4 s it stays near 0.3% and
// p99 is steady. Each rotation receives one interval of the paper's
// 5.3×10⁻⁶ BER.
const (
	stormRotation = 4 * time.Second
	// campaignIntervals is the compiled plan's length; the injector
	// wraps around it.
	campaignIntervals = 1024
	// maxBackpressure is the storm-mix validity limit: a run whose
	// passes backpressure more often than this no longer measures the
	// configured rotation.
	maxBackpressure = 0.05
)

// engineConfig is the paper's engine (sudoku.DefaultConfig) at cfg's
// geometry, seeded from the run seed. Small test geometries shrink the
// parity groups until the skewed hashes fit, as the daemons do.
func engineConfig(cfg config) sudoku.Config {
	ec := sudoku.DefaultConfig()
	ec.CacheMB = cfg.cacheMB
	ec.Seed = cfg.seed
	for lines := cfg.cacheMB << 20 / 64; lines < ec.GroupSize*ec.GroupSize; {
		ec.GroupSize /= 2
	}
	return ec
}

// newH2CServer matches sudoku-cached's listener settings: HTTP/1.1 plus
// prior-knowledge cleartext HTTP/2.
func newH2CServer(h http.Handler) *http.Server {
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	return &http.Server{Handler: h, Protocols: &protos}
}

// stack is one served instance: the engine (plus its daemons on
// storm-mix), the server on a loopback h2c listener, and the one client
// every worker shares.
type stack struct {
	eng    *sudoku.Concurrent
	srv    *server.Server
	reg    *sudoku.Registry
	tn     *tenant.Tenant
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	cl     *client.Client
	storm  *stormDaemons
}

// newStack builds the engine, prefills every line through WriteBatch,
// starts the workload's daemons, mounts the server and returns once the
// client's first Health succeeds. rec, when non-nil, wraps the listener
// and handler and assigns the client's trace ids.
func newStack(cfg config, sh *shadow, rec *recorder, recording *atomic.Bool) (*stack, error) {
	eng, err := sudoku.NewConcurrent(engineConfig(cfg))
	if err != nil {
		return nil, err
	}
	if err := prefill(eng, sh); err != nil {
		return nil, err
	}
	s := &stack{eng: eng}
	if err := s.start(cfg, rec, recording); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) start(cfg config, rec *recorder, recording *atomic.Bool) error {
	lines := uint64(s.eng.Geometry().Lines)
	pri := tenant.Low
	if cfg.workload == stormMix {
		var err error
		if s.storm, err = startStorm(s.eng, cfg, recording); err != nil {
			return err
		}
		pri = tenant.High
	}
	treg, err := tenant.NewRegistry(lines, []tenant.Config{{Name: tenantName, Lines: lines, Priority: pri}})
	if err != nil {
		return err
	}
	if s.tn, err = treg.Lookup(tenantName); err != nil {
		return err
	}
	if s.srv, err = server.New(server.Options{Engine: s.eng, Tenants: treg}); err != nil {
		return err
	}
	s.reg = telemetry.NewRegistry()
	s.srv.Register(s.reg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	handler := s.srv.Handler()
	opts := client.Options{
		Addr:       ln.Addr().String(),
		Codec:      wire.CodecBinary,
		Resilience: client.DefaultResilience(),
	}
	if rec != nil {
		ln = rec.listener(ln)
		handler = rec.middleware(handler)
		opts.NextTraceID = rec.nextTraceID
	}
	s.hs = newH2CServer(handler)
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln)
	}()
	s.cl = client.New(opts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.cl.Health(ctx, tenantName); err != nil {
		return fmt.Errorf("first health: %w", err)
	}
	return nil
}

// close stops the client, the server and the daemons, waiting for each.
func (s *stack) close() {
	if s.cl != nil {
		_ = s.cl.Close() // always nil
	}
	if s.hs != nil {
		_ = s.hs.Close() // returns the listener's close error; nothing to do with it
		<-s.served
	}
	if s.storm != nil {
		s.storm.stop()
	}
}

// prefill writes version 0 of every line through the batch API and
// resets the shadow to match.
func prefill(eng *sudoku.Concurrent, sh *shadow) error {
	const chunk = 4096
	lines := eng.Geometry().Lines
	if lines != len(sh.versions) {
		return fmt.Errorf("engine has %d lines, shadow %d", lines, len(sh.versions))
	}
	addrs := make([]uint64, chunk)
	data := make([]byte, chunk*64)
	for base := 0; base < lines; base += chunk {
		n := min(chunk, lines-base)
		for i := 0; i < n; i++ {
			line := uint64(base + i)
			addrs[i] = line * 64
			fillPattern(data[i*64:], sh.seed, line, 0)
		}
		errs, err := eng.WriteBatch(addrs[:n], data[:n*64])
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		for _, e := range errs {
			if e != nil {
				return fmt.Errorf("prefill: %w", e)
			}
		}
	}
	clear(sh.versions)
	return nil
}

// stormDaemons runs storm-mix's background work: the storm controller,
// the scrub daemon, and an injector that applies one compiled interval
// of the uniform campaign after every completed rotation.
type stormDaemons struct {
	eng       *sudoku.Concurrent
	plan      *sudoku.FaultPlan
	shards    int
	recording *atomic.Bool
	rotated   chan struct{} // a rotation ended; buffered so OnPass never blocks
	quit      chan struct{}
	done      chan struct{}

	mu       sync.Mutex
	took     []uint32 // per-shard pass durations inside the window, ns
	applyErr error
}

// paperFaults is one interval of the paper's BER over a geometry: 3,073
// flips over the 580M stored bits of 64 MB.
func paperFaults(g sudoku.FaultGeometry) int {
	return int(math.Round(float64(g.Lines) * float64(g.LineBits) * sttram.PaperBER20ms))
}

func startStorm(eng *sudoku.Concurrent, cfg config, recording *atomic.Bool) (*stormDaemons, error) {
	geom := eng.Geometry()
	cam, err := sudoku.CampaignPreset("uniform", campaignIntervals, paperFaults(geom))
	if err != nil {
		return nil, err
	}
	plan, err := sudoku.CompileCampaign(cam, geom, cfg.seed)
	if err != nil {
		return nil, err
	}
	passes := eng.Shards() * int((cfg.warmup+cfg.window)/stormRotation+2)
	d := &stormDaemons{
		eng:       eng,
		plan:      plan,
		shards:    eng.Shards(),
		recording: recording,
		rotated:   make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		took:      make([]uint32, 0, 2*passes),
	}
	// Storm control first, so the daemon's interval policy sees the
	// ladder (the order sudoku-cached uses).
	if err := eng.StartStormControl(sudoku.StormConfig{MinInterval: stormRotation / 4}); err != nil {
		return nil, err
	}
	if err := eng.StartScrub(sudoku.ScrubDaemonConfig{
		Interval: stormRotation,
		Watchdog: 10 * stormRotation,
		OnPass:   d.onPass,
	}); err != nil {
		_ = eng.StopStormControl() // the setup error is the one to report
		return nil, err
	}
	go d.inject()
	return d, nil
}

func (d *stormDaemons) onPass(p sudoku.ScrubPass) {
	if d.recording.Load() {
		d.mu.Lock()
		d.took = append(d.took, uint32(min(p.Took.Nanoseconds(), math.MaxUint32)))
		d.mu.Unlock()
	}
	if p.Shard == d.shards-1 {
		select {
		case d.rotated <- struct{}{}:
		default:
		}
	}
}

func (d *stormDaemons) inject() {
	defer close(d.done)
	for i := 0; ; i++ {
		select {
		case <-d.quit:
			return
		case <-d.rotated:
		}
		ip, err := d.plan.At(i % d.plan.Intervals())
		if err == nil {
			_, err = d.eng.ApplyFaults(ip)
		}
		if err != nil {
			d.mu.Lock()
			if d.applyErr == nil {
				d.applyErr = err
			}
			d.mu.Unlock()
		}
	}
}

// passes returns the window's pass durations and the first injection
// error.
func (d *stormDaemons) passes() ([]uint32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.took, d.applyErr
}

func (d *stormDaemons) stop() {
	close(d.quit)
	<-d.done
	_ = d.eng.StopScrub()        // ErrScrubNotRunning only; the daemon is stopped either way
	_ = d.eng.StopStormControl() // likewise
}

// servedWorker is one closed-loop client: it sends its next request only
// after the previous one returns.
type servedWorker struct {
	gen   *generator
	batch bool
	cl    *client.Client
	sh    *shadow
	// addrs, data and want are reused request and check buffers.
	addrs      []uint64
	data, want []byte

	// Inside the window: latencies, ops completed, ops failed, and (on a
	// traced run) the client.op spans.
	lat    samples
	ops    int64
	failed int64
	spans  []clientSpan
	// sdc counts reads, anywhere in the run, that returned data the
	// shadow says was never written; firstSDC describes the first.
	sdc      int64
	firstSDC string
}

func newServedWorker(gen *generator, cfg config, sh *shadow) *servedWorker {
	w := &servedWorker{
		gen:   gen,
		batch: cfg.workload == batchMix,
		sh:    sh,
		addrs: make([]uint64, batchLines),
		data:  make([]byte, batchLines*64),
		want:  make([]byte, 64),
		lat:   newSamples(sampleCap(cfg.window)),
	}
	if cfg.trace {
		w.spans = make([]clientSpan, 0, sampleCap(cfg.window))
	}
	return w
}

// loop issues requests until ctx ends, recording those that complete
// while recording is set. A failed op is recorded with the largest
// latency, so a failure always counts as missing any latency limit.
func (w *servedWorker) loop(ctx context.Context, recording *atomic.Bool, rec *recorder) {
	for ctx.Err() == nil {
		o := w.gen.next()
		start := time.Now()
		err := w.do(ctx, o)
		end := time.Now()
		if !recording.Load() {
			continue
		}
		w.ops++
		d := end.Sub(start)
		if err != nil {
			w.failed++
			d = math.MaxUint32
		}
		w.lat.add(o.kind, d)
		if rec != nil {
			w.spans = append(w.spans, clientSpan{start: rec.since(start), end: rec.since(end)})
		}
	}
}

// do sends one op and checks a read against the shadow.
func (w *servedWorker) do(ctx context.Context, o op) error {
	n := 1
	if w.batch {
		n = batchLines
	}
	addrs := w.addrs[:n]
	for i := range addrs {
		addrs[i] = (o.line + uint64(i)) * 64
	}
	vers := w.sh.versions
	if o.kind == opWrite {
		for i := 0; i < n; i++ {
			line := o.line + uint64(i)
			fillPattern(w.data[i*64:], w.sh.seed, line, nextVersion(vers[line]))
		}
		var err error
		if w.batch {
			err = w.cl.WriteBatch(ctx, tenantName, addrs, w.data[:n*64])
		} else {
			err = w.cl.Write(ctx, tenantName, addrs[0], w.data[:64])
		}
		for i := 0; i < n; i++ {
			line := o.line + uint64(i)
			v := nextVersion(vers[line])
			if err != nil {
				v |= unknownVersion
			}
			vers[line] = v
		}
		return err
	}

	var data []byte
	var err error
	if w.batch {
		data, err = w.cl.ReadBatch(ctx, tenantName, addrs)
	} else {
		data, err = w.cl.Read(ctx, tenantName, addrs[0])
	}
	var items *client.ItemError
	if err != nil && !(errors.As(err, &items) && len(data) == n*64) {
		return err
	}
	for i := 0; i < n; i++ {
		if items != nil && i < len(items.Errs) && items.Errs[i] != "" {
			continue
		}
		line := o.line + uint64(i)
		v := vers[line]
		if v&unknownVersion != 0 {
			continue
		}
		fillPattern(w.want, w.sh.seed, line, v)
		if !bytes.Equal(data[i*64:(i+1)*64], w.want) {
			if w.sdc == 0 {
				w.firstSDC = fmt.Sprintf("line %d read back wrong data for version %d", line, v)
			}
			w.sdc++
		}
	}
	return err
}

func nextVersion(v uint32) uint32 {
	return (v&^unknownVersion + 1) &^ unknownVersion
}

// counters is the state of every counter a window reads at its edges.
type counters struct {
	at       time.Time
	cpu      time.Duration
	mem      runtime.MemStats
	eng      sudoku.Stats
	scrub    sudoku.ScrubDaemonStats
	client   client.ResilienceStats
	begun    int64
	publish  int64
	shed     float64
	requests float64
	netBytes int64
	netSends int64
}

// processCounters reads the clock, CPU time and allocator state.
func processCounters() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	c.cpu = cpuTime()
	c.at = time.Now()
	return c
}

func (s *stack) counters(rec *recorder) (counters, error) {
	series, err := telemetry.ParseExposition(bytes.NewReader(s.reg.AppendPrometheus(nil)))
	if err != nil {
		return counters{}, fmt.Errorf("server metrics: %w", err)
	}
	c := processCounters()
	c.eng = s.eng.Stats()
	c.scrub = s.eng.ScrubStats()
	c.client = s.cl.ResilienceStats()
	c.begun = s.eng.Tracer().Begun()
	c.publish = s.eng.Tracer().Ring().Published()
	for name, v := range series {
		switch {
		case strings.HasPrefix(name, "sudoku_server_shed_total{"):
			c.shed += v
		case strings.HasPrefix(name, "sudoku_server_requests_total{"):
			c.requests += v
		}
	}
	if rec != nil {
		c.netBytes, c.netSends = rec.conns.bytes.Load(), rec.conns.writes.Load()
	}
	return c, nil
}

// window is one measured interval: the counters at its two edges and
// the resident set through it.
type window struct {
	c0, c1 counters
	rssMB  float64
}

// measure runs n closed-loop workers: a warm-up, a garbage collection,
// then the measured window. wait blocks for the window's length; edge
// takes a counter snapshot.
func measure(warmup time.Duration, wait func(), recording *atomic.Bool, n int,
	loop func(ctx context.Context, w int), edge func() (counters, error)) (win window, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		recording.Store(false)
		cancel()
		wg.Wait()
	}()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			loop(ctx, w)
		}(w)
	}
	time.Sleep(warmup)
	runtime.GC()
	if win.c0, err = edge(); err != nil {
		return win, err
	}
	rss := startRSS()
	recording.Store(true)
	wait()
	recording.Store(false)
	if win.rssMB, err = rss.stop(); err != nil {
		return win, err
	}
	win.c1, err = edge()
	return win, err
}

// runServed runs point-mix, batch-mix or storm-mix.
func runServed(cfg config) (*result, error) {
	lines := cfg.cacheMB << 20 / 64
	sh := newShadow(cfg.seed, lines)
	var recording atomic.Bool
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(cfg, &recording)
	}
	gens := newGenerators(cfg.workload, cfg.seed, cfg.workers, lines)
	workers := make([]*servedWorker, cfg.workers)
	for i := range workers {
		workers[i] = newServedWorker(gens[i], cfg, sh)
	}

	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var stk *stack
	times := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if stk != nil {
			stk.close()
			stk = nil
			// Every set-up starts from the same state: the old engine
			// collected and its memory returned. What a sync.Pool held
			// survives one collection in its victim cache, and with it
			// the old engine, so it takes two.
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		s, err := newStack(cfg, sh, rec, &recording)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		stk = s
	}
	defer stk.close()
	for _, w := range workers {
		w.cl = stk.cl
	}

	win, err := measure(cfg.warmup, func() { time.Sleep(cfg.window) }, &recording, len(workers),
		func(ctx context.Context, i int) { workers[i].loop(ctx, &recording, rec) },
		func() (counters, error) { return stk.counters(rec) })
	if err != nil {
		return nil, err
	}
	c0, c1 := win.c0, win.c1

	res := &result{correct: true}
	var reads, writes [][]uint32
	for _, w := range workers {
		res.attempted += w.ops
		res.failed += w.failed
		reads = append(reads, w.lat[opRead])
		writes = append(writes, w.lat[opWrite])
		if w.sdc > 0 {
			res.fail("silent data corruption: %d reads returned wrong data (first: %s)", w.sdc, w.firstSDC)
		}
	}
	if res.attempted == 0 {
		return nil, errors.New("no op completed inside the window")
	}
	var took []uint32
	var stormPeak sudoku.StormState
	if stk.storm != nil {
		var err error
		if took, err = stk.storm.passes(); err != nil {
			return nil, fmt.Errorf("fault injection: %w", err)
		}
		stormPeak = stk.eng.StormStats().Peak
		if stormPeak != sudoku.StormNormal {
			res.fail("storm ladder left normal (peak %v)", stormPeak)
		}
		if bp := backpressureShare(c0.scrub, c1.scrub); bp > maxBackpressure {
			res.fail("scrub backpressure share %.3f > %.2f", bp, maxBackpressure)
		}
	}

	all := sorted(append(reads, writes...)...)
	dur := c1.at.Sub(c0.at)
	ops := float64(res.attempted)
	res.note("workload %s seed %d: %d workers, one h2c connection, %v window, %d ops (%d failed), %d samples beyond p99",
		cfg.workload, cfg.seed, len(workers), dur.Round(time.Millisecond), res.attempted, res.failed, beyond(len(all), 0.99))
	if !cfg.trace {
		res.add("ops_per_s", ops/dur.Seconds(), "ops/s")
		res.add("p50_us", quantileUs(all, 0.50), "us")
		res.add("p99_us", quantileUs(all, 0.99), "us")
		res.add("read_p50_us", quantileUs(sorted(reads...), 0.50), "us")
		res.add("write_p50_us", quantileUs(sorted(writes...), 0.50), "us")
		res.add("cpu_us_per_op", float64((c1.cpu-c0.cpu).Microseconds())/ops, "us")
		res.add("setup_s", median(times), "s")
		res.add("peak_rss_mb", win.rssMB, "MB")
		res.note("fail_share %.6f", float64(res.failed)/ops)
		return res, nil
	}

	spans := make([][]clientSpan, len(workers))
	for i, w := range workers {
		spans[i] = w.spans
	}
	lr := layerInputs{
		cfg: cfg, stk: stk, sh: sh, rec: rec, c0: c0, c1: c1,
		ops: ops, opP50: quantileUs(all, 0.50), spans: spans, took: took, stormPeak: stormPeak,
	}
	if err := lr.report(res); err != nil {
		return nil, err
	}
	return res, nil
}

func backpressureShare(a, b sudoku.ScrubDaemonStats) float64 {
	return share(float64(b.Backpressure-a.Backpressure), float64(b.ShardPasses-a.ShardPasses))
}
