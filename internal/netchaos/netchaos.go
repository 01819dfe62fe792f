// Package netchaos is a deterministic in-process fault-injecting TCP
// proxy: the network-layer sibling of internal/faultmodel. Where
// faultmodel compiles declarative fault campaigns against a cache
// geometry, netchaos compiles a declarative fault Plan against a TCP
// byte stream — added latency, bandwidth caps, connection resets
// (RST), blackholes, torn writes (partial chunk then RST), and
// response truncation (partial chunk then clean FIN) — so the client's
// resilience layer can be exercised under replayable network weather
// without iptables, root, or a second process.
//
// Determinism contract: every random decision in this package is a
// pure function of (plan, seed, connection ordinal, direction, chunk
// ordinal). Each accepted connection derives fixed sub-seeded streams
// (one control stream for the accept-time blackhole decision, one per
// copy direction), and every forwarded chunk consumes exactly three
// draws — action, cut fraction, jitter — whether or not the current
// phase uses them. The k-th chunk of connection c in direction d
// therefore always sees the same draw vector; the active phase only
// thresholds those draws into actions. What the package cannot pin
// down is the chunking itself: TCP segment boundaries depend on peer
// write patterns and scheduling, exactly as faultmodel's wall-clock
// stepping depends on the driver. Given the same observed chunk
// sequence and phase schedule, the injected fault sequence is
// bit-for-bit reproducible.
//
// Phases compose as a timeline indexed by the driver: the proxy starts
// in phase 0 and moves only on SetPhase/Advance, mirroring how
// sudoku-stress steps compiled fault plans one interval at a time. A
// typical gate plan is clean warmup → latency+truncation → resets+torn
// writes (opens the client breaker) → partial blackhole (hung
// connections only the client's attempt timeout escapes) → clean
// recovery (half-open probes close the breaker).
package netchaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sudoku/internal/rng"
)

// chunkBytes is the proxy's read granularity. Small enough that a
// per-chunk fault probability bites mid-response on multi-frame
// exchanges, large enough not to throttle clean phases.
const chunkBytes = 16 << 10

// Phase is one entry in a Plan's timeline: the network weather while
// the phase is active. Zero-valued fields mean "off"; a zero Phase
// forwards bytes untouched. Durations are carried as integer
// milliseconds so plans round-trip through strict JSON.
type Phase struct {
	Name string `json:"name,omitempty"`

	// LatencyMs delays every forwarded chunk by LatencyMs plus a
	// uniform draw from [0, JitterMs) milliseconds.
	LatencyMs int `json:"latency_ms,omitempty"`
	JitterMs  int `json:"jitter_ms,omitempty"`

	// BandwidthKBps caps throughput per direction by sleeping after
	// each chunk proportionally to its size.
	BandwidthKBps int `json:"bandwidth_kbps,omitempty"`

	// Per-chunk fault probabilities. At most one fires per chunk
	// (bands of a single uniform draw, in this order):
	//
	//   ResetProb — hard RST of both sides, nothing forwarded.
	//   TornProb  — forward a random prefix of the chunk, then RST:
	//               the receiver sees a damaged byte stream.
	//   TruncProb — forward a random prefix, then clean FIN. Applied
	//               only on the server→client direction: it models a
	//               truncated response, the failure mode the wire
	//               codec's validate-before-allocate guards against.
	//
	// Their sum must not exceed 1.
	ResetProb float64 `json:"reset_prob,omitempty"`
	TornProb  float64 `json:"torn_prob,omitempty"`
	TruncProb float64 `json:"trunc_prob,omitempty"`

	// BlackholeProb is evaluated once per connection at accept: the
	// connection is held open and inbound bytes discarded, but nothing
	// is ever forwarded or answered — the client's attempt timeout is
	// the only way out.
	BlackholeProb float64 `json:"blackhole_prob,omitempty"`
}

func (ph Phase) validate(i int) error {
	if ph.LatencyMs < 0 || ph.JitterMs < 0 || ph.BandwidthKBps < 0 {
		return fmt.Errorf("netchaos: phase %d: negative latency/jitter/bandwidth", i)
	}
	for _, p := range []float64{ph.ResetProb, ph.TornProb, ph.TruncProb, ph.BlackholeProb} {
		if p < 0 || p > 1 {
			return fmt.Errorf("netchaos: phase %d: probability %g outside [0, 1]", i, p)
		}
	}
	if s := ph.ResetProb + ph.TornProb + ph.TruncProb; s > 1 {
		return fmt.Errorf("netchaos: phase %d: reset+torn+trunc = %g exceeds 1", i, s)
	}
	return nil
}

// latency resolves the chunk delay for jitter draw jit ∈ [0, 1).
func (ph Phase) latency(jit float64) time.Duration {
	if ph.LatencyMs == 0 && ph.JitterMs == 0 {
		return 0
	}
	return time.Duration(ph.LatencyMs)*time.Millisecond +
		time.Duration(jit*float64(ph.JitterMs)*float64(time.Millisecond))
}

// Plan is a declarative fault timeline: an ordered list of phases the
// driver steps through with SetPhase/Advance.
type Plan struct {
	Name   string  `json:"name"`
	Phases []Phase `json:"phases"`
}

// Validate checks the plan invariants.
func (p Plan) Validate() error {
	if len(p.Phases) == 0 {
		return fmt.Errorf("netchaos: plan %q has no phases", p.Name)
	}
	for i, ph := range p.Phases {
		if err := ph.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// Parse decodes a plan from strict JSON: unknown fields are errors, so
// a typo'd knob cannot silently disable a fault.
func Parse(data []byte) (Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("netchaos: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Presets, by name. "gate" is the resilience-smoke schedule: clean
// warmup, degraded weather, a broken window violent enough to open the
// client breaker, a partial partition (redials blackhole, so only the
// client's attempt timeout gets an op off a hung connection), then
// clean recovery so half-open probes can close the breaker.
func presets() map[string]Plan {
	return map[string]Plan{
		"clean": {Name: "clean", Phases: []Phase{{Name: "pass"}}},
		"flaky": {Name: "flaky", Phases: []Phase{
			{Name: "flaky", LatencyMs: 2, JitterMs: 5, ResetProb: 0.02},
		}},
		"lossy": {Name: "lossy", Phases: []Phase{
			{Name: "lossy", LatencyMs: 1, TornProb: 0.05, TruncProb: 0.10},
		}},
		"partition": {Name: "partition", Phases: []Phase{
			{Name: "blackhole", BlackholeProb: 1},
		}},
		"gate": {Name: "gate", Phases: []Phase{
			{Name: "warmup"},
			{Name: "weather", LatencyMs: 1, JitterMs: 3, TruncProb: 0.08},
			{Name: "broken", ResetProb: 0.35, TornProb: 0.15},
			// Resets force redials; a blackholed redial hangs until the
			// attempt timeout converts it into a retryable transport
			// fault and evicts the dead connection.
			{Name: "partition", ResetProb: 0.05, BlackholeProb: 0.45},
			{Name: "recovery"},
		}},
	}
}

// Preset returns a built-in plan by name.
func Preset(name string) (Plan, error) {
	p, ok := presets()[name]
	if !ok {
		return Plan{}, fmt.Errorf("netchaos: unknown preset %q (have %v)", name, PresetNames())
	}
	return p, nil
}

// PresetNames lists the built-in plans in a fixed order.
func PresetNames() []string { return []string{"clean", "flaky", "lossy", "partition", "gate"} }

// Stats is a point-in-time snapshot of the proxy's fault counters —
// the gate asserts on these to prove the plan actually fired.
type Stats struct {
	Conns       uint64 // connections accepted
	Blackholed  uint64 // connections blackholed at accept
	Resets      uint64 // chunks answered with RST
	TornWrites  uint64 // chunks forwarded as prefix+RST
	Truncations uint64 // response chunks forwarded as prefix+FIN
	Delayed     uint64 // chunks that slept a latency draw
	BytesUp     uint64 // clean client→server bytes handed to the forwarding write
	BytesDown   uint64 // clean server→client bytes handed to the forwarding write
}

// Proxy is a fault-injecting TCP proxy bound to 127.0.0.1. One Proxy
// serves many concurrent connections; each gets independent seeded
// fault streams per the package determinism contract.
type Proxy struct {
	ln       net.Listener
	upstream string
	plan     Plan
	seed     uint64

	phase   atomic.Int32
	connIdx atomic.Uint64
	closed  atomic.Bool
	wg      sync.WaitGroup

	mu   sync.Mutex
	live map[net.Conn]struct{}

	conns, blackholed, resets, torn, truncations, delayed atomic.Uint64
	bytesUp, bytesDown                                    atomic.Uint64
}

// New validates the plan, binds an ephemeral 127.0.0.1 port, and
// starts forwarding to upstream (host:port) under phase 0.
func New(upstream string, plan Plan, seed uint64) (*Proxy, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netchaos: listen: %w", err)
	}
	p := &Proxy{
		ln:       ln,
		upstream: upstream,
		plan:     plan,
		seed:     seed,
		live:     make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's host:port — point the client here.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetPhase activates plan phase i (clamped to the plan bounds) for all
// subsequent accept and chunk decisions.
func (p *Proxy) SetPhase(i int) {
	if i < 0 {
		i = 0
	}
	if i >= len(p.plan.Phases) {
		i = len(p.plan.Phases) - 1
	}
	p.phase.Store(int32(i))
}

// Advance moves to the next phase (saturating at the last) and returns
// the new index.
func (p *Proxy) Advance() int {
	p.SetPhase(int(p.phase.Load()) + 1)
	return int(p.phase.Load())
}

// PhaseIndex returns the active phase index.
func (p *Proxy) PhaseIndex() int { return int(p.phase.Load()) }

// PhaseName returns the active phase's name.
func (p *Proxy) PhaseName() string { return p.plan.Phases[p.phase.Load()].Name }

func (p *Proxy) phaseNow() Phase { return p.plan.Phases[p.phase.Load()] }

// Stats snapshots the fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Conns:       p.conns.Load(),
		Blackholed:  p.blackholed.Load(),
		Resets:      p.resets.Load(),
		TornWrites:  p.torn.Load(),
		Truncations: p.truncations.Load(),
		Delayed:     p.delayed.Load(),
		BytesUp:     p.bytesUp.Load(),
		BytesDown:   p.bytesDown.Load(),
	}
}

// Close stops accepting, severs every live connection (blackholed ones
// included), and waits for the forwarding goroutines to drain. Safe to
// call more than once.
func (p *Proxy) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := p.ln.Close()
	p.mu.Lock()
	for c := range p.live {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return false
	}
	p.live[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.live, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		idx := p.connIdx.Add(1) - 1
		p.conns.Add(1)
		p.wg.Add(1)
		go p.serve(c, idx)
	}
}

// subSeed derives the lane seed for one connection stream. Connection
// c owns lanes 3c (control), 3c+1 (client→server), 3c+2
// (server→client); the SplitMix64 finalizer decorrelates adjacent
// lanes before xoring in the plan seed.
func subSeed(seed, lane uint64) uint64 {
	z := lane + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return seed ^ z ^ (z >> 31)
}

// pair is one proxied connection's two halves with a close-once
// discipline: kill(true) RSTs the client side (SO_LINGER 0), kill
// (false) closes both cleanly (FIN).
type pair struct {
	down net.Conn // client-facing
	up   net.Conn // upstream-facing
	once sync.Once
}

func (pr *pair) kill(rst bool) {
	pr.once.Do(func() {
		if rst {
			if tc, ok := pr.down.(*net.TCPConn); ok {
				_ = tc.SetLinger(0)
			}
		}
		pr.down.Close()
		pr.up.Close()
	})
}

func (p *Proxy) serve(down net.Conn, idx uint64) {
	defer p.wg.Done()
	if !p.track(down) {
		down.Close()
		return
	}
	defer p.untrack(down)

	ctl := rng.New(subSeed(p.seed, 3*idx))
	if ctl.Float64() < p.phaseNow().BlackholeProb {
		p.blackholed.Add(1)
		// Hold the connection, answer nothing: the client unblocks via
		// its own attempt timeout (which closes the conn) or our Close.
		_, _ = io.Copy(io.Discard, down)
		down.Close()
		return
	}

	up, err := net.DialTimeout("tcp", p.upstream, 5*time.Second)
	if err != nil {
		// Upstream gone — surface as a reset, the honest signal.
		if tc, ok := down.(*net.TCPConn); ok {
			_ = tc.SetLinger(0)
		}
		down.Close()
		return
	}
	if !p.track(up) {
		up.Close()
		down.Close()
		return
	}
	defer p.untrack(up)

	pr := &pair{down: down, up: up}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.pump(pr, down, up, false, rng.New(subSeed(p.seed, 3*idx+1)))
	}()
	p.pump(pr, up, down, true, rng.New(subSeed(p.seed, 3*idx+2)))
}

// pump forwards src→dst chunk by chunk, drawing exactly three values
// per chunk (action, cut, jitter) from this direction's stream so
// chunk ordinals map to fixed draw vectors regardless of phase.
// toClient marks the server→client direction, the only one eligible
// for response truncation.
func (p *Proxy) pump(pr *pair, src, dst net.Conn, toClient bool, faults *rng.Source) {
	buf := make([]byte, chunkBytes)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			ph := p.phaseNow()
			action := faults.Float64()
			cut := faults.Float64()
			jit := faults.Float64()
			if d := ph.latency(jit); d > 0 {
				p.delayed.Add(1)
				time.Sleep(d)
			}
			switch {
			case action < ph.ResetProb:
				p.resets.Add(1)
				pr.kill(true)
				return
			case action < ph.ResetProb+ph.TornProb:
				_, _ = dst.Write(chunk[:int(cut*float64(n))])
				p.torn.Add(1)
				pr.kill(true)
				return
			case toClient && action < ph.ResetProb+ph.TornProb+ph.TruncProb:
				_, _ = dst.Write(chunk[:int(cut*float64(n))])
				p.truncations.Add(1)
				pr.kill(false)
				return
			}
			// Count before forwarding: once the far side has the bytes it
			// can answer (or the client can see EOF) before this goroutine
			// runs again, and Stats must already reflect them by then.
			if toClient {
				p.bytesDown.Add(uint64(n))
			} else {
				p.bytesUp.Add(uint64(n))
			}
			if _, werr := dst.Write(chunk); werr != nil {
				pr.kill(false)
				return
			}
			if ph.BandwidthKBps > 0 {
				time.Sleep(time.Duration(float64(n) / float64(ph.BandwidthKBps<<10) * float64(time.Second)))
			}
		}
		if err != nil {
			pr.kill(false)
			return
		}
	}
}
