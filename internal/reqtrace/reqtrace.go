// Package reqtrace is the request-scoped tracing core: an always-on,
// allocation-free span recorder threaded through every layer of the
// serving stack. Each operation may carry a *Trace — a pooled,
// fixed-capacity span buffer with no interface boxing and no map — and
// every instrumentation point is a nil-safe Note call, so the untraced
// fast path costs exactly one predictable branch and never calls
// time.Now.
//
// Aggregate counters (PR 4) say how often each repair rung fires;
// they cannot say which rungs one slow request actually hit. The
// paper's argument is about the distribution of repair depth under
// high transient-failure rates, and the deep tail — CRC detect →
// ECC-1 → intra-line RAID → SDR → hash² retry → DUE refetch — is
// precisely what a p99 read traverses. A Trace records that causal
// rung sequence per request; the tail sampler keeps only the
// interesting ones.
package reqtrace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies one instrumentation point. The repair-ladder rungs
// (KindCRCDetect..KindDUEDataLoss) are ordered by ladder depth so a
// trace's rung sequence can be checked for monotone ladder order.
type Kind uint8

const (
	// KindNone is the zero value; no span carries it.
	KindNone Kind = iota
	// KindCRCDetect: the per-line CRC-31 check flagged a faulty
	// codeword — the ladder's entry rung.
	KindCRCDetect
	// KindECC1: per-line Hamming corrected a single-bit fault.
	KindECC1
	// KindRAIDReconstruct: the intra-group RAID-4 XOR rebuilt lines.
	// Code carries the repair count (clamped to 255).
	KindRAIDReconstruct
	// KindSDR: silent-data-resurrection repairs. Code is the count.
	KindSDR
	// KindHash2Retry: second-hash parity retries. Code is the count.
	KindHash2Retry
	// KindDUERefetch: an uncorrectable clean line was refetched from
	// the backing store — the managed DUE recovery.
	KindDUERefetch
	// KindDUEDataLoss: a dirty line's only copy was lost.
	KindDUEDataLoss
	// KindSeqlockFallback: the lock-free read fast path bailed to the
	// locked path. Code is the reason (Seqlock* constants).
	KindSeqlockFallback
	// KindShardPlan: the sharded engine routed the op. Code is the
	// shard index (mod 256).
	KindShardPlan
	// KindBatchPlan: a batch was split into per-shard groups. Addr is
	// the item count, Code the shard-group count (clamped).
	KindBatchPlan
	// KindAdmission: storm admission shed the request. Code is the
	// Admission* reason.
	KindAdmission
	// KindScrubInterference: the op arrived while a scrub pass or
	// targeted scrub held (or was about to take) the engine lock.
	KindScrubInterference
	// KindQuarantine: the op touched a quarantined region (a DUE
	// verdict or a parity-bypass write).
	KindQuarantine
	// KindRetiredLine: the op was served from a hardened spare row.
	KindRetiredLine
	kindMax
)

// Seqlock fallback reasons, carried in a KindSeqlockFallback Code.
const (
	SeqlockNoMirror = 1 // line has no published mirror
	SeqlockSeqOdd   = 2 // writer active or mirror invalidated
	SeqlockTorn     = 3 // CRC-flagged or torn snapshot
	SeqlockRecheck  = 4 // seq/tag recheck failed (recycled slot)
)

// Admission shed reasons, carried in a KindAdmission Code.
const (
	AdmissionInflight = 1
	AdmissionStorm    = 2
	AdmissionRate     = 3
	AdmissionDeadline = 4 // request's wire deadline budget cannot be met
	AdmissionDegraded = 5 // server in degraded mode, write/batch shed
)

var kindNames = [kindMax]string{
	KindNone:              "none",
	KindCRCDetect:         "crc_detect",
	KindECC1:              "ecc1",
	KindRAIDReconstruct:   "raid_reconstruct",
	KindSDR:               "sdr",
	KindHash2Retry:        "hash2_retry",
	KindDUERefetch:        "due_refetch",
	KindDUEDataLoss:       "due_data_loss",
	KindSeqlockFallback:   "seqlock_fallback",
	KindShardPlan:         "shard_plan",
	KindBatchPlan:         "batch_plan",
	KindAdmission:         "admission_shed",
	KindScrubInterference: "scrub_interference",
	KindQuarantine:        "quarantine",
	KindRetiredLine:       "retired_line",
}

// String returns the stable wire/JSON name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString inverts String; unknown names return KindNone.
func KindFromString(s string) Kind {
	for k, name := range kindNames {
		if name == s {
			return Kind(k)
		}
	}
	return KindNone
}

// Trace publish-trigger flags, computed incrementally as spans are
// noted so Finish never scans the span buffer.
const (
	flagDeep       = 1 << 0 // repair depth past ECC-1
	flagShed       = 1 << 1 // admission shed the request
	flagQuarantine = 1 << 2 // quarantined region touched
)

// kindFlags maps a span kind to the publish-trigger bits it sets.
// Deliberately NOT a trigger: ECC-1 (the paper's common case),
// seqlock fallbacks (routine under contention), and spare-row reads
// (every access to a retired address would flood the ring with
// steady-state traces; the retirement event itself is a RAS event).
var kindFlags = [kindMax]uint8{
	KindRAIDReconstruct: flagDeep,
	KindSDR:             flagDeep,
	KindHash2Retry:      flagDeep,
	KindDUERefetch:      flagDeep,
	KindDUEDataLoss:     flagDeep,
	KindAdmission:       flagShed,
	KindQuarantine:      flagQuarantine,
}

// MaxSpans is the fixed per-trace span capacity. A worst-case deep
// repair touches well under half of this; overflow increments
// DroppedSpans rather than allocating.
const MaxSpans = 24

// Span is one instrumentation point hit: what happened (Kind), where
// (Addr — an address, physical line, or count depending on Kind), a
// kind-specific detail Code, and when (AtNs, nanoseconds since the
// trace began — monotone within a trace by construction).
type Span struct {
	Kind Kind
	Code uint8
	Addr uint64
	AtNs int64
}

// Trace is one operation's span record. Traces are pooled by the
// Tracer; a nil *Trace is the untraced case and every method is
// nil-safe, which is what lets instrumentation points run
// unconditionally with a single branch.
type Trace struct {
	// ID is the wire-propagated trace identifier.
	ID uint64
	// Op is the operation kind (the wire protocol's Op byte for
	// server traffic; free-form for in-process callers).
	Op uint8
	// StartUnixNano is the wall-clock start, stamped at Begin.
	StartUnixNano int64
	// DurNs is the operation's total wall duration, stamped at Finish.
	DurNs int64
	// N is the number of valid entries in Spans.
	N int32
	// DroppedSpans counts Note calls past the MaxSpans capacity.
	DroppedSpans int32
	// Spans are the recorded points, in noting order.
	Spans [MaxSpans]Span

	start time.Time
	flags uint8
}

// Note appends one span. Nil-safe: on an untraced operation (t == nil)
// this is a single compare-and-return — no time.Now, no write.
func (t *Trace) Note(kind Kind, addr uint64, code uint8) {
	if t == nil {
		return
	}
	if t.N >= MaxSpans {
		t.DroppedSpans++
		return
	}
	t.Spans[t.N] = Span{Kind: kind, Code: code, Addr: addr, AtNs: int64(time.Since(t.start))}
	t.N++
	t.flags |= kindFlags[kind]
}

// Deep reports whether the trace went past ECC-1 on the repair ladder.
func (t *Trace) Deep() bool { return t != nil && t.flags&flagDeep != 0 }

func (t *Trace) reset(id uint64, op uint8) {
	t.ID = id
	t.Op = op
	t.start = time.Now()
	t.StartUnixNano = t.start.UnixNano()
	t.DurNs = 0
	t.N = 0
	t.DroppedSpans = 0
	t.flags = 0
}

// rungIndex maps repair-ladder kinds to their depth order; other kinds
// return 0 (not a rung).
func rungIndex(k Kind) int {
	switch k {
	case KindCRCDetect:
		return 1
	case KindECC1:
		return 2
	case KindRAIDReconstruct:
		return 3
	case KindSDR:
		return 4
	case KindHash2Retry:
		return 5
	case KindDUERefetch, KindDUEDataLoss:
		return 6
	}
	return 0
}

// RungOrderOK validates a trace's repair-rung sequence: ladder rungs
// must appear in non-decreasing depth order, and any rung sequence
// must begin with crc_detect (nothing repairs what detection did not
// flag). Non-rung spans are ignored. It also requires span timestamps
// to be monotone non-decreasing across ALL spans. Used by the unit
// gate and by sudoku-stress -tracegate against /debug/flightrec.
func RungOrderOK(spans []Span) bool {
	lastAt := int64(0)
	lastRung := 0
	sawRung := false
	for _, s := range spans {
		if s.AtNs < lastAt {
			return false
		}
		lastAt = s.AtNs
		r := rungIndex(s.Kind)
		if r == 0 {
			continue
		}
		if !sawRung && r != 1 {
			return false
		}
		sawRung = true
		// A multi-group repair can re-enter the ladder (a second
		// crc_detect after a refetch); reset the depth cursor there.
		if r == 1 {
			lastRung = 1
			continue
		}
		if r < lastRung {
			return false
		}
		lastRung = r
	}
	return true
}

// Config parameterizes a Tracer.
type Config struct {
	// RingSize is the flight-recorder capacity in traces (default 256,
	// rounded up to at least 8).
	RingSize int
	// LatencyThreshold is the tail-sampling latency trigger: a trace
	// whose wall duration meets it is published even with no
	// anomalous span (default 10ms).
	LatencyThreshold time.Duration
}

// Tracer owns the trace pool, the tail-sampling policy, and the
// flight-recorder ring. A nil *Tracer is valid and traces nothing.
type Tracer struct {
	threshold int64
	ring      *Ring
	pool      sync.Pool
	begun     atomic.Int64
}

// NewTracer builds a Tracer with the given policy.
func NewTracer(cfg Config) *Tracer {
	if cfg.RingSize < 8 {
		cfg.RingSize = 256
	}
	if cfg.LatencyThreshold <= 0 {
		cfg.LatencyThreshold = 10 * time.Millisecond
	}
	tp := &Tracer{
		threshold: cfg.LatencyThreshold.Nanoseconds(),
		ring:      newRing(cfg.RingSize),
	}
	tp.pool.New = func() any { return new(Trace) }
	return tp
}

// Begin checks a Trace out of the pool. Nil-safe: a nil Tracer
// returns a nil Trace, which every downstream Note ignores.
func (tp *Tracer) Begin(id uint64, op uint8) *Trace {
	if tp == nil {
		return nil
	}
	tp.begun.Add(1)
	t := tp.pool.Get().(*Trace)
	t.reset(id, op)
	return t
}

// Finish completes a trace: stamps the duration, runs the tail
// sampler — interesting means latency over threshold, repair depth
// past ECC-1, or a shed/quarantine span — publishes interesting
// traces into the flight recorder, and returns the trace to the pool.
// It reports whether the trace was published. The *Trace must not be
// used after Finish.
func (tp *Tracer) Finish(t *Trace) bool {
	if tp == nil || t == nil {
		return false
	}
	t.DurNs = int64(time.Since(t.start))
	published := false
	if t.flags != 0 || t.DurNs >= tp.threshold {
		published = tp.ring.publish(t)
	}
	tp.pool.Put(t)
	return published
}

// Ring returns the flight recorder.
func (tp *Tracer) Ring() *Ring {
	if tp == nil {
		return nil
	}
	return tp.ring
}

// Begun returns the number of traces started — the denominator for
// the tail-sampling rate.
func (tp *Tracer) Begun() int64 {
	if tp == nil {
		return 0
	}
	return tp.begun.Load()
}
