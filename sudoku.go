// Package sudoku is a Go implementation of SuDoku ("SuDoku: Tolerating
// High-Rate of Transient Failures for Enabling Scalable STTRAM",
// Nair, Asgari & Qureshi, DSN 2019): a resilient cache architecture
// that tolerates very high transient-fault rates with per-line ECC-1 +
// CRC-31, region-based RAID-4 parity, Sequential Data Resurrection,
// and dual skew-hashed parity groups.
//
// The package exposes three entry points:
//
//   - NewConcurrent builds a functional, protected STTRAM cache: write
//     and read real data, inject thermal faults, scrub, and watch the
//     X/Y/Z repair ladder work (or fail, at the weaker levels). Its line
//     space is interleaved across bank shards; Config.Shards = 1 is the
//     paper's single-lock cache with one stop-the-world scrub (§II-D).
//   - AnalyzeReliability evaluates the paper's closed-form FIT/MTTF
//     models for SuDoku-X/Y/Z and the uniform-ECC baselines.
//   - Simulate runs Monte Carlo fault injection against the full
//     repair machinery.
//
// The internal packages carry the substrates: the STTRAM device model
// (Eq. 1 with process variation), real Hamming/CRC/BCH codecs, the
// repair engines, a trace-driven multi-core performance simulator, and
// the comparator baselines (CPPC, RAID-6, 2DP, Hi-ECC).
package sudoku

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sudoku/internal/analytic"
	"sudoku/internal/cache"
	"sudoku/internal/core"
	"sudoku/internal/dram"
	"sudoku/internal/faultmodel"
	"sudoku/internal/faultsim"
	"sudoku/internal/persist"
	"sudoku/internal/ras"
	"sudoku/internal/reqtrace"
	"sudoku/internal/scrubber"
	"sudoku/internal/shard"
	"sudoku/internal/sttram"
	"sudoku/internal/telemetry"
)

// Protection selects the SuDoku variant.
type Protection = core.Protection

// Protection levels, strongest last.
const (
	// SuDokuX: ECC-1 + CRC-31 per line with single-hash RAID-4 (§III).
	SuDokuX = core.ProtectionX
	// SuDokuY: SuDokuX plus Sequential Data Resurrection (§IV).
	SuDokuY = core.ProtectionY
	// SuDokuZ: SuDokuY plus skew-hashed dual parity groups (§V).
	SuDokuZ = core.ProtectionZ
)

// Stats is the cache activity counter set.
type Stats = cache.Stats

// Metrics extends Stats with per-operation latency distributions.
type Metrics = cache.Metrics

// HistogramSnapshot is a point-in-time latency distribution:
// power-of-two buckets with ceil-rank Quantile and exact Mean.
type HistogramSnapshot = telemetry.HistogramSnapshot

// Registry is a pull-model metric registry that renders Prometheus
// text exposition (it implements http.Handler — mount it at /metrics)
// and expvar-style JSON (it implements expvar.Var).
type Registry = telemetry.Registry

// Trace is one operation's request-scoped span record: which repair
// rungs, fallbacks, and planning decisions the operation actually hit,
// in causal order. A nil *Trace is the untraced case; every
// instrumentation point is nil-safe, so passing nil costs one branch.
type Trace = reqtrace.Trace

// Tracer owns the trace pool, the tail-sampling policy, and the
// flight-recorder ring of recent anomalous traces.
type Tracer = reqtrace.Tracer

// TracerConfig parameterizes the tracer (flight-recorder capacity and
// the tail-sampling latency threshold).
type TracerConfig = reqtrace.Config

// FlightRecord is the JSON snapshot of the flight recorder served at
// /debug/flightrec.
type FlightRecord = reqtrace.FlightRecord

// RASSubscription is a live RAS event tap: receive from Events();
// a full buffer drops events (counted by Dropped) rather than ever
// blocking an access, a repair, or a scrub pass.
type RASSubscription = ras.Subscription

// ScrubReport summarizes one scrub pass.
type ScrubReport = cache.ScrubReport

// Config describes a SuDoku-protected cache. The zero value is not
// useful; start from DefaultConfig.
type Config struct {
	// CacheMB is the cache capacity in megabytes (64 in the paper).
	CacheMB int
	// Ways is the set associativity (8).
	Ways int
	// GroupSize is the RAID-group size in lines (512).
	GroupSize int
	// Protection is the repair ladder level (SuDokuZ default).
	Protection Protection
	// ReadLatency and WriteLatency are the STTRAM timings (9/18 ns).
	ReadLatency, WriteLatency time.Duration
	// Banks is the number of cache banks (32).
	Banks int
	// ECCStrength is the per-line inner-code capability: 0 or 1 for
	// the paper's ECC-1; 2 for the §VII-G BCH enhancement (stronger at
	// low Δ, 10 extra metadata bits per line).
	ECCStrength int
	// Shards is the concurrency shard count (a power of two dividing
	// the line count; 0 picks the largest feasible count up to Banks).
	// 1 is the single-lock engine: one parity domain over the whole
	// cache, GroupSize as configured.
	Shards int
	// Seed seeds the engine's per-shard RNG streams. For a fixed
	// (Seed, Shards) the engine's stochastic behaviour is reproducible
	// bit-for-bit.
	Seed uint64
	// RetireCEThreshold enables line retirement: a line whose
	// correctable-error leaky bucket reaches this count is remapped to
	// a hardened spare row and withdrawn from the STTRAM array. Zero
	// disables retirement. Requires protection.
	RetireCEThreshold int
	// SpareLines is the retirement spare-pool size per shard. Zero with
	// retirement enabled picks a default.
	SpareLines int
	// QuarantineAuditPasses enables region quarantine: every N scrub
	// passes a parity audit hunts for regions whose parity line itself
	// went bad, and quarantines them until RebuildQuarantined. Zero
	// disables the audit. Requires protection.
	QuarantineAuditPasses int
	// DisableFastReads forces every read hit through the engine mutex
	// instead of the lock-free seqlock fast path — the contended-
	// throughput benchmarks' locked baseline. Leave false in production.
	DisableFastReads bool
}

// DefaultConfig returns the paper's 64 MB, 8-way, SuDoku-Z cache. Note
// the full-size cache allocates real tag and (lazily) data state; for
// experimentation, smaller CacheMB values behave identically.
func DefaultConfig() Config {
	return Config{
		CacheMB:      64,
		Ways:         8,
		GroupSize:    512,
		Protection:   SuDokuZ,
		ReadLatency:  9 * time.Nanosecond,
		WriteLatency: 18 * time.Nanosecond,
		Banks:        32,
	}
}

// cacheConfig lowers the public Config onto the substrate geometry.
func (cfg Config) cacheConfig() (cache.Config, error) {
	if cfg.CacheMB <= 0 {
		return cache.Config{}, fmt.Errorf("sudoku: CacheMB %d", cfg.CacheMB)
	}
	ccfg := cache.DefaultConfig()
	ccfg.Lines = cfg.CacheMB << 20 / 64
	if cfg.Ways > 0 {
		ccfg.Ways = cfg.Ways
	}
	if cfg.GroupSize > 0 {
		ccfg.GroupSize = cfg.GroupSize
	}
	if cfg.Protection != 0 {
		ccfg.Protection = cfg.Protection
	}
	if cfg.ReadLatency > 0 {
		ccfg.ReadLatency = cfg.ReadLatency
	}
	if cfg.WriteLatency > 0 {
		ccfg.WriteLatency = cfg.WriteLatency
	}
	if cfg.Banks > 0 {
		ccfg.Banks = cfg.Banks
	}
	ccfg.ECCStrength = cfg.ECCStrength
	ccfg.RetireCEThreshold = cfg.RetireCEThreshold
	ccfg.SpareLines = cfg.SpareLines
	ccfg.QuarantineAuditPasses = cfg.QuarantineAuditPasses
	ccfg.DisableFastReads = cfg.DisableFastReads
	return ccfg, nil
}

// RASEvent is one recorded reliability event (a DUE recovery, a line
// retirement, a region quarantine, ...). Kind values print as short
// slugs via String.
type RASEvent = ras.Event

// RASCounts is the lifetime per-kind event census.
type RASCounts = ras.Counts

// Health is a point-in-time serviceability snapshot: the RAS event
// census and recent events, plus the degradation state the events led
// to. The paper budgets a nonzero DUE rate even for SuDoku-Z
// (Table III), so a deployment watches this rather than assuming
// silence.
type Health struct {
	// Counts is the lifetime per-kind RAS event census.
	Counts RASCounts
	// Events is the bounded tail of recent events, oldest first.
	Events []RASEvent
	// RetiredLines is the number of lines remapped to spare rows.
	RetiredLines int
	// SparesFree is the number of spare rows still available.
	SparesFree int
	// QuarantinedRegions is the number of parity regions currently out
	// of service awaiting RebuildQuarantined.
	QuarantinedRegions int
	// StuckCells is the number of injected permanent faults.
	StuckCells int
	// ScrubRunning reports whether the background scrub daemon is live.
	ScrubRunning bool
	// Uptime is the time since the cache was constructed.
	Uptime time.Duration
	// LastScrubPass is the completion time of the daemon's most recent
	// per-shard pass (zero before the first pass).
	LastScrubPass time.Time
	// ScrubPassAge is the time since LastScrubPass (0 when none yet) —
	// the staleness a monitoring alert keys on: a healthy daemon keeps
	// it below the rotation interval.
	ScrubPassAge time.Duration
	// ScrubStalled reports whether the scrub pass currently in flight
	// has exceeded the daemon's watchdog budget.
	ScrubStalled bool
	// ScrubWatchdog is the daemon's per-pass stall budget (0 when the
	// watchdog is disabled or no daemon is configured).
	ScrubWatchdog time.Duration
	// EventsDropped is the lifetime count of RAS events lost across all
	// live taps because a subscriber's buffer was full.
	EventsDropped int64
	// Storm is the defense-ladder controller snapshot (zero value, state
	// "normal", when no controller was ever started). Storm.State is the
	// headline: anything above StormNormal means the engine is actively
	// compensating for clustered-fault pressure.
	Storm StormStats
	// RestoredAt is when this engine warm-started from a snapshot (zero
	// for a cold start).
	RestoredAt time.Time
	// SnapshotGeneration is the generation of the most recent snapshot
	// cut or restored (0 before either).
	SnapshotGeneration uint64
	// RestoredLines is the number of lines re-retired onto spares during
	// the restore.
	RestoredLines int
	// CheckpointRunning reports whether the background checkpoint daemon
	// is live.
	CheckpointRunning bool
	// LastCheckpoint is the completion time of the most recent
	// background checkpoint write (zero before the first).
	LastCheckpoint time.Time
	// CheckpointAge is the time since LastCheckpoint (0 when none yet).
	CheckpointAge time.Duration
	// CheckpointStale reports a running checkpoint daemon that has not
	// completed a write within three intervals — the 503 condition for
	// health endpoints, mirroring ScrubStalled.
	CheckpointStale bool
	// CheckpointWrites / CheckpointFailures are the daemon's cumulative
	// write outcomes.
	CheckpointWrites   int64
	CheckpointFailures int64
	// TracesPublished / TraceDrops are the flight recorder's lifetime
	// publish and drop counters. Drops mean anomalous traces were lost
	// to publish contention — a sampler-pressure signal, never a 503
	// condition.
	TracesPublished int64
	TraceDrops      int64
	// LastAnomalyAge is the time since the most recent anomalous trace
	// was published to the flight recorder: -1 when none ever was. A
	// small value during fault pressure means the tail sampler is live.
	LastAnomalyAge time.Duration
}

// ErrUncorrectable is returned when a read hits a line whose fault
// pattern defeats the configured protection level (a DUE).
var ErrUncorrectable = cache.ErrUncorrectable

// batchErrsPool recycles the per-item error slices of the batch APIs:
// on the all-success path the slice never escapes to the caller (the
// APIs return a nil slice), so the common case stays allocation-free.
var batchErrsPool = sync.Pool{New: func() any { return new([]error) }}

// getBatchErrs hands out the pooled box itself (not the slice) so
// finishBatch can return the same box: a put that re-boxes the slice
// (`Put(&s)`) heap-allocates a fresh pointer on every call, which was
// the batch paths' residual 1 alloc/op.
func getBatchErrs(n int) *[]error {
	p := batchErrsPool.Get().(*[]error)
	if cap(*p) < n {
		*p = make([]error, n)
	} else {
		*p = (*p)[:n]
	}
	return p
}

// finishBatch applies the batch return contract to a pooled error
// slice: on success or structural misuse the box goes back to the pool
// and the caller gets nil; otherwise the slice escapes to the caller
// and its box is dropped.
func finishBatch(p *[]error, failed int, err error) ([]error, error) {
	if err == nil && failed > 0 {
		return *p, nil
	}
	// Clear before pooling: an aborted batch can leave stale non-nil
	// entries past the point of abort.
	s := *p
	for i := range s {
		s[i] = nil
	}
	*p = s[:0]
	batchErrsPool.Put(p)
	return nil, err
}

// ScrubDaemonConfig parameterizes the concurrent engine's background
// scrub daemon (interval, adaptive policy, per-pass fault storms).
type ScrubDaemonConfig = shard.DaemonConfig

// ScrubDaemonStats aggregates daemon activity (rotations, passes,
// backpressure, repair totals).
type ScrubDaemonStats = shard.DaemonStats

// ScrubPass describes one per-shard scrub pass reported by the daemon.
type ScrubPass = shard.Pass

// ScrubPolicy adapts the scrub interval from pass outcomes.
type ScrubPolicy = scrubber.Policy

// NewAdaptiveScrubPolicy returns the multiplicative-shrink /
// additive-grow interval ladder (§VIII-E): shrink fast under multi-bit
// repair pressure, stretch slowly after quiet passes, clamped to
// [min, max].
func NewAdaptiveScrubPolicy(min, max time.Duration) (ScrubPolicy, error) {
	return scrubber.NewAdaptivePolicy(min, max)
}

// Scrub-daemon lifecycle errors.
var (
	ErrScrubAlreadyRunning = shard.ErrAlreadyRunning
	ErrScrubNotRunning     = shard.ErrNotRunning
	ErrScrubStopped        = shard.ErrStopped
)

// FaultCampaign is a declarative description of a correlated-fault
// scenario: a base uniform fault budget plus hotspot, burst, weak-cell,
// and stuck-at events over a fixed number of scrub intervals. Compile
// it against a cache geometry to get a replayable injection plan.
type FaultCampaign = faultmodel.Campaign

// FaultEvent is one correlated-fault feature of a campaign.
type FaultEvent = faultmodel.Event

// FaultPlan is a compiled campaign: a deterministic, random-access
// schedule of per-interval fault injections.
type FaultPlan = faultmodel.Plan

// FaultIntervalPlan is one interval's worth of planned faults.
type FaultIntervalPlan = faultmodel.IntervalPlan

// FaultGeometry is the (lines, bits-per-line) target a plan compiles
// against.
type FaultGeometry = faultmodel.Geometry

// Campaign event kinds.
const (
	FaultHotspot   = faultmodel.KindHotspot
	FaultBurst     = faultmodel.KindBurst
	FaultWeakCells = faultmodel.KindWeakCells
	FaultStuckAt   = faultmodel.KindStuckAt
)

// CampaignPreset returns a named built-in campaign (see
// CampaignPresetNames) spanning the given intervals with the given
// per-interval uniform fault budget.
func CampaignPreset(name string, intervals, baseFaults int) (FaultCampaign, error) {
	return faultmodel.Preset(name, intervals, baseFaults)
}

// CampaignPresetNames lists the built-in campaign presets.
func CampaignPresetNames() []string { return faultmodel.PresetNames() }

// ParseCampaign decodes a campaign from its JSON form (unknown fields
// rejected) and validates it.
func ParseCampaign(data []byte) (FaultCampaign, error) { return faultmodel.Parse(data) }

// CompileCampaign compiles a campaign against a geometry with a seed.
// The same (campaign, geometry, seed) always yields the same plan.
func CompileCampaign(c FaultCampaign, g FaultGeometry, seed uint64) (*FaultPlan, error) {
	return faultmodel.Compile(c, g, seed)
}

// Storm-mode types: the closed-loop defense ladder that watches the
// RAS event stream for clustered-fault pressure and responds by
// shrinking the scrub interval and targeting hot regions.

// StormState is the defense-ladder level (Normal, Elevated, Critical).
type StormState = shard.StormState

// Storm ladder levels.
const (
	StormNormal   = shard.StormNormal
	StormElevated = shard.StormElevated
	StormCritical = shard.StormCritical
)

// StormConfig tunes the storm controller's detectors and responses.
type StormConfig = shard.StormConfig

// StormStats is the controller's lifetime counter snapshot.
type StormStats = shard.StormStats

// Storm-controller lifecycle errors.
var (
	ErrStormRunning    = shard.ErrStormRunning
	ErrStormNotRunning = shard.ErrStormNotRunning
)

// Concurrent is the bank-sharded concurrent SuDoku cache: the line
// space is interleaved across independently locked shards (one per
// bank by default), each with its own repair engine and parity domain,
// so reads, writes, fault injection, and scrubbing on different shards
// never contend on a shared mutex. Stats snapshots are lock-free. All
// methods are safe for concurrent use.
type Concurrent struct {
	eng   *shard.Engine
	start time.Time
	// tracer is the always-on request tracer: traced operations draw a
	// pooled span buffer from it, and its flight-recorder ring keeps the
	// recent anomalous traces. Untraced operations pass a nil *Trace and
	// pay one branch per instrumentation point.
	tracer *reqtrace.Tracer

	mu     sync.Mutex
	daemon *shard.ScrubDaemon
	// scrubBase accumulates the lifetime stats of every daemon that has
	// been stopped, so ScrubStats stays cumulative across stop/start
	// cycles instead of resetting with each StartScrub.
	scrubBase ScrubDaemonStats
	// storm is the defense-ladder controller, nil until
	// StartStormControl. A daemon started afterwards gets its policy
	// wrapped with the storm interval override.
	storm *shard.StormController

	// Checkpoint/restore state (persistence.go). ckpt is the background
	// checkpoint daemon, ckptStore the two-generation snapshot store it
	// writes through, ckptBase the folded totals of stopped daemons, and
	// snapGen the monotone snapshot generation counter.
	ckpt      *persist.Daemon
	ckptStore *persist.Store
	ckptBase  CheckpointStats
	snapGen   uint64
	// Restore provenance (Health) and warm-restart hand-offs: the scrub
	// cursor consumed by the next StartScrub, the storm resume consumed
	// by the next StartStormControl.
	restoredAt     time.Time
	restoredGen    uint64
	restoredLines  int
	restoredCursor int
	stormResume    *shard.StormResume
}

// NewConcurrent builds the sharded engine. cfg.Shards selects the
// shard count (0 = one per bank when feasible); cfg.Seed fixes the
// per-shard RNG streams.
func NewConcurrent(cfg Config) (*Concurrent, error) {
	ccfg, err := cfg.cacheConfig()
	if err != nil {
		return nil, err
	}
	eng, err := shard.New(shard.Config{
		Cache:  ccfg,
		Shards: cfg.Shards,
		Seed:   cfg.Seed,
		NewMemory: func() (cache.Memory, error) {
			return dram.New(dram.DefaultConfig())
		},
	})
	if err != nil {
		return nil, err
	}
	return &Concurrent{
		eng:    eng,
		start:  time.Now(),
		tracer: reqtrace.NewTracer(reqtrace.Config{}),
	}, nil
}

// Shards returns the resolved shard count.
func (c *Concurrent) Shards() int { return c.eng.Shards() }

// Read returns the 64-byte line containing addr, repairing it on the
// way as the protection level allows.
func (c *Concurrent) Read(addr uint64) ([]byte, error) { return c.eng.Read(addr) }

// ReadInto is Read into a caller-provided 64-byte buffer — the
// allocation-free form for callers that reuse a line buffer across
// accesses.
func (c *Concurrent) ReadInto(addr uint64, dst []byte) error { return c.ReadIntoTraced(addr, dst, nil) }

// Write stores a 64-byte line at addr.
func (c *Concurrent) Write(addr uint64, data []byte) error { return c.WriteTraced(addr, data, nil) }

// Tracer returns the engine's always-on request tracer. Its Ring is the
// flight recorder behind /debug/flightrec, /healthz trace fields, and
// the latency-histogram exemplars.
func (c *Concurrent) Tracer() *Tracer { return c.tracer }

// ReadIntoTraced is ReadInto with a request trace attached: the shard
// routing, seqlock fallback reasons, scrub interference, and every
// repair-ladder rung the read hits are noted on tr. tr may be nil (the
// untraced case). Begin/Finish bracketing is the caller's — the server
// owns the trace across the whole request, this method only threads it.
func (c *Concurrent) ReadIntoTraced(addr uint64, dst []byte, tr *Trace) error {
	return c.eng.ReadInto(addr, dst, tr)
}

// WriteTraced is Write with a request trace attached; see ReadIntoTraced.
func (c *Concurrent) WriteTraced(addr uint64, data []byte, tr *Trace) error {
	return c.eng.Write(addr, data, tr)
}

// TraceRead is the self-bracketing traced read: it draws a trace from
// the tracer's pool, runs the read with it, and Finishes it through the
// tail sampler. published reports whether the trace was anomalous
// enough to land in the flight recorder. Op 'R' tags in-process reads
// apart from server traffic (which uses the wire op byte).
func (c *Concurrent) TraceRead(id uint64, addr uint64, dst []byte) (published bool, err error) {
	tr := c.tracer.Begin(id, 'R')
	err = c.eng.ReadInto(addr, dst, tr)
	return c.tracer.Finish(tr), err
}

// TraceWrite is the self-bracketing traced write; see TraceRead.
func (c *Concurrent) TraceWrite(id uint64, addr uint64, data []byte) (published bool, err error) {
	tr := c.tracer.Begin(id, 'W')
	err = c.eng.Write(addr, data, tr)
	return c.tracer.Finish(tr), err
}

// ReadBatch reads len(addrs) lines into dst (64×len(addrs) bytes, item
// i at dst[i*64:]), grouping items by shard so each shard's lock is
// acquired once per batch instead of once per line — the amortized
// form the sudoku-cached batch endpoints serve from. Per-item outcomes
// come back in the returned slice (nil when every item succeeded, else
// one entry per item with nil for successes); err reports structural
// misuse (mismatched buffer length), in which case the batch may be
// partially executed.
func (c *Concurrent) ReadBatch(addrs []uint64, dst []byte) ([]error, error) {
	return c.ReadBatchTraced(addrs, dst, nil)
}

// WriteBatch writes len(addrs) lines from data (item i at data[i*64:]),
// grouped by shard like ReadBatch: each shard's lock is taken once and
// every item's read-modify-write plus both PLT delta updates run
// inside that one critical section. Return contract as in ReadBatch.
func (c *Concurrent) WriteBatch(addrs []uint64, data []byte) ([]error, error) {
	return c.WriteBatchTraced(addrs, data, nil)
}

// ReadBatchTraced is ReadBatch with a request trace attached: the batch
// planner's shard-grouping decision is noted once on tr (per-item
// internals stay untraced). tr may be nil. Return contract as in
// ReadBatch.
func (c *Concurrent) ReadBatchTraced(addrs []uint64, dst []byte, tr *Trace) ([]error, error) {
	ep := getBatchErrs(len(addrs))
	failed, err := c.eng.ReadBatch(addrs, dst, *ep, tr)
	return finishBatch(ep, failed, err)
}

// WriteBatchTraced is WriteBatch with a request trace attached; see
// ReadBatchTraced.
func (c *Concurrent) WriteBatchTraced(addrs []uint64, data []byte, tr *Trace) ([]error, error) {
	ep := getBatchErrs(len(addrs))
	failed, err := c.eng.WriteBatch(addrs, data, *ep, tr)
	return finishBatch(ep, failed, err)
}

// InjectFault flips one stored bit of the resident line holding addr.
func (c *Concurrent) InjectFault(addr uint64, bit int) error { return c.eng.InjectFault(addr, bit) }

// InjectStuckAt pins one cell of the resident line holding addr to a
// fixed value — a permanent fault (§VI).
func (c *Concurrent) InjectStuckAt(addr uint64, bit int, value bool) error {
	return c.eng.InjectStuckAt(addr, bit, value)
}

// StuckCells returns the number of permanently faulty cells injected.
func (c *Concurrent) StuckCells() int { return c.eng.StuckCells() }

// InjectRandomFaults scatters n uniform bit flips over the cache. The
// pattern is reproducible for a fixed (seed, shard count); each
// shard's injection takes only that shard's lock.
func (c *Concurrent) InjectRandomFaults(seed uint64, n int) error {
	return c.eng.InjectRandomFaults(seed, n)
}

// Scrub runs one synchronous full pass, shard by shard — one shard
// locked at a time, never the whole cache.
func (c *Concurrent) Scrub() (ScrubReport, error) { return c.eng.Scrub() }

// Stats folds the per-shard counters into an aggregate snapshot
// without taking any engine lock.
func (c *Concurrent) Stats() Stats { return c.eng.Stats() }

// Metrics folds the per-shard counters and latency histograms into one
// aggregate view without taking any engine lock.
func (c *Concurrent) Metrics() Metrics { return c.eng.Metrics() }

// ShardMetrics returns one shard's counters and latency histograms —
// the per-shard view (Metrics is the fold of all of them).
func (c *Concurrent) ShardMetrics(shard int) (Metrics, error) {
	return c.eng.ShardMetrics(shard)
}

// SubscribeEvents attaches a live RAS event tap with the given channel
// buffer. The fan-out never blocks: a full buffer drops events (the
// tap's Dropped counts them) rather than stalling an access, a repair,
// or a scrub pass. Close the subscription when done.
func (c *Concurrent) SubscribeEvents(buffer int) *RASSubscription {
	return c.eng.Events().Subscribe(buffer)
}

// SubscribeEventsFunc is SubscribeEvents with a selection predicate:
// only events for which keep returns true are offered to the tap — the
// multi-tenant server scopes each tenant's tap to its own address
// namespace this way. The predicate runs on the event append path, so
// it must be fast and must not call back into the engine; events it
// rejects are filtered, not counted as drops.
func (c *Concurrent) SubscribeEventsFunc(buffer int, keep func(RASEvent) bool) *RASSubscription {
	return c.eng.Events().SubscribeFunc(buffer, keep)
}

// StartScrub launches the background scrub daemon: incremental
// per-shard passes paced across the interval, with graceful
// Stop/Drain, optional adaptive policy, and backpressure when repair
// work outruns the interval.
func (c *Concurrent) StartScrub(cfg ScrubDaemonConfig) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.daemon != nil {
		if c.daemon.Running() {
			return ErrScrubAlreadyRunning
		}
		// Fold the stopped daemon's lifetime totals into the base so a
		// restart never zeroes the cumulative ScrubStats.
		c.scrubBase.Add(c.daemon.Stats())
		c.daemon = nil
	}
	if c.storm != nil {
		// Route interval decisions through the storm ladder; the inner
		// policy (possibly nil) still governs Normal operation.
		cfg.Policy = c.storm.Policy(cfg.Policy)
	}
	if cfg.StartShard == 0 && c.restoredCursor > 0 {
		// One-shot warm-restart hand-off: the first rotation resumes
		// where the persisted scrub cursor left off.
		cfg.StartShard = c.restoredCursor
		c.restoredCursor = 0
	}
	d, err := shard.NewScrubDaemon(c.eng, cfg)
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	c.daemon = d
	return nil
}

// StopScrub stops the daemon after its current per-shard pass.
func (c *Concurrent) StopScrub() error {
	if d := c.scrubDaemon(); d != nil {
		return d.Stop()
	}
	return ErrScrubNotRunning
}

// DrainScrub blocks until a full rotation started at or after the call
// completes — every fault present at the call has been seen by a
// scrub pass.
func (c *Concurrent) DrainScrub() error {
	if d := c.scrubDaemon(); d != nil {
		return d.Drain()
	}
	return ErrScrubNotRunning
}

// DrainScrubContext is DrainScrub bounded by a context: it returns the
// context's error if ctx fires before the target rotation completes.
// The daemon keeps running either way.
func (c *Concurrent) DrainScrubContext(ctx context.Context) error {
	if d := c.scrubDaemon(); d != nil {
		return d.DrainContext(ctx)
	}
	return ErrScrubNotRunning
}

// Health returns the engine-wide serviceability snapshot: the RAS
// event census and tail plus the current degradation state across all
// shards.
func (c *Concurrent) Health() Health {
	log := c.eng.Events()
	h := Health{
		Counts:             log.Counts(),
		Events:             log.Snapshot(),
		RetiredLines:       c.eng.RetiredLines(),
		SparesFree:         c.eng.SparesFree(),
		QuarantinedRegions: c.eng.QuarantinedRegions(),
		StuckCells:         c.eng.StuckCells(),
		Uptime:             time.Since(c.start),
		EventsDropped:      log.Dropped(),
	}
	ring := c.tracer.Ring()
	h.TracesPublished = ring.Published()
	h.TraceDrops = ring.Dropped()
	h.LastAnomalyAge = ring.LastAnomalyAge(time.Now())
	if d := c.scrubDaemon(); d != nil {
		h.ScrubRunning = d.Running()
		h.ScrubStalled = d.Stalled()
		h.ScrubWatchdog = d.Watchdog()
		if last := d.LastPass(); !last.IsZero() {
			h.LastScrubPass = last
			h.ScrubPassAge = time.Since(last)
		}
	}
	if ctl := c.stormController(); ctl != nil {
		h.Storm = ctl.Stats()
	}
	c.mu.Lock()
	h.RestoredAt = c.restoredAt
	h.SnapshotGeneration = c.snapGen
	h.RestoredLines = c.restoredLines
	c.mu.Unlock()
	if d := c.checkpointDaemon(); d != nil {
		h.CheckpointRunning = d.Running()
		h.CheckpointStale = d.Stale()
		if last := d.LastWrite(); !last.IsZero() {
			h.LastCheckpoint = last
			h.CheckpointAge = time.Since(last)
		}
		ck := c.CheckpointStats()
		h.CheckpointWrites = ck.Writes
		h.CheckpointFailures = ck.Failures
	}
	return h
}

// NewRegistry builds a metric registry over the engine: folded activity
// and repair counters, latency histograms, serviceability gauges, the
// per-kind RAS event census, per-shard traffic series, and the scrub
// daemon's counters, all pulled live at scrape time. Mount the result
// at /metrics (it implements http.Handler) or expvar.Publish it.
func (c *Concurrent) NewRegistry() *Registry {
	r := telemetry.NewRegistry()
	registerEngine(r, c)
	registerRuntime(r)
	registerTracer(r, c.tracer)
	registerServiceability(r, c)
	registerShards(r, c.eng)
	registerScrubDaemon(r, c)
	registerStorm(r, c)
	registerCheckpoint(r, c)
	return r
}

// RebuildQuarantined rebuilds every quarantined region in every shard
// and returns the total number returned to service.
func (c *Concurrent) RebuildQuarantined() (int, error) {
	return c.eng.RebuildQuarantined()
}

// ParityGroups returns the number of Hash-1 parity groups per shard —
// the valid group range for InjectParityFault.
func (c *Concurrent) ParityGroups() int { return c.eng.ParityGroups() }

// InjectParityFault flips one bit of a Hash-1 parity line in one shard
// — the fault the scrub-time quarantine audit exists to catch.
func (c *Concurrent) InjectParityFault(shard, group, bit int) error {
	return c.eng.InjectParityFault(shard, group, bit)
}

// RecordSDC records an externally detected silent data corruption — a
// read that returned successfully with data that does not match what
// was written, observed by an integrity checker outside the cache
// (e.g. the stress harness's shadow verifier).
func (c *Concurrent) RecordSDC(addr uint64, detail string) {
	c.eng.RecordEvent(ras.Event{
		Kind: ras.KindSDC, Shard: c.eng.ShardFor(addr),
		Line: ras.NoLine, Addr: addr, Detail: detail,
	})
}

// ScrubStats returns the daemon's aggregate counters, cumulative over
// the engine's lifetime: stopping and restarting the daemon carries
// the totals forward rather than resetting them (zero value if a
// daemon never started). Interval reflects the most recent daemon.
func (c *Concurrent) ScrubStats() ScrubDaemonStats {
	c.mu.Lock()
	total := c.scrubBase
	d := c.daemon
	c.mu.Unlock()
	if d != nil {
		total.Add(d.Stats())
	}
	return total
}

func (c *Concurrent) scrubDaemon() *shard.ScrubDaemon {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.daemon
}

// Geometry returns the engine's fault-model geometry, for compiling
// fault campaigns against it.
func (c *Concurrent) Geometry() FaultGeometry {
	return FaultGeometry{Lines: c.eng.Lines(), LineBits: c.eng.StoredBits()}
}

// ApplyFaults injects one compiled campaign interval across the shards:
// the planned transient flips plus any newly begun stuck-at cells. Each
// shard's injection takes only that shard's lock. It returns the number
// of flips that landed in live (non-retired) cells.
func (c *Concurrent) ApplyFaults(ip FaultIntervalPlan) (int, error) {
	return c.eng.ApplyFaults(ip)
}

// StartStormControl launches the storm controller: it consumes the RAS
// event tap, rates group-repair and DUE pressure through leaky-bucket
// detectors, and escalates StormState (Normal → Elevated → Critical),
// shrinking the scrub interval and issuing targeted scrubs and audits
// of hot regions. Start it before StartScrub so the daemon's interval
// policy picks up the storm override; de-escalation is additive-slow
// (one level per quiet window).
func (c *Concurrent) StartStormControl(cfg StormConfig) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.storm != nil && c.storm.Running() {
		return ErrStormRunning
	}
	ctl, err := shard.NewStormController(c.eng, cfg)
	if err != nil {
		return err
	}
	if c.stormResume != nil {
		// One-shot warm-restart hand-off: re-arm the ladder level and
		// detector fills persisted by the dead process.
		ctl.Resume(*c.stormResume, time.Now())
		c.stormResume = nil
	}
	if err := ctl.Start(); err != nil {
		return err
	}
	c.storm = ctl
	return nil
}

// StopStormControl stops the controller. Its final state and counters
// remain readable via StormState and StormStats.
func (c *Concurrent) StopStormControl() error {
	c.mu.Lock()
	ctl := c.storm
	c.mu.Unlock()
	if ctl == nil {
		return ErrStormNotRunning
	}
	return ctl.Stop()
}

// StormState returns the current defense-ladder level (StormNormal when
// no controller was ever started).
func (c *Concurrent) StormState() StormState {
	c.mu.Lock()
	ctl := c.storm
	c.mu.Unlock()
	if ctl == nil {
		return StormNormal
	}
	return ctl.State()
}

// StormStats returns the controller's counter snapshot (zero value when
// no controller was ever started).
func (c *Concurrent) StormStats() StormStats {
	c.mu.Lock()
	ctl := c.storm
	c.mu.Unlock()
	if ctl == nil {
		return StormStats{}
	}
	return ctl.Stats()
}

func (c *Concurrent) stormController() *shard.StormController {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.storm
}

// ReliabilityConfig parameterizes the closed-form evaluation.
type ReliabilityConfig struct {
	// MeanDelta is the STTRAM thermal stability factor (35).
	MeanDelta float64
	// SigmaFrac is the Δ process variation (0.10).
	SigmaFrac float64
	// ScrubInterval is the scrub period (20 ms).
	ScrubInterval time.Duration
	// CacheMB is the capacity (64).
	CacheMB int
	// UsePaperBER forces the paper's rounded 5.3×10⁻⁶ instead of the
	// device model's integral.
	UsePaperBER bool
}

// DefaultReliabilityConfig returns the paper's operating point.
func DefaultReliabilityConfig() ReliabilityConfig {
	return ReliabilityConfig{
		MeanDelta:     35,
		SigmaFrac:     0.10,
		ScrubInterval: 20 * time.Millisecond,
		CacheMB:       64,
	}
}

// SchemeReliability is one scheme's closed-form result.
type SchemeReliability = analytic.SchemeResult

// ReliabilityReport carries the headline comparison.
type ReliabilityReport struct {
	// BER is the bit error rate per scrub interval used.
	BER float64
	// X, Y, Z are the SuDoku variants' results.
	X, Y, Z SchemeReliability
	// ECC6FIT is the uniform ECC-6 baseline FIT (0.092 in Table II).
	ECC6FIT float64
	// ZAdvantage is ECC6FIT / Z.FIT — the paper's headline "874×".
	ZAdvantage float64
}

// AnalyzeReliability evaluates the analytical models at the given
// operating point.
func AnalyzeReliability(rc ReliabilityConfig) (ReliabilityReport, error) {
	var rep ReliabilityReport
	ber := sttram.PaperBER20ms
	if !rc.UsePaperBER {
		model, err := sttram.New(rc.MeanDelta, sttram.WithSigmaFrac(rc.SigmaFrac))
		if err != nil {
			return rep, err
		}
		ber = model.BER(rc.ScrubInterval.Seconds())
	}
	cfg := analytic.Default()
	cfg.BER = ber
	cfg.ScrubInterval = rc.ScrubInterval
	if rc.CacheMB > 0 {
		cfg.NumLines = rc.CacheMB << 20 / 64
	}
	if err := cfg.Validate(); err != nil {
		return rep, err
	}
	rep.BER = ber
	rep.X = cfg.SuDokuX()
	rep.Y = cfg.SuDokuY()
	rep.Z = cfg.SuDokuZ()
	ecc6, err := cfg.ECCk(6)
	if err != nil {
		return rep, err
	}
	rep.ECC6FIT = ecc6.FIT
	if rep.Z.FIT > 0 {
		rep.ZAdvantage = ecc6.FIT / rep.Z.FIT
	}
	return rep, nil
}

// SimConfig parameterizes Monte Carlo fault injection.
type SimConfig struct {
	// Protection is the repair level under test.
	Protection Protection
	// CacheMB is the capacity (64).
	CacheMB int
	// GroupSize is the RAID-group size (512).
	GroupSize int
	// BER is the raw bit error rate per scrub interval.
	BER float64
	// Intervals is the number of 20 ms scrub intervals to simulate.
	Intervals int
	// Seed makes the run reproducible.
	Seed uint64
}

// SimResult aggregates Monte Carlo outcomes.
type SimResult = faultsim.Result

// Simulate runs event-driven fault injection and repair.
func Simulate(sc SimConfig) (SimResult, error) {
	lines := 1 << 20
	if sc.CacheMB > 0 {
		lines = sc.CacheMB << 20 / 64
	}
	group := 512
	if sc.GroupSize > 0 {
		group = sc.GroupSize
	}
	sim, err := faultsim.New(faultsim.Config{
		Params: core.Params{NumLines: lines, GroupSize: group},
		Level:  sc.Protection,
		BER:    sc.BER,
		Seed:   sc.Seed,
	})
	if err != nil {
		return SimResult{}, err
	}
	return sim.Run(sc.Intervals)
}

// SRAMVminRow is one row of the §VI low-voltage SRAM comparison.
type SRAMVminRow = analytic.SRAMVminRow

// AnalyzeSRAMVmin evaluates SuDoku on low-voltage SRAM (§VI,
// Table IV): the probability that a cacheMB-sized SRAM cache with
// persistent faults at the given BER fails under uniform ECC-7/8/9
// versus SuDoku.
func AnalyzeSRAMVmin(cacheMB int, ber float64) ([]SRAMVminRow, error) {
	if cacheMB <= 0 {
		return nil, fmt.Errorf("sudoku: cacheMB %d", cacheMB)
	}
	if ber <= 0 || ber >= 1 {
		return nil, fmt.Errorf("sudoku: BER %v outside (0,1)", ber)
	}
	return analytic.SRAMVminTable(cacheMB<<20/64, ber), nil
}

// DeviceBER returns the population bit error rate of an STTRAM array
// with the given thermal stability over one scrub interval (Eq. 1
// integrated over Δ process variation) — Table I's quantity.
func DeviceBER(meanDelta, sigmaFrac float64, interval time.Duration) (float64, error) {
	model, err := sttram.New(meanDelta, sttram.WithSigmaFrac(sigmaFrac))
	if err != nil {
		return 0, err
	}
	return model.BER(interval.Seconds()), nil
}
