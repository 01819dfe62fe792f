// Package cache implements the STTRAM last-level cache substrate: a
// set-associative, banked, write-back cache whose lines are protected
// by the SuDoku architecture (per-line ECC-1 + CRC-31, dual skew-hashed
// RAID-4 parity tables, periodic scrub).
//
// The cache is both functional (it stores real data, so examples can
// write, corrupt, scrub, and read back) and timed (per-bank
// serialization, STTRAM read/write latencies of 9/18 ns, the 1-cycle
// CRC syndrome check of §III-B). Table VI gives the reference
// configuration: 64 MB shared, 8-way, 64 B lines.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"sudoku/internal/bitvec"
	"sudoku/internal/core"
	"sudoku/internal/ras"
	"sudoku/internal/telemetry"
)

// Memory is the next level below the LLC (DRAM): a timing model that
// services a line transfer issued at time now and returns its latency.
type Memory interface {
	Access(now time.Duration, addr uint64, write bool) time.Duration
}

// Config describes the cache organization.
type Config struct {
	// Lines is the total number of cache lines (power of two).
	Lines int
	// Ways is the set associativity.
	Ways int
	// LineBytes is the line size (64).
	LineBytes int
	// GroupSize is the RAID-group size (512).
	GroupSize int
	// Protection selects the SuDoku variant; it also enables the
	// per-access CRC check cycle. Zero disables protection entirely
	// (the idealized error-free baseline of Figures 8 and 9).
	Protection core.Protection
	// ReadLatency and WriteLatency are the STTRAM array timings
	// (Table VI: 9 ns and 18 ns).
	ReadLatency, WriteLatency time.Duration
	// Banks is the number of independently timed banks.
	Banks int
	// CRCCheckCycles is the syndrome-check latency in core cycles
	// (§III-B: one cycle).
	CRCCheckCycles int
	// ClockGHz converts check cycles to time (3.2 GHz).
	ClockGHz float64
	// ECCStrength is the per-line inner-code capability (0 or 1 = the
	// paper's ECC-1; 2 = the §VII-G BCH enhancement).
	ECCStrength int
	// MaxMismatch overrides the SDR candidate cap (0 = paper default
	// of 6; raise it alongside ECCStrength ≥ 2).
	MaxMismatch int
	// RetireCEThreshold enables line retirement: a line whose
	// correctable-error leaky bucket (fed by repairs, drained every few
	// scrub passes) reaches this count is remapped to a spare line and
	// withdrawn from the STTRAM array. Zero disables retirement.
	// Requires protection.
	RetireCEThreshold int
	// SpareLines is the spare-pool size for retirement (per cache; in
	// the sharded engine, per shard). Zero with retirement enabled
	// selects DefaultSpareLines. Spares model hardened (SRAM-class)
	// replacement rows: they sit outside the parity domain and absorb
	// injected faults.
	SpareLines int
	// QuarantineAuditPasses enables region quarantine: every N scrub
	// passes the scrubber audits each Hash-1 parity group, and a group
	// whose member lines all check clean while the group parity
	// mismatches — the signature of a bad parity line — is quarantined:
	// writes bypass its parity accounting and scrub skips its lines
	// until RebuildQuarantined recomputes the parity. Zero disables the
	// audit. Requires protection.
	QuarantineAuditPasses int
	// DisableFastReads turns off the lock-free seqlock read fast path
	// (fastpath.go), forcing every read hit through the mutex. The
	// contended-throughput regression gate uses it as the "locked"
	// baseline; production configs leave it false. The fast path also
	// self-disables when Protection == 0 (no CRC to validate snapshots
	// with).
	DisableFastReads bool
}

// DefaultSpareLines is the spare-pool size used when retirement is
// enabled without an explicit SpareLines.
const DefaultSpareLines = 8

// ceDecayPasses is the leaky-bucket drain period: every this many
// scrub passes, all correctable-error buckets are halved. A chronic
// line (≥1 repair per pass) therefore climbs toward 2·ceDecayPasses
// while a line with a one-off burst decays back to zero.
const ceDecayPasses = 4

// DefaultConfig returns the Table VI cache: 64 MB, 8-way, 64 B lines,
// SuDoku-Z protection.
func DefaultConfig() Config {
	return Config{
		Lines:          1 << 20,
		Ways:           8,
		LineBytes:      64,
		GroupSize:      512,
		Protection:     core.ProtectionZ,
		ReadLatency:    9 * time.Nanosecond,
		WriteLatency:   18 * time.Nanosecond,
		Banks:          32,
		CRCCheckCycles: 1,
		ClockGHz:       3.2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Lines <= 0 || bits.OnesCount(uint(c.Lines)) != 1:
		return fmt.Errorf("cache: Lines %d must be a power of two", c.Lines)
	case c.Ways <= 0 || c.Lines%c.Ways != 0:
		return fmt.Errorf("cache: Ways %d", c.Ways)
	case c.LineBytes != 64:
		return fmt.Errorf("cache: only 64-byte lines are supported, got %d", c.LineBytes)
	case c.Banks <= 0 || bits.OnesCount(uint(c.Banks)) != 1:
		return fmt.Errorf("cache: Banks %d must be a power of two", c.Banks)
	case c.ReadLatency <= 0 || c.WriteLatency <= 0:
		return fmt.Errorf("cache: latencies %v/%v", c.ReadLatency, c.WriteLatency)
	case c.ClockGHz <= 0:
		return fmt.Errorf("cache: clock %v GHz", c.ClockGHz)
	case c.RetireCEThreshold < 0:
		return fmt.Errorf("cache: RetireCEThreshold %d", c.RetireCEThreshold)
	case c.SpareLines < 0:
		return fmt.Errorf("cache: SpareLines %d", c.SpareLines)
	case c.QuarantineAuditPasses < 0:
		return fmt.Errorf("cache: QuarantineAuditPasses %d", c.QuarantineAuditPasses)
	case c.Protection == 0 && (c.RetireCEThreshold > 0 || c.QuarantineAuditPasses > 0):
		return fmt.Errorf("cache: retirement/quarantine require protection")
	}
	if c.Protection != 0 {
		p := core.Params{NumLines: c.Lines, GroupSize: c.GroupSize}
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Stats is a snapshot of the cache activity counters.
type Stats struct {
	Reads, Writes     int64
	Hits, Misses      int64
	Evictions         int64
	WriteBacks        int64
	PLTWrites         int64
	SingleRepairs     int64
	SDRRepairs        int64
	RAIDRepairs       int64
	Hash2Repairs      int64
	UncorrectableDUEs int64
	ScrubPasses       int64
	FaultsInjected    int64
	// DUERecovered counts clean-line DUEs transparently recovered by a
	// refetch from the backing memory (the access succeeded).
	DUERecovered int64
	// DUEDataLoss counts dirty-line DUEs whose only copy was lost (the
	// access failed, or the dirty victim was dropped on eviction).
	DUEDataLoss int64
	// LinesRetired counts lines remapped to the spare pool.
	LinesRetired int64
	// CRCDetects counts accesses and scrub probes whose CRC-31 syndrome
	// flagged the stored codeword as faulty — the paper's per-access
	// detection events, before any repair is attempted.
	CRCDetects int64
	// TargetedScrubs counts out-of-band single-region scrubs (the storm
	// controller's ScrubRegion calls); deliberately separate from
	// ScrubPasses so rotation accounting stays honest.
	TargetedScrubs int64
	// SeqlockReads counts read hits served by the lock-free seqlock
	// fast path (already included in Reads/Hits).
	SeqlockReads int64
	// SeqlockFallbacks counts optimistic read attempts abandoned to the
	// locked path after locating the line: torn copies, concurrent
	// publishes, unpublished or invalidated mirrors, or CRC-flagged
	// snapshots. Misses are not fallbacks.
	SeqlockFallbacks int64
}

// Add accumulates another snapshot into s — the sharded engine folds
// per-shard snapshots through this.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.WriteBacks += o.WriteBacks
	s.PLTWrites += o.PLTWrites
	s.SingleRepairs += o.SingleRepairs
	s.SDRRepairs += o.SDRRepairs
	s.RAIDRepairs += o.RAIDRepairs
	s.Hash2Repairs += o.Hash2Repairs
	s.UncorrectableDUEs += o.UncorrectableDUEs
	s.ScrubPasses += o.ScrubPasses
	s.FaultsInjected += o.FaultsInjected
	s.DUERecovered += o.DUERecovered
	s.DUEDataLoss += o.DUEDataLoss
	s.LinesRetired += o.LinesRetired
	s.CRCDetects += o.CRCDetects
	s.TargetedScrubs += o.TargetedScrubs
	s.SeqlockReads += o.SeqlockReads
	s.SeqlockFallbacks += o.SeqlockFallbacks
}

// Metrics extends Stats with the per-operation latency distributions:
// everything a monitoring scrape needs from one cache (or one shard).
type Metrics struct {
	Stats
	// ReadHit/ReadMiss/WriteHit/WriteMiss are modeled access-latency
	// distributions in nanoseconds (bank serialization, STTRAM timings,
	// CRC check, memory on misses).
	ReadHit   telemetry.HistogramSnapshot
	ReadMiss  telemetry.HistogramSnapshot
	WriteHit  telemetry.HistogramSnapshot
	WriteMiss telemetry.HistogramSnapshot
	// DUERefetch is the extra recovery latency of clean-line DUE
	// refetches on the read path.
	DUERefetch telemetry.HistogramSnapshot
	// ScrubPass is the wall-clock duration of full scrub passes.
	ScrubPass telemetry.HistogramSnapshot
}

// Add folds another Metrics into m — the sharded engine merges
// per-shard metrics through this.
func (m *Metrics) Add(o Metrics) {
	m.Stats.Add(o.Stats)
	m.ReadHit.Add(o.ReadHit)
	m.ReadMiss.Add(o.ReadMiss)
	m.WriteHit.Add(o.WriteHit)
	m.WriteMiss.Add(o.WriteMiss)
	m.DUERefetch.Add(o.DUERefetch)
	m.ScrubPass.Add(o.ScrubPass)
}

// counters is the live, lock-free form of Stats. Increment sites run
// under the engine mutex anyway, but keeping the counters atomic lets
// Stats() snapshot them without taking that lock — a monitoring read
// never stalls behind a group repair in progress.
type counters struct {
	reads, writes     atomic.Int64
	hits, misses      atomic.Int64
	evictions         atomic.Int64
	writeBacks        atomic.Int64
	pltWrites         atomic.Int64
	singleRepairs     atomic.Int64
	sdrRepairs        atomic.Int64
	raidRepairs       atomic.Int64
	hash2Repairs      atomic.Int64
	uncorrectableDUEs atomic.Int64
	scrubPasses       atomic.Int64
	faultsInjected    atomic.Int64
	dueRecovered      atomic.Int64
	dueDataLoss       atomic.Int64
	linesRetired      atomic.Int64
	crcDetects        atomic.Int64
	targetedScrubs    atomic.Int64
	seqlockReads      atomic.Int64
	seqlockFallbacks  atomic.Int64
}

// snapshot loads every counter. Loads are individually atomic, not a
// consistent cut; monitoring tolerates a counter landing one op early.
func (c *counters) snapshot() Stats {
	return Stats{
		Reads:             c.reads.Load(),
		Writes:            c.writes.Load(),
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Evictions:         c.evictions.Load(),
		WriteBacks:        c.writeBacks.Load(),
		PLTWrites:         c.pltWrites.Load(),
		SingleRepairs:     c.singleRepairs.Load(),
		SDRRepairs:        c.sdrRepairs.Load(),
		RAIDRepairs:       c.raidRepairs.Load(),
		Hash2Repairs:      c.hash2Repairs.Load(),
		UncorrectableDUEs: c.uncorrectableDUEs.Load(),
		ScrubPasses:       c.scrubPasses.Load(),
		FaultsInjected:    c.faultsInjected.Load(),
		DUERecovered:      c.dueRecovered.Load(),
		DUEDataLoss:       c.dueDataLoss.Load(),
		LinesRetired:      c.linesRetired.Load(),
		CRCDetects:        c.crcDetects.Load(),
		TargetedScrubs:    c.targetedScrubs.Load(),
		SeqlockReads:      c.seqlockReads.Load(),
		SeqlockFallbacks:  c.seqlockFallbacks.Load(),
	}
}

// histograms is the cache's latency-distribution block. readHit is the
// exception: the seqlock fast path records hits WITHOUT holding c.mu,
// so a LocalHistogram's plain increments would race the locked path's —
// it uses a set-striped atomic telemetry.Striped instead (distinct sets
// land on distinct stripes, so the atomic adds rarely share a cache
// line; the ~14 ns atomic-store cost only bites when they do). Every
// other series records AND snapshots under c.mu, so the
// synchronization-free LocalHistogram still applies there: a record is
// a plain increment (~2 ns), which is what keeps those paths within the
// telemetry overhead budget.
type histograms struct {
	readHit             *telemetry.Striped
	readMiss            telemetry.LocalHistogram
	writeHit, writeMiss telemetry.LocalHistogram
	dueRefetch          telemetry.LocalHistogram
	scrubPass           telemetry.LocalHistogram
}

// readHitStripes is the stripe count for the read-hit histogram: wide
// enough that 64 concurrent readers on distinct sets rarely collide,
// small enough that the bucket arrays stay cache-resident.
const readHitStripes = 64

// way is one slot's tag metadata. The slots live in one flat array
// indexed by physical line (set*Ways + way), so the whole tag store is a
// single pointer-free allocation.
type way struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

// STTRAM is the protected cache. All methods are safe for concurrent
// use (a single mutex serializes state, mirroring the per-bank request
// queues of §VII-I at the fidelity this model needs).
type STTRAM struct {
	cfg    Config
	mem    Memory
	params core.Params
	codec  *core.LineCodec
	zeng   *core.ZEngine
	plt1   *core.PLT
	plt2   *core.PLT

	mu      sync.Mutex
	numSets int
	ways    []way // physical line index -> slot metadata

	// The line store: one codeword arena of Lines rows, nw words each
	// (row phys holds bits [0, lineBits) of line phys's stored codeword,
	// or its raw payload when protection is off), and a bitmap of the
	// materialized lines — those written, faulted or handed to a repair.
	// Both are allocated on the first functional access, so timing-only
	// callers never pay for them; an unmaterialized row is the zero
	// codeword (valid: CRC(0)=0).
	nw       int
	lineBits int
	arena    []uint64
	live     []uint64

	backing  map[uint64][]byte
	zeroLine []byte               // read-only payload of a line never written back
	stuck    map[int]map[int]bool // phys -> bit -> forced value (§VI permanent faults)
	bankFree []float64            // per-bank next-free time, float64 ns
	useClock atomic.Uint64        // LRU clock; atomic: the fast path ticks it lock-free
	scr      scratch
	stats    counters

	// scrubbing is set for the duration of a full scrub pass or a
	// targeted region scrub (before the mutex is taken, cleared after it
	// is released): a traced operation that arrives while it is set will
	// queue behind the scrubber, and notes that interference on its
	// trace before blocking.
	scrubbing atomic.Bool

	// fp is the seqlock read fast path (fastpath.go); nil when disabled.
	fp *fastPath
	// rewritten lists the lines whose codewords the current scrub, group
	// repair or rebuild may rewrite; their mirrors are odd until
	// resyncRewritten republishes them (fastpath.go).
	rewritten []int
	// view is the repair engine's window onto the arena.
	view cacheView

	// events is the RAS sink; emissions happen under c.mu with Shard 0
	// and shard-local Line/Addr (the sharded engine's sink remaps them
	// to whole-cache coordinates). Nil drops events.
	events func(ras.Event)

	// Retirement state (RetireCEThreshold > 0): ceBucket is the
	// per-line leaky bucket, retired the phys→spare remap table, and
	// spareData the hardened spare rows (allocated on retirement).
	ceBucket  map[int]int
	retired   map[int]int
	spareData [][]byte
	spareUsed int
	decayTick int

	// Quarantine state (QuarantineAuditPasses > 0): Hash-1 groups
	// whose parity line failed the audit and awaits a rebuild.
	quarantined map[int]bool
	auditTick   int

	// hist sits last: its ~2 KB of bucket counters would otherwise
	// push the fields above onto distant cache lines and measurably
	// slow the uninstrumented parts of the hit path.
	hist histograms
}

// scratch holds the reusable line-sized staging vectors for the
// steady-state read/write paths. Ownership rule: only methods already
// holding c.mu may touch these, and never across an unlock — the mutex
// makes the cache a single-holder, so one set per cache replaces a
// sync.Pool without its per-Get overhead. The sharded engine gives
// each shard its own STTRAM and therefore its own scratch.
type scratch struct {
	data      *bitvec.Vector // payload staging (DataBits)
	newStored *bitvec.Vector // freshly encoded codeword (StoredBits)
	delta     *bitvec.Vector // old⊕new parity delta (StoredBits)
	audit     *bitvec.Vector // parity-audit group accumulator (StoredBits)
	// probe is re-aimed at one arena row at a time for the scrub loops:
	// LineCodec.Validate retains its argument as far as escape analysis
	// can tell, so a stack view handed to it would cost an allocation per
	// line checked. Everything else takes a stack view of the row.
	probe *bitvec.Vector
}

var _ core.CacheView = (*cacheView)(nil)

// cacheView adapts the arena to core.CacheView for the group repair.
// The repair engine holds every member's vector until it returns, so
// Line hands out headers from a slab that repairGroup resets per call.
// Each header aliases its line's arena row, so one handed out before
// the slab grew stays valid. Line also turns the line's mirror odd and
// records it: the repair may rewrite any line it was handed, and the
// caller resyncs exactly those once the repair settles.
type cacheView struct {
	c    *STTRAM
	hdrs []bitvec.Vector
}

func (v *cacheView) Line(idx int) (*bitvec.Vector, error) {
	c := v.c
	if idx < 0 || idx >= c.cfg.Lines {
		return nil, fmt.Errorf("cache: line %d out of range", idx)
	}
	c.noteRewrite(idx)
	v.hdrs = append(v.hdrs, c.lineView(idx))
	return &v.hdrs[len(v.hdrs)-1], nil
}

// repairGroup runs the SuDoku-Z repair of one Hash-1 group over the
// arena. Callers hold c.mu; every line the repair touched is on
// c.rewritten when it returns, error or not.
func (c *STTRAM) repairGroup(group int) (core.ZReport, error) {
	c.view.hdrs = c.view.hdrs[:0]
	return c.zeng.RepairHash1Group(&c.view, group)
}

// New builds the cache on top of the given memory.
func New(cfg Config, mem Memory) (*STTRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil {
		return nil, errors.New("cache: nil memory")
	}
	c := &STTRAM{
		cfg:      cfg,
		mem:      mem,
		numSets:  cfg.Lines / cfg.Ways,
		ways:     make([]way, cfg.Lines),
		lineBits: cfg.LineBytes * 8,
		backing:  make(map[uint64][]byte),
		zeroLine: make([]byte, cfg.LineBytes),
		stuck:    make(map[int]map[int]bool),
		bankFree: make([]float64, cfg.Banks),
	}
	c.view.c = c
	if cfg.Protection != 0 {
		strength := cfg.ECCStrength
		if strength == 0 {
			strength = 1
		}
		mismatchCap := cfg.MaxMismatch
		if mismatchCap == 0 {
			mismatchCap = core.DefaultMaxMismatch
			if strength > 1 {
				// SDR on t-strength lines needs 2(t+1) candidate
				// positions for the canonical pair case.
				mismatchCap = 2*(strength+1) + 2
			}
		}
		var err error
		c.codec, err = core.NewLineCodecECC(cfg.LineBytes*8, strength)
		if err != nil {
			return nil, err
		}
		engine, err := core.NewEngine(c.codec, cfg.Protection, core.WithMaxMismatch(mismatchCap))
		if err != nil {
			return nil, err
		}
		c.params = core.Params{NumLines: cfg.Lines, GroupSize: cfg.GroupSize}
		c.plt1, err = core.NewPLT(c.params.NumGroups(), c.codec.StoredBits())
		if err != nil {
			return nil, err
		}
		c.plt2, err = core.NewPLT(c.params.NumGroups(), c.codec.StoredBits())
		if err != nil {
			return nil, err
		}
		c.zeng, err = core.NewZEngine(engine, c.params, c.plt1, c.plt2)
		if err != nil {
			return nil, err
		}
		c.scr = scratch{
			data:      bitvec.New(c.codec.DataBits()),
			newStored: bitvec.New(c.codec.StoredBits()),
			delta:     bitvec.New(c.codec.StoredBits()),
			audit:     bitvec.New(c.codec.StoredBits()),
			probe:     new(bitvec.Vector),
		}
		c.lineBits = c.codec.StoredBits()
		if cfg.RetireCEThreshold > 0 {
			spares := cfg.SpareLines
			if spares == 0 {
				spares = DefaultSpareLines
			}
			c.ceBucket = make(map[int]int)
			c.retired = make(map[int]int)
			c.spareData = make([][]byte, spares)
		}
		if cfg.QuarantineAuditPasses > 0 {
			c.quarantined = make(map[int]bool)
		}
		if !cfg.DisableFastReads {
			c.fp = newFastPath(cfg.Lines, c.codec.StoredBits())
		}
	}
	c.nw = (c.lineBits + bitvec.WordBits - 1) / bitvec.WordBits
	c.hist.readHit = telemetry.NewStriped(readHitStripes)
	return c, nil
}

// SetEventSink installs the RAS event sink. Events are emitted while
// the engine mutex is held, so the sink must be fast and must not call
// back into the cache. Install it before traffic starts.
func (c *STTRAM) SetEventSink(fn func(ras.Event)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = fn
}

// emit sends one RAS event to the sink (if any). Callers hold c.mu.
func (c *STTRAM) emit(kind ras.EventKind, phys int, addr uint64, detail string) {
	if c.events == nil {
		return
	}
	c.events(ras.Event{Kind: kind, Line: phys, Addr: addr, Detail: detail})
}

// RetiredLines returns the number of lines remapped to spares.
func (c *STTRAM) RetiredLines() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.retired)
}

// SparesFree returns the number of unused spare lines.
func (c *STTRAM) SparesFree() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spareData) - c.spareUsed
}

// QuarantinedRegions returns the number of Hash-1 groups currently
// quarantined.
func (c *STTRAM) QuarantinedRegions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.quarantined)
}

// ParityGroups returns the number of Hash-1 parity groups (0 when
// protection is off).
func (c *STTRAM) ParityGroups() int {
	if c.cfg.Protection == 0 {
		return 0
	}
	return c.params.NumGroups()
}

// Stats returns a snapshot of the counters. It is lock-free: the
// counters are atomics, so a snapshot never waits behind an access or a
// repair holding the engine mutex.
func (c *STTRAM) Stats() Stats {
	return c.stats.snapshot()
}

// Metrics returns the counters plus the latency histograms. The
// counter block is lock-free (atomics), but the histogram snapshots
// briefly take the engine mutex: keeping the record sites
// synchronization-free is what holds telemetry inside the hot-path
// overhead budget, and a scrape-rate reader waiting out an access is
// the right side of that trade.
func (c *STTRAM) Metrics() Metrics {
	m := Metrics{Stats: c.stats.snapshot()}
	// readHit is atomic (the fast path records into it lock-free), so
	// its snapshot needs no mutex.
	m.ReadHit = c.hist.readHit.Snapshot()
	c.mu.Lock()
	m.ReadMiss = c.hist.readMiss.Snapshot()
	m.WriteHit = c.hist.writeHit.Snapshot()
	m.WriteMiss = c.hist.writeMiss.Snapshot()
	m.DUERefetch = c.hist.dueRefetch.Snapshot()
	m.ScrubPass = c.hist.scrubPass.Snapshot()
	c.mu.Unlock()
	return m
}

// row returns a physical line's arena row, materializing the line:
// Scrub checks it from now on. Callers hold c.mu and pass an index in
// [0, Lines).
func (c *STTRAM) row(phys int) []uint64 {
	if c.arena == nil {
		c.allocStore()
	}
	c.live[phys/64] |= 1 << (phys % 64)
	return c.arena[phys*c.nw : (phys+1)*c.nw : (phys+1)*c.nw]
}

// allocStore allocates the codeword arena and the materialized-line
// bitmap on the first functional access.
func (c *STTRAM) allocStore() {
	c.arena = make([]uint64, c.cfg.Lines*c.nw)
	c.live = make([]uint64, (c.cfg.Lines+63)/64)
}

// lineView wraps a line's arena row (materializing it) as a
// lineBits-wide vector that aliases the arena: mutations through it are
// mutations of the stored codeword.
func (c *STTRAM) lineView(phys int) bitvec.Vector {
	return bitvec.View(c.row(phys), c.lineBits)
}

// probeView aims the scratch probe header at a line's arena row and
// returns it. The header is shared: it is valid until the next call.
func (c *STTRAM) probeView(phys int) *bitvec.Vector {
	*c.scr.probe = c.lineView(phys)
	return c.scr.probe
}

// isLive reports whether a line has been materialized.
func (c *STTRAM) isLive(phys int) bool {
	return c.live != nil && c.live[phys/64]&(1<<(phys%64)) != 0
}

// setWays returns the slot metadata of one set.
func (c *STTRAM) setWays(set int) []way {
	base := set * c.cfg.Ways
	return c.ways[base : base+c.cfg.Ways]
}

func (c *STTRAM) setIndex(addr uint64) int {
	return int((addr / uint64(c.cfg.LineBytes)) % uint64(c.numSets))
}

func (c *STTRAM) tagOf(addr uint64) uint64 {
	return addr / uint64(c.cfg.LineBytes) / uint64(c.numSets)
}

func (c *STTRAM) physIndex(set, wayIdx int) int {
	return set*c.cfg.Ways + wayIdx
}

func (c *STTRAM) lineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineBytes-1)
}

// victimAddr is the line address of the block that set holds under
// tag: the inverse of setIndex and tagOf, used for write-backs.
func (c *STTRAM) victimAddr(set int, tag uint64) uint64 {
	return (tag*uint64(c.numSets) + uint64(set)) * uint64(c.cfg.LineBytes)
}

// crcCheckNs is the per-access syndrome-check latency in nanoseconds
// (0.3125 ns for one 3.2 GHz cycle — sub-nanosecond, hence the float64
// time base of the timing model).
func (c *STTRAM) crcCheckNs() float64 {
	if c.cfg.Protection == 0 {
		return 0
	}
	return float64(c.cfg.CRCCheckCycles) / c.cfg.ClockGHz
}

// bankServe serializes an access on the line's bank and returns the
// service completion latency (ns) relative to nowNs.
func (c *STTRAM) bankServe(nowNs float64, set int, serviceNs float64) float64 {
	bank := set % c.cfg.Banks
	start := nowNs
	if c.bankFree[bank] > start {
		start = c.bankFree[bank]
	}
	c.bankFree[bank] = start + serviceNs
	return start + serviceNs - nowNs
}

func ns(d time.Duration) float64 { return float64(d) / float64(time.Nanosecond) }

func dur(nsv float64) time.Duration {
	return time.Duration(nsv * float64(time.Nanosecond))
}

// lookup finds the way holding addr, or -1.
func (c *STTRAM) lookup(set int, tag uint64) int {
	ways := c.setWays(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return i
		}
	}
	return -1
}

// victim picks the LRU way of a set. lastUse is loaded atomically
// because the fast path touches it without the mutex.
func (c *STTRAM) victim(set int) int {
	best, bestUse := 0, ^uint64(0)
	ways := c.setWays(set)
	for i := range ways {
		if !ways[i].valid {
			return i
		}
		if use := atomic.LoadUint64(&ways[i].lastUse); use < bestUse {
			best, bestUse = i, use
		}
	}
	return best
}

// AccessTiming performs a timing-only access (tags, banks, memory),
// without touching line contents, and returns the latency in
// nanoseconds. The performance simulator drives millions of these per
// workload.
func (c *STTRAM) AccessTiming(nowNs float64, addr uint64, write bool) (latencyNs float64, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.setIndex(addr)
	tag := c.tagOf(addr)
	if write {
		c.stats.writes.Add(1)
	} else {
		c.stats.reads.Add(1)
	}
	w := c.lookup(set, tag)
	if w >= 0 {
		c.stats.hits.Add(1)
		c.touchWay(set, w)
		if write {
			c.ways[c.physIndex(set, w)].dirty = true
			// Read-modify-write (§III-B) plus the PLT parity update;
			// the SRAM PLT is banked like the cache and never
			// bottlenecks (§VII-I), so only the STTRAM op is timed.
			if c.cfg.Protection != 0 {
				c.stats.pltWrites.Add(2)
			}
			lat := c.bankServe(nowNs, set, ns(c.cfg.ReadLatency+c.cfg.WriteLatency)) + c.crcCheckNs()
			c.hist.writeHit.ObserveNs(int64(lat))
			return lat, true
		}
		lat := c.bankServe(nowNs, set, ns(c.cfg.ReadLatency)) + c.crcCheckNs()
		c.hist.readHit.Stripe(set).ObserveNs(int64(lat))
		return lat, true
	}
	// Miss: fetch from memory, fill, possibly write back the victim.
	c.stats.misses.Add(1)
	v := c.victim(set)
	if e := &c.ways[c.physIndex(set, v)]; e.valid {
		c.stats.evictions.Add(1)
		if e.dirty {
			c.stats.writeBacks.Add(1)
			_ = c.mem.Access(dur(nowNs), c.victimAddr(set, e.tag), true)
		}
	}
	memLat := ns(c.mem.Access(dur(nowNs), c.lineAddr(addr), false))
	// Timing-only fill: the slot's identity changes while the arena keeps
	// the old occupant's codeword, so the mirror must go odd BEFORE the
	// new tag is published (a fast reader of the new tag must never
	// validate the old data).
	c.invalidateMirror(c.physIndex(set, v))
	c.setWay(set, v, tag, true, write, c.useClock.Add(1))
	if c.cfg.Protection != 0 {
		c.stats.pltWrites.Add(2) // fill updates both parity tables
	}
	fill := c.bankServe(nowNs+memLat, set, ns(c.cfg.WriteLatency))
	lat := memLat + fill + c.crcCheckNs()
	if write {
		c.hist.writeMiss.ObserveNs(int64(lat))
	} else {
		c.hist.readMiss.ObserveNs(int64(lat))
	}
	return lat, false
}
