// Package shard implements the bank-sharded concurrent front end over
// the functional cache substrate: the whole-cache line space is
// interleaved across N independently locked shards, each backed by its
// own cache.STTRAM (sets, parity tables, bank timing, repair engine)
// plus a private rng.Source child stream, so reads, writes, fault
// injection, repairs, and scrub passes on different shards never
// contend on a shared mutex.
//
// # Sharding map
//
// A 64-byte line with index L (= addr/64) lives in shard L mod N, at
// sub-line index L div N — the same low-order interleaving the 32-bank
// STTRAM device uses (§VII-I), so consecutive lines stripe across
// shards exactly as they stripe across banks. The shard count must be
// a power of two that divides the line count.
//
// # Parity domain
//
// The RAID-4 / skewed-hash parity domain is nested per shard: each
// shard owns its own PLT pair over its own line space, with the group
// size scaled down (SubConfig) so the SuDoku-Z disjointness invariant
// NumLines ≥ GroupSize² holds within every shard. Smaller groups are
// strictly stronger (fewer lines share a parity line) at the cost of
// proportionally more PLT SRAM; DESIGN.md quantifies the trade.
//
// # Locking protocol
//
// The protocol has two levels:
//
//  1. Every parity group is contained in exactly one shard (by the
//     nesting above), so RAID-4 group repairs and SDR — the long
//     critical sections — acquire only the one sub-cache mutex their
//     parity group spans. Traffic on the other N−1 shards proceeds.
//  2. Operations that span shards (full Scrub, InjectRandomFaults,
//     Stats, StuckCells) visit shards in ascending index order and
//     hold at most one shard at a time. Region-level state (the
//     per-shard RNG and scrub scheduling) is guarded by a per-shard
//     region mutex, acquired — when an operation ever needs several —
//     in ascending shard order. The single total order makes deadlock
//     impossible.
package shard

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"sudoku/internal/cache"
	"sudoku/internal/faultmodel"
	"sudoku/internal/ras"
	"sudoku/internal/reqtrace"
	"sudoku/internal/rng"
)

// Config describes the sharded engine. Cache carries the whole-cache
// geometry (Cache.Lines is the total line count across all shards).
type Config struct {
	// Cache is the aggregate cache organization. Lines, Banks, and the
	// parity geometry are partitioned across shards by SubConfig.
	Cache cache.Config
	// Shards is the shard count (a power of two dividing Cache.Lines).
	// Zero selects the largest feasible count up to Cache.Banks.
	Shards int
	// Seed seeds the master RNG from which every shard derives its
	// private child stream (rng.Source.Split) at construction, in
	// shard order — bit-for-bit reproducible for a fixed shard count.
	Seed uint64
	// NewMemory builds the next-level memory below one shard. Each
	// shard gets its own instance so memory timing state is guarded by
	// that shard's lock.
	NewMemory func() (cache.Memory, error)
}

// SubConfig derives the per-shard cache geometry from the aggregate
// one: Lines and Banks divided by the shard count, and — when
// protection is on — GroupSize clamped to the largest power of two g
// with g² ≤ lines-per-shard, preserving the skewed-hash disjointness
// invariant inside each shard.
func SubConfig(whole cache.Config, shards int) (cache.Config, error) {
	if shards <= 0 || bits.OnesCount(uint(shards)) != 1 {
		return cache.Config{}, fmt.Errorf("shard: Shards %d must be a positive power of two", shards)
	}
	if whole.Lines <= 0 || whole.Lines%shards != 0 {
		return cache.Config{}, fmt.Errorf("shard: Lines %d not divisible by %d shards", whole.Lines, shards)
	}
	sub := whole
	sub.Lines = whole.Lines / shards
	if sub.Lines < whole.Ways || sub.Lines%whole.Ways != 0 {
		return cache.Config{}, fmt.Errorf("shard: %d lines per shard cannot hold %d ways", sub.Lines, whole.Ways)
	}
	if sub.Banks = whole.Banks / shards; sub.Banks < 1 {
		sub.Banks = 1
	}
	if whole.Protection != 0 {
		g := 1 << ((bits.Len(uint(sub.Lines)) - 1) / 2) // largest g with g² ≤ sub.Lines
		if g < 2 {
			return cache.Config{}, fmt.Errorf("shard: %d lines per shard too few for parity groups", sub.Lines)
		}
		if g < sub.GroupSize {
			sub.GroupSize = g
		}
	}
	if err := sub.Validate(); err != nil {
		return cache.Config{}, err
	}
	return sub, nil
}

// shardState is one shard: a self-contained protected sub-cache plus
// the region-level state the engine manages around it.
type shardState struct {
	llc *cache.STTRAM
	// clock is the shard's logical time base in nanoseconds, advanced
	// atomically by each access's modeled latency. Under concurrency
	// the bank-queue timing is per-shard approximate: two overlapped
	// accesses may observe the same "now".
	clock atomic.Int64

	// mu is the region mutex: it guards the shard's private RNG and
	// serializes scrub scheduling against fault storms. Multi-shard
	// holders acquire region mutexes in ascending shard order.
	mu  sync.Mutex
	rng *rng.Source
}

// Engine is the sharded concurrent cache. All methods are safe for
// concurrent use.
type Engine struct {
	cfg    Config
	sub    cache.Config
	logS   uint
	lineSz uint64
	shards []*shardState
	// ras collects RAS events from every shard (and from the daemon and
	// external checkers via RecordEvent), with shard-local coordinates
	// remapped to the whole-cache frame before they land in the ring.
	ras *ras.Log
}

// New builds the engine. A zero Shards picks the largest power of two
// ≤ Cache.Banks for which the per-shard geometry validates.
func New(cfg Config) (*Engine, error) {
	if cfg.NewMemory == nil {
		return nil, errors.New("shard: nil NewMemory")
	}
	if err := cfg.Cache.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards == 0 {
		for s := cfg.Cache.Banks; s >= 1; s >>= 1 {
			if _, err := SubConfig(cfg.Cache, s); err == nil {
				cfg.Shards = s
				break
			}
		}
		if cfg.Shards == 0 {
			return nil, fmt.Errorf("shard: no feasible shard count for %d lines", cfg.Cache.Lines)
		}
	}
	sub, err := SubConfig(cfg.Cache, cfg.Shards)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		sub:    sub,
		logS:   uint(bits.TrailingZeros(uint(cfg.Shards))),
		lineSz: uint64(cfg.Cache.LineBytes),
		shards: make([]*shardState, cfg.Shards),
	}
	// Children are derived from the master stream in ascending shard
	// order: the assignment of streams to shards is a pure function of
	// (Seed, Shards).
	master := rng.New(cfg.Seed)
	e.ras = ras.NewLog(0)
	for i := range e.shards {
		mem, err := cfg.NewMemory()
		if err != nil {
			return nil, err
		}
		llc, err := cache.New(sub, mem)
		if err != nil {
			return nil, err
		}
		shard := i
		llc.SetEventSink(func(ev ras.Event) {
			ev.Shard = shard
			if ev.Line != ras.NoLine {
				ev.Line = e.globalSlot(shard, ev.Line)
			}
			if ev.Addr != ras.NoAddr {
				ev.Addr = e.globalAddr(shard, ev.Addr)
			}
			e.ras.Append(ev)
		})
		e.shards[i] = &shardState{llc: llc, rng: master.Split()}
	}
	return e, nil
}

// Events returns the engine's RAS event log.
func (e *Engine) Events() *ras.Log { return e.ras }

// RecordEvent appends an externally observed event (a daemon stall or
// panic, a harness-detected SDC) to the engine's RAS log as-is.
func (e *Engine) RecordEvent(ev ras.Event) { e.ras.Append(ev) }

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Config returns the aggregate configuration the engine was built
// with (with Shards resolved).
func (e *Engine) Config() Config { return e.cfg }

// SubConfig returns the resolved per-shard cache geometry.
func (e *Engine) SubConfig() cache.Config { return e.sub }

// locate maps a byte address to (shard, sub-cache address): the shard
// index is the line index's low bits, and the sub address is the line
// index with those bits removed.
func (e *Engine) locate(addr uint64) (int, uint64) {
	line := addr / e.lineSz
	s := int(line & uint64(len(e.shards)-1))
	sub := (line>>e.logS)*e.lineSz + addr%e.lineSz
	return s, sub
}

// ShardFor returns the shard index serving addr.
func (e *Engine) ShardFor(addr uint64) int {
	s, _ := e.locate(addr)
	return s
}

// advance moves a shard's logical clock by one access latency and
// returns the access's start time.
func (st *shardState) now() time.Duration { return time.Duration(st.clock.Load()) }

func (st *shardState) advance(lat time.Duration) {
	if lat > 0 {
		st.clock.Add(int64(lat))
	}
}

// Read returns the 64-byte line containing addr, repairing it on the
// way as the protection level allows.
func (e *Engine) Read(addr uint64) ([]byte, error) {
	s, sub := e.locate(addr)
	st := e.shards[s]
	data, lat, err := st.llc.Read(st.now(), sub)
	st.advance(lat)
	return data, err
}

// ReadInto is Read into a caller-provided buffer of LineBytes bytes —
// the allocation-free fast path for steady-state readers that reuse a
// line buffer. The shard routing decision and every repair rung the
// access traverses are noted on tr (nil tr = untraced, one branch per
// point).
func (e *Engine) ReadInto(addr uint64, dst []byte, tr *reqtrace.Trace) error {
	s, sub := e.locate(addr)
	tr.Note(reqtrace.KindShardPlan, addr, uint8(s))
	st := e.shards[s]
	lat, err := st.llc.ReadInto(st.now(), sub, dst, tr)
	st.advance(lat)
	return err
}

// Write stores a full 64-byte line at addr, noting the shard routing
// and any repair rungs on tr (nil = untraced).
func (e *Engine) Write(addr uint64, data []byte, tr *reqtrace.Trace) error {
	s, sub := e.locate(addr)
	tr.Note(reqtrace.KindShardPlan, addr, uint8(s))
	st := e.shards[s]
	lat, err := st.llc.Write(st.now(), sub, data, tr)
	st.advance(lat)
	return err
}

// InjectFault flips one stored bit of the resident line holding addr.
func (e *Engine) InjectFault(addr uint64, bit int) error {
	s, sub := e.locate(addr)
	return e.shards[s].llc.InjectFault(sub, bit)
}

// InjectStuckAt pins one cell of the resident line holding addr to a
// fixed value — a permanent fault (§VI).
func (e *Engine) InjectStuckAt(addr uint64, bit int, value bool) error {
	s, sub := e.locate(addr)
	return e.shards[s].llc.InjectStuckAt(sub, bit, value)
}

// StuckCells returns the number of permanently faulty cells across all
// shards.
func (e *Engine) StuckCells() int {
	n := 0
	for _, st := range e.shards {
		n += st.llc.StuckCells()
	}
	return n
}

// InjectRandomFaults scatters n uniform bit flips over the whole
// cache. The per-shard split is a multinomial draw and the per-shard
// positions come from child streams, both derived from seed in
// ascending shard order — so the aggregate fault pattern is
// reproducible bit-for-bit for a fixed shard count, while each shard's
// injection takes only that shard's lock.
func (e *Engine) InjectRandomFaults(seed uint64, n int) error {
	if n < 0 {
		return fmt.Errorf("shard: negative fault count %d", n)
	}
	master := rng.New(seed)
	remaining := n
	counts := make([]int, len(e.shards))
	for i := range counts {
		if left := len(counts) - i; left > 1 {
			counts[i] = master.Binomial(remaining, 1/float64(left))
		} else {
			counts[i] = remaining
		}
		remaining -= counts[i]
	}
	for i, st := range e.shards {
		child := master.Split()
		if counts[i] == 0 {
			continue
		}
		if err := st.llc.InjectRandomFaults(child, counts[i]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// StormShard injects n uniform bit flips into one shard using the
// shard's private RNG stream — the scrub daemon's per-pass thermal
// noise source. It holds the shard's region mutex only.
func (e *Engine) StormShard(shard, n int) error {
	if shard < 0 || shard >= len(e.shards) {
		return fmt.Errorf("shard: index %d out of range [0,%d)", shard, len(e.shards))
	}
	st := e.shards[shard]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.llc.InjectRandomFaults(st.rng, n)
}

// ScrubShard runs one scrub pass over a single shard — the incremental
// unit the daemon schedules. Only that shard's sub-cache lock is held;
// traffic on every other shard proceeds. DUE line indices in the
// report are remapped to whole-cache physical slots.
func (e *Engine) ScrubShard(shard int) (cache.ScrubReport, error) {
	if shard < 0 || shard >= len(e.shards) {
		return cache.ScrubReport{}, fmt.Errorf("shard: index %d out of range [0,%d)", shard, len(e.shards))
	}
	rep, err := e.shards[shard].llc.Scrub()
	for i, p := range rep.DUELines {
		rep.DUELines[i] = e.globalSlot(shard, p)
	}
	return rep, err
}

// globalSlot maps a shard-local physical slot (set*ways+way) to the
// slot index the equivalent unsharded cache would use: global set =
// subSet*Shards + shard (the inverse of the interleaving).
func (e *Engine) globalSlot(shard, subPhys int) int {
	subSet := subPhys / e.sub.Ways
	way := subPhys % e.sub.Ways
	return (subSet*len(e.shards)+shard)*e.sub.Ways + way
}

// globalAddr maps a shard-local byte address back to the whole-cache
// address space — the inverse of locate.
func (e *Engine) globalAddr(shard int, sub uint64) uint64 {
	line := sub / e.lineSz
	return (line<<e.logS|uint64(shard))*e.lineSz + sub%e.lineSz
}

// subSlot inverts globalSlot: whole-cache physical slot → (shard,
// shard-local slot).
func (e *Engine) subSlot(global int) (shard, subPhys int) {
	way := global % e.sub.Ways
	gSet := global / e.sub.Ways
	shard = gSet % len(e.shards)
	subSet := gSet / len(e.shards)
	return shard, subSet*e.sub.Ways + way
}

// Lines returns the whole-cache physical line count.
func (e *Engine) Lines() int { return e.cfg.Cache.Lines }

// StoredBits returns the per-line stored codeword width in bits; the
// whole-cache fault-injection bit space is Lines() × StoredBits().
func (e *Engine) StoredBits() int { return e.shards[0].llc.StoredBits() }

// RegionOf maps a whole-cache physical slot to its (shard, Hash-1
// group) region — the storm controller's bucketing key for per-region
// event-rate detectors.
func (e *Engine) RegionOf(globalSlot int) (shard, group int) {
	s, subPhys := e.subSlot(globalSlot)
	if e.sub.GroupSize <= 0 {
		return s, 0
	}
	return s, subPhys / e.sub.GroupSize
}

// ApplyFaults drives one campaign interval into the live engine: flips
// land by whole-cache physical position (bucketed per shard, then
// injected one shard lock at a time, ascending) and stuck cells are
// pinned through the slot-addressed stuck-at primitive. Returns the
// number of flips that landed (retired lines absorb theirs).
func (e *Engine) ApplyFaults(p faultmodel.IntervalPlan) (int, error) {
	lineBits := e.StoredBits()
	if lineBits == 0 {
		return 0, cache.ErrNotProtected
	}
	limit := e.cfg.Cache.Lines * lineBits
	perShard := make([][]int, len(e.shards))
	for _, pos := range p.Flips {
		if pos < 0 || pos >= limit {
			return 0, fmt.Errorf("shard: fault position %d outside [0, %d)", pos, limit)
		}
		s, subPhys := e.subSlot(pos / lineBits)
		perShard[s] = append(perShard[s], subPhys*lineBits+pos%lineBits)
	}
	landed := 0
	for s, positions := range perShard {
		if len(positions) == 0 {
			continue
		}
		n, err := e.shards[s].llc.InjectFaultsAt(positions)
		landed += n
		if err != nil {
			return landed, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	for _, sc := range p.Stuck {
		if sc.Pos < 0 || sc.Pos >= limit {
			return landed, fmt.Errorf("shard: stuck position %d outside [0, %d)", sc.Pos, limit)
		}
		s, subPhys := e.subSlot(sc.Pos / lineBits)
		if err := e.shards[s].llc.InjectStuckAtPhys(subPhys, sc.Pos%lineBits, sc.Value); err != nil {
			return landed, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return landed, nil
}

// ScrubRegion runs an out-of-band targeted scrub of one Hash-1 group in
// one shard — the storm controller's response to a hot region. DUE
// lines in the report are remapped to whole-cache slots, like
// ScrubShard. It does not touch rotation accounting (see
// cache.ScrubRegion).
func (e *Engine) ScrubRegion(shard, group int) (cache.ScrubReport, error) {
	if shard < 0 || shard >= len(e.shards) {
		return cache.ScrubReport{}, fmt.Errorf("shard: index %d out of range [0,%d)", shard, len(e.shards))
	}
	rep, err := e.shards[shard].llc.ScrubRegion(group)
	for i, p := range rep.DUELines {
		rep.DUELines[i] = e.globalSlot(shard, p)
	}
	return rep, err
}

// AuditRegion runs the bad-parity audit on one Hash-1 group in one
// shard, reporting whether the region is quarantined afterwards.
func (e *Engine) AuditRegion(shard, group int) (bool, error) {
	if shard < 0 || shard >= len(e.shards) {
		return false, fmt.Errorf("shard: index %d out of range [0,%d)", shard, len(e.shards))
	}
	return e.shards[shard].llc.AuditRegion(group)
}

// RetiredLines returns the number of lines remapped to spares across
// all shards.
func (e *Engine) RetiredLines() int {
	n := 0
	for _, st := range e.shards {
		n += st.llc.RetiredLines()
	}
	return n
}

// SparesFree returns the number of unused spare rows across all shards.
func (e *Engine) SparesFree() int {
	n := 0
	for _, st := range e.shards {
		n += st.llc.SparesFree()
	}
	return n
}

// QuarantinedRegions returns the number of quarantined parity regions
// across all shards.
func (e *Engine) QuarantinedRegions() int {
	n := 0
	for _, st := range e.shards {
		n += st.llc.QuarantinedRegions()
	}
	return n
}

// RebuildQuarantined rebuilds every quarantined region in every shard
// and returns the total number of regions returned to service.
func (e *Engine) RebuildQuarantined() (int, error) {
	total := 0
	for i, st := range e.shards {
		n, err := st.llc.RebuildQuarantined()
		total += n
		if err != nil {
			return total, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return total, nil
}

// ParityGroups returns the number of Hash-1 parity groups per shard —
// the valid group range for InjectParityFault.
func (e *Engine) ParityGroups() int {
	return e.shards[0].llc.ParityGroups()
}

// InjectParityFault flips one bit of a Hash-1 parity line in one shard
// — the fault the scrub-time quarantine audit exists to catch.
func (e *Engine) InjectParityFault(shard, group, bit int) error {
	if shard < 0 || shard >= len(e.shards) {
		return fmt.Errorf("shard: index %d out of range [0,%d)", shard, len(e.shards))
	}
	return e.shards[shard].llc.InjectParityFault(group, bit)
}

// Scrub runs one full pass over every shard, ascending, holding one
// shard at a time — a convenience for synchronous callers; the daemon
// paces the same walk across the scrub interval instead.
func (e *Engine) Scrub() (cache.ScrubReport, error) {
	var agg cache.ScrubReport
	for i := range e.shards {
		rep, err := e.ScrubShard(i)
		MergeReport(&agg, rep)
		if err != nil {
			return agg, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return agg, nil
}

// MergeReport folds one shard pass report into an aggregate.
func MergeReport(agg *cache.ScrubReport, rep cache.ScrubReport) {
	agg.LinesChecked += rep.LinesChecked
	agg.SingleRepairs += rep.SingleRepairs
	agg.SDRRepairs += rep.SDRRepairs
	agg.RAIDRepairs += rep.RAIDRepairs
	agg.Hash2Repairs += rep.Hash2Repairs
	agg.QuarantineSkipped += rep.QuarantineSkipped
	agg.LinesRetired += rep.LinesRetired
	agg.RegionsQuarantined += rep.RegionsQuarantined
	agg.DUELines = append(agg.DUELines, rep.DUELines...)
}

// Stats folds the per-shard snapshots into aggregate counters. Each
// shard's snapshot is lock-free (atomic counters), so this never
// stalls traffic.
func (e *Engine) Stats() cache.Stats {
	var total cache.Stats
	for _, st := range e.shards {
		s := st.llc.Stats()
		total.Add(s)
	}
	return total
}

// Metrics folds the per-shard counters and latency histograms into one
// aggregate view. Lock-free, like Stats.
func (e *Engine) Metrics() cache.Metrics {
	var total cache.Metrics
	for _, st := range e.shards {
		m := st.llc.Metrics()
		total.Add(m)
	}
	return total
}

// ShardMetrics returns one shard's counters and latency histograms —
// the per-shard view behind the exporter's shard-labeled series.
func (e *Engine) ShardMetrics(shard int) (cache.Metrics, error) {
	if shard < 0 || shard >= len(e.shards) {
		return cache.Metrics{}, fmt.Errorf("shard: index %d out of range [0,%d)", shard, len(e.shards))
	}
	return e.shards[shard].llc.Metrics(), nil
}
