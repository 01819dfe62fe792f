package cache

import (
	"fmt"
	"sort"
	"sync/atomic"

	"sudoku/internal/persist"
)

// persistCounters flattens a Stats snapshot into the canonical
// persisted counter block. The order is append-only wire format: new
// counters go at the end, and a decoder reading an older (shorter)
// block treats the missing tail as zero.
func persistCounters(s Stats) []int64 {
	return []int64{
		s.Reads, s.Writes, s.Hits, s.Misses, s.Evictions,
		s.WriteBacks, s.PLTWrites, s.SingleRepairs, s.SDRRepairs,
		s.RAIDRepairs, s.Hash2Repairs, s.UncorrectableDUEs,
		s.ScrubPasses, s.FaultsInjected, s.DUERecovered, s.DUEDataLoss,
		s.LinesRetired, s.CRCDetects, s.TargetedScrubs, s.SeqlockReads,
		s.SeqlockFallbacks,
	}
}

// applyPersistCounters stores a persisted block back into the live
// counters, index-for-index with persistCounters. A short block (older
// snapshot minor) leaves the tail at zero; a long one (newer minor) is
// applied as far as this build knows.
func applyPersistCounters(c *counters, vals []int64) {
	dst := []*atomic.Int64{
		&c.reads, &c.writes, &c.hits, &c.misses, &c.evictions,
		&c.writeBacks, &c.pltWrites, &c.singleRepairs, &c.sdrRepairs,
		&c.raidRepairs, &c.hash2Repairs, &c.uncorrectableDUEs,
		&c.scrubPasses, &c.faultsInjected, &c.dueRecovered, &c.dueDataLoss,
		&c.linesRetired, &c.crcDetects, &c.targetedScrubs, &c.seqlockReads,
		&c.seqlockFallbacks,
	}
	for i, p := range dst {
		if i < len(vals) {
			p.Store(vals[i])
		}
	}
}

// ExportPersist cuts this cache's RAS state into a persistable shard
// record: the retirement remap table, spare usage, CE leaky buckets,
// quarantine set, tick phases, and cumulative counters. Spare-row
// CONTENTS are deliberately not exported (see package persist); the
// record is taken under the engine mutex, so it is a consistent cut.
func (c *STTRAM) ExportPersist() persist.ShardState {
	c.mu.Lock()
	defer c.mu.Unlock()

	st := persist.ShardState{
		SpareUsed: c.spareUsed,
		DecayTick: c.decayTick,
		AuditTick: c.auditTick,
		Counters:  persistCounters(c.stats.snapshot()),
	}
	if len(c.retired) > 0 {
		st.Retired = make([]persist.RetirePair, 0, len(c.retired))
		for phys, sp := range c.retired {
			st.Retired = append(st.Retired, persist.RetirePair{Phys: uint32(phys), Spare: uint32(sp)})
		}
	}
	if len(c.ceBucket) > 0 {
		st.CEBuckets = make([]persist.CEPair, 0, len(c.ceBucket))
		for phys, n := range c.ceBucket {
			if n <= 0 {
				continue
			}
			st.CEBuckets = append(st.CEBuckets, persist.CEPair{Phys: uint32(phys), Count: uint32(n)})
		}
	}
	if len(c.quarantined) > 0 {
		st.Quarantined = make([]uint32, 0, len(c.quarantined))
		for g := range c.quarantined {
			st.Quarantined = append(st.Quarantined, uint32(g))
		}
	}
	return st
}

// ImportPersist applies a decoded shard record to a freshly built
// cache. It refuses to run on a cache that has already seen traffic or
// grown RAS state, re-validates every index against this cache's own
// geometry (the decoder validated against the snapshot's claimed
// geometry; this guards against a mismatched restore target), and
// re-retires each persisted line onto a zeroed spare row — the spare
// CONTENT is not persisted, so a restored line reads as a cold miss
// and refetches, but its mapping (and thus its fault-avoidance) is
// preserved. Returns the number of lines re-retired.
func (c *STTRAM) ImportPersist(st persist.ShardState) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	s := c.stats.snapshot()
	if len(c.retired) > 0 || c.spareUsed != 0 || len(c.quarantined) > 0 ||
		s.Reads != 0 || s.Writes != 0 || s.FaultsInjected != 0 {
		return 0, fmt.Errorf("cache: restore target not fresh")
	}
	if len(st.Retired) > 0 || st.SpareUsed > 0 || len(st.CEBuckets) > 0 {
		if c.cfg.RetireCEThreshold <= 0 {
			return 0, fmt.Errorf("cache: snapshot has retirement state but retirement is disabled")
		}
	}
	if len(st.Quarantined) > 0 && c.cfg.QuarantineAuditPasses <= 0 {
		return 0, fmt.Errorf("cache: snapshot has quarantine state but quarantine is disabled")
	}
	if st.SpareUsed > len(c.spareData) {
		return 0, fmt.Errorf("cache: snapshot uses %d spares, pool holds %d", st.SpareUsed, len(c.spareData))
	}
	for _, p := range st.Retired {
		if int(p.Phys) >= c.cfg.Lines {
			return 0, fmt.Errorf("cache: retired slot %d out of range", p.Phys)
		}
		if int(p.Spare) >= st.SpareUsed {
			return 0, fmt.Errorf("cache: spare index %d out of range", p.Spare)
		}
	}
	for _, p := range st.CEBuckets {
		if int(p.Phys) >= c.cfg.Lines {
			return 0, fmt.Errorf("cache: CE slot %d out of range", p.Phys)
		}
	}
	if len(st.Quarantined) > 0 {
		// Guarded above: quarantine enabled implies protection on, so
		// params is populated and NumGroups is well-defined.
		groups := c.params.NumGroups()
		for _, g := range st.Quarantined {
			if int(g) >= groups {
				return 0, fmt.Errorf("cache: quarantined group %d out of range", g)
			}
		}
	}

	for _, p := range st.Retired {
		// Zeroed spare row: content is refetched, the mapping is what
		// survives the restart.
		c.spareData[p.Spare] = make([]byte, c.cfg.LineBytes)
		c.retired[int(p.Phys)] = int(p.Spare)
		c.invalidateMirror(int(p.Phys))
	}
	c.spareUsed = st.SpareUsed
	for _, p := range st.CEBuckets {
		c.ceBucket[int(p.Phys)] = int(p.Count)
	}
	for _, g := range st.Quarantined {
		c.quarantined[int(g)] = true
	}
	c.decayTick = st.DecayTick
	c.auditTick = st.AuditTick
	applyPersistCounters(&c.stats, st.Counters)
	return len(st.Retired), nil
}

// sortPersistState is test support: deterministic ordering matching
// the encoder's in-place sort, for deep-equal comparisons.
func sortPersistState(st *persist.ShardState) {
	sort.Slice(st.Retired, func(i, j int) bool { return st.Retired[i].Phys < st.Retired[j].Phys })
	sort.Slice(st.CEBuckets, func(i, j int) bool { return st.CEBuckets[i].Phys < st.CEBuckets[j].Phys })
	sort.Slice(st.Quarantined, func(i, j int) bool { return st.Quarantined[i] < st.Quarantined[j] })
}
