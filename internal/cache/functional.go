package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"sudoku/internal/core"
	"sudoku/internal/ras"
	"sudoku/internal/reqtrace"
	"sudoku/internal/rng"
)

// ErrUncorrectable is returned when a line's data could not be
// recovered at the configured protection level — a detectable
// uncorrectable error (DUE).
var ErrUncorrectable = errors.New("cache: uncorrectable line")

// ErrNotProtected is returned by fault-oriented operations on an
// unprotected (ideal-baseline) cache.
var ErrNotProtected = errors.New("cache: protection disabled")

// ScrubReport summarizes one scrub pass (§II-D: periodic scrubbing
// repairs all faults accumulated within the interval).
type ScrubReport struct {
	LinesChecked  int
	SingleRepairs int
	SDRRepairs    int
	RAIDRepairs   int
	Hash2Repairs  int
	// DUELines lists physical line indices that remain uncorrectable.
	DUELines []int
	// QuarantineSkipped counts lines the pass skipped because their
	// region is quarantined.
	QuarantineSkipped int
	// LinesRetired counts lines this pass remapped to spares.
	LinesRetired int
	// RegionsQuarantined counts regions this pass's parity audit
	// newly quarantined.
	RegionsQuarantined int
}

// Read returns the 64-byte line containing addr, with the access
// latency at time now. Faulty lines are repaired on the way (ECC-1,
// then RAID/SDR/Hash-2 as the protection level allows); an
// unrepairable line returns ErrUncorrectable.
func (c *STTRAM) Read(now time.Duration, addr uint64) ([]byte, time.Duration, error) {
	buf := make([]byte, c.cfg.LineBytes)
	lat, err := c.ReadInto(now, addr, buf, nil)
	if err != nil {
		return nil, lat, err
	}
	return buf, lat, nil
}

// ReadInto is Read into a caller-provided buffer of LineBytes bytes —
// the allocation-free form for callers that reuse a line buffer across
// accesses. On error the buffer contents are unspecified. Every rung
// of the repair ladder the access traverses, and any seqlock fallback
// reason, is noted on tr; a nil tr is the untraced case and costs one
// branch per instrumentation point. Traced or not, a clean resident
// line is served by the lock-free seqlock path first.
func (c *STTRAM) ReadInto(now time.Duration, addr uint64, dst []byte, tr *reqtrace.Trace) (time.Duration, error) {
	if len(dst) != c.cfg.LineBytes {
		return 0, fmt.Errorf("cache: read buffer of %d bytes, want %d", len(dst), c.cfg.LineBytes)
	}
	if lat, ok := c.tryReadInto(now, addr, dst, tr); ok {
		return lat, nil
	}
	if tr != nil && c.scrubbing.Load() {
		tr.Note(reqtrace.KindScrubInterference, addr, 0)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readIntoLocked(now, addr, dst, tr)
}

// readIntoLocked is the body of ReadInto; callers hold c.mu and have
// validated len(dst).
func (c *STTRAM) readIntoLocked(now time.Duration, addr uint64, dst []byte, tr *reqtrace.Trace) (time.Duration, error) {
	set := c.setIndex(addr)
	tag := c.tagOf(addr)
	c.stats.reads.Add(1)

	w := c.lookup(set, tag)
	var lat time.Duration
	hit := w >= 0
	if hit {
		c.stats.hits.Add(1)
		c.touchWay(set, w)
		lat = dur(c.bankServe(ns(now), set, ns(c.cfg.ReadLatency)) + c.crcCheckNs())
	} else {
		c.stats.misses.Add(1)
		var memLat time.Duration
		var err error
		w, memLat, err = c.fill(now, set, addr, false, tr)
		lat = memLat
		if err != nil {
			return lat, err
		}
	}
	if hit {
		c.hist.readHit.Stripe(set).ObserveNs(int64(lat))
	} else {
		c.hist.readMiss.ObserveNs(int64(lat))
	}
	if err := c.readLineInto(c.physIndex(set, w), dst, tr); err != nil {
		if !errors.Is(err, ErrUncorrectable) {
			return lat, err
		}
		recLat, rerr := c.recoverReadDUE(now, set, w, addr, dst, tr)
		return lat + recLat, rerr
	}
	// Republish the mirror: a locked read is where a mirror left odd by
	// a repair, a fault injection or an error exit lazily comes back.
	c.syncLine(c.physIndex(set, w))
	return lat, nil
}

// recoverReadDUE services a read that hit an uncorrectable line — the
// RAS path that turns a DUE into a managed event. A clean line is
// reloaded from the backing memory and the read succeeds with the
// extra miss-class latency; a dirty line's only copy is gone, so the
// line is discarded (its slot is wiped, parity rebuilt around it) and
// the read fails with an unrecoverable-data-loss event. Callers hold
// c.mu; the returned latency is added to the access's.
func (c *STTRAM) recoverReadDUE(now time.Duration, set, w int, addr uint64, dst []byte, tr *reqtrace.Trace) (time.Duration, error) {
	phys := c.physIndex(set, w)
	if c.ways[phys].dirty {
		c.stats.dueDataLoss.Add(1)
		tr.Note(reqtrace.KindDUEDataLoss, uint64(phys), 0)
		c.emit(ras.KindDUEDataLoss, phys, c.lineAddr(addr), "dirty line discarded")
		if err := c.discardLine(set, w); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("%w: line %d: dirty data lost", ErrUncorrectable, phys)
	}
	// Clean line: the backing store still holds the authoritative copy
	// (nil = never written back = zeros). Refetch and rewrite.
	memLat := c.mem.Access(now, c.lineAddr(addr), false)
	line := c.backing[c.lineAddr(addr)]
	if line == nil {
		line = c.zeroLine
	}
	if err := c.reloadLine(phys, line); err != nil {
		return memLat, err
	}
	lat := memLat + dur(c.bankServe(ns(now+memLat), set, ns(c.cfg.WriteLatency))+c.crcCheckNs())
	if err := c.readLineInto(phys, dst, tr); err != nil {
		if errors.Is(err, ErrUncorrectable) {
			// The rewritten line is still bad: permanent damage beyond
			// per-line repair (e.g. multiple stuck cells in a
			// quarantined region). Give the slot up.
			c.emit(ras.KindRecoveryFailed, phys, c.lineAddr(addr), "refetched line still uncorrectable")
			if derr := c.discardLine(set, w); derr != nil {
				return lat, derr
			}
			return lat, fmt.Errorf("%w: line %d: recovery failed", ErrUncorrectable, phys)
		}
		return lat, err
	}
	c.stats.dueRecovered.Add(1)
	tr.Note(reqtrace.KindDUERefetch, uint64(phys), 0)
	c.hist.dueRefetch.ObserveNs(int64(lat))
	c.emit(ras.KindDUERecovered, phys, c.lineAddr(addr), "clean line refetched")
	// A recovered DUE is strong evidence of a weak line: feed the
	// retirement bucket directly.
	c.noteCE(phys)
	return lat, nil
}

// reloadLine overwrites a physical line with a fresh payload without
// consulting its (presumed lost) old content: encode, store, rebuild
// both covering parities from scratch, reassert permanent faults.
func (c *STTRAM) reloadLine(phys int, data []byte) error {
	if sp, ok := c.retired[phys]; ok {
		copy(c.spareData[sp], data)
		return nil
	}
	c.invalidateMirror(phys)
	if err := c.scr.data.SetBytes(data); err != nil {
		return err
	}
	if err := c.codec.EncodeInto(c.scr.data, c.scr.newStored); err != nil {
		return err
	}
	stored := c.lineView(phys)
	if err := stored.CopyFrom(c.scr.newStored); err != nil {
		return err
	}
	if err := c.rebuildParities(phys); err != nil {
		return err
	}
	if err := c.reapplyStuck(phys); err != nil {
		return err
	}
	c.syncLine(phys)
	return nil
}

// discardLine drops a line whose content is lost: the way is
// invalidated, the stored codeword wiped to the (valid) zero codeword,
// the covering parities rebuilt around it, and permanent faults
// reasserted. The backing store keeps the last clean copy, so the next
// miss returns stale-but-consistent data.
func (c *STTRAM) discardLine(set, w int) error {
	phys := c.physIndex(set, w)
	c.invalidateMirror(phys)
	c.setWay(set, w, 0, false, false, 0)
	if c.isLive(phys) {
		clear(c.row(phys))
	}
	if err := c.rebuildParities(phys); err != nil {
		return err
	}
	if err := c.reapplyStuck(phys); err != nil {
		return err
	}
	c.syncLine(phys)
	return nil
}

// Write stores a full 64-byte line at addr and returns the access
// latency. Writes are read-modify-writes (§III-B): the old content is
// read (and repaired if faulty), the modified bit positions are
// computed, and both parity tables are updated with exactly those
// positions. The repair rungs the old content needs are noted on tr
// (nil = untraced).
func (c *STTRAM) Write(now time.Duration, addr uint64, data []byte, tr *reqtrace.Trace) (time.Duration, error) {
	if len(data) != c.cfg.LineBytes {
		return 0, fmt.Errorf("cache: write of %d bytes, want %d", len(data), c.cfg.LineBytes)
	}
	if tr != nil && c.scrubbing.Load() {
		tr.Note(reqtrace.KindScrubInterference, addr, 0)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeLocked(now, addr, data, tr)
}

// writeLocked is the body of Write; callers hold c.mu and have
// validated len(data).
func (c *STTRAM) writeLocked(now time.Duration, addr uint64, data []byte, tr *reqtrace.Trace) (time.Duration, error) {
	set := c.setIndex(addr)
	tag := c.tagOf(addr)
	c.stats.writes.Add(1)

	w := c.lookup(set, tag)
	var lat time.Duration
	if w >= 0 {
		c.stats.hits.Add(1)
		c.touchWay(set, w)
		lat = dur(c.bankServe(ns(now), set, ns(c.cfg.ReadLatency+c.cfg.WriteLatency)) + c.crcCheckNs())
		c.hist.writeHit.ObserveNs(int64(lat))
	} else {
		c.stats.misses.Add(1)
		var memLat time.Duration
		var err error
		w, memLat, err = c.fill(now, set, addr, true, tr)
		lat = memLat
		if err != nil {
			return lat, err
		}
		c.hist.writeMiss.ObserveNs(int64(lat))
	}
	phys := c.physIndex(set, w)
	c.ways[phys].dirty = true
	if err := c.writeLine(phys, data, tr); err != nil {
		return lat, err
	}
	return lat, nil
}

// fill allocates a way for addr, evicting (and writing back) the
// victim, and loads the line's data from the backing store. It returns
// the chosen way, the miss latency, and any substrate error from the
// fill write (previously swallowed; now surfaced as a RAS event and
// propagated).
func (c *STTRAM) fill(now time.Duration, set int, addr uint64, forWrite bool, tr *reqtrace.Trace) (int, time.Duration, error) {
	v := c.victim(set)
	entry := &c.ways[c.physIndex(set, v)]
	if entry.valid {
		c.stats.evictions.Add(1)
		phys := c.physIndex(set, v)
		victimAddr := c.victimAddr(set, entry.tag)
		if entry.dirty {
			c.stats.writeBacks.Add(1)
			_ = c.mem.Access(now, victimAddr, true)
			if data, err := c.readLine(phys); err == nil {
				c.backing[victimAddr] = data
			} else if errors.Is(err, ErrUncorrectable) {
				// An unrepairable dirty victim is data loss: the
				// backing store keeps its previous (stale) copy.
				c.stats.dueDataLoss.Add(1)
				c.emit(ras.KindDUEDataLoss, phys, victimAddr, "dirty victim dropped on eviction")
			}
		}
	}
	memLat := c.mem.Access(now, c.lineAddr(addr), false)
	// Identity change: the mirror (still holding the victim's codeword)
	// must go odd before the new tag is published, so a fast reader of
	// the new address can never validate the victim's data.
	c.invalidateMirror(c.physIndex(set, v))
	c.setWay(set, v, c.tagOf(addr), true, forWrite, c.useClock.Add(1))

	phys := c.physIndex(set, v)
	line := c.backing[c.lineAddr(addr)]
	if line == nil {
		line = c.zeroLine
	}
	// Fill overwrites the physical cells; parity follows via the
	// standard delta update (or a rebuild, if the slot's residue was
	// uncorrectable).
	fillLat := c.bankServe(ns(now+memLat), set, ns(c.cfg.WriteLatency))
	lat := memLat + dur(fillLat+c.crcCheckNs())
	if err := c.writeLine(phys, line, tr); err != nil {
		c.emit(ras.KindWriteLineError, phys, c.lineAddr(addr), err.Error())
		c.setWay(set, v, 0, false, false, 0) // the slot never received the line
		return v, lat, fmt.Errorf("cache: fill of line %d: %w", phys, err)
	}
	return v, lat, nil
}

// readLine extracts (repairing as needed) the payload of a physical
// line into a fresh buffer.
func (c *STTRAM) readLine(phys int) ([]byte, error) {
	buf := make([]byte, c.cfg.LineBytes)
	if err := c.readLineInto(phys, buf, nil); err != nil {
		return nil, err
	}
	return buf, nil
}

// readLineInto extracts (repairing as needed) the payload of a
// physical line into dst, which must hold exactly LineBytes bytes. It
// performs no allocation on the clean-line path. Retired lines are
// served from their hardened spare row.
func (c *STTRAM) readLineInto(phys int, dst []byte, tr *reqtrace.Trace) error {
	if sp, ok := c.retired[phys]; ok {
		tr.Note(reqtrace.KindRetiredLine, uint64(phys), 0)
		copy(dst, c.spareData[sp])
		return nil
	}
	if c.cfg.Protection == 0 {
		// Unprotected caches store raw payload words in the arena rows;
		// an unwritten line reads as zeros.
		if !c.isLive(phys) {
			clear(dst)
			return nil
		}
		for w, word := range c.row(phys) {
			binary.LittleEndian.PutUint64(dst[8*w:], word)
		}
		return nil
	}
	stored := c.lineView(phys)
	ok, err := c.codec.Check(&stored)
	if err != nil {
		return err
	}
	if !ok {
		c.stats.crcDetects.Add(1)
		tr.Note(reqtrace.KindCRCDetect, uint64(phys), 0)
		if err := c.repairLine(phys, tr); err != nil {
			return err
		}
	}
	// Copy the (corrected) payload words out before the array's
	// permanently faulty cells reassert themselves.
	for w := 0; w < c.cfg.LineBytes/8; w++ {
		binary.LittleEndian.PutUint64(dst[8*w:], stored.Word(w))
	}
	return c.reapplyStuck(phys)
}

// writeLine encodes data into a physical line, updating both parity
// tables with the old⊕new delta. If the old content is faulty it is
// repaired first so the parity delta reflects true contents; if it is
// unrepairable the write proceeds and the affected parities are
// rebuilt from scratch.
func (c *STTRAM) writeLine(phys int, data []byte, tr *reqtrace.Trace) error {
	if sp, ok := c.retired[phys]; ok {
		tr.Note(reqtrace.KindRetiredLine, uint64(phys), 0)
		copy(c.spareData[sp], data)
		return nil
	}
	if c.cfg.Protection == 0 {
		row := c.row(phys)
		for w := range row {
			row[w] = binary.LittleEndian.Uint64(data[8*w:])
		}
		return nil
	}
	stored := c.lineView(phys)
	// Mirror goes odd for the whole rewrite: concurrent fast readers
	// fall back (and serialize behind c.mu), and an error on any exit
	// below leaves the mirror invalid rather than stale. syncLine
	// republishes on each success path.
	c.invalidateMirror(phys)
	rebuild := false
	if ok, err := c.codec.Check(&stored); err != nil {
		return err
	} else if !ok {
		c.stats.crcDetects.Add(1)
		tr.Note(reqtrace.KindCRCDetect, uint64(phys), 0)
		if err := c.repairLine(phys, tr); err != nil {
			if !errors.Is(err, ErrUncorrectable) {
				return err
			}
			// Full-line write over uncorrectable content: the old
			// payload was about to be replaced wholesale, so nothing
			// observable is lost — but the incident is recorded.
			c.emit(ras.KindDUEOverwritten, phys, ras.NoAddr, "full-line write over uncorrectable content")
			rebuild = true
		}
	}
	// Stage the new codeword and the old⊕new parity delta in the cache
	// scratch vectors (we hold c.mu; PLT.Update folds the delta into
	// its own parity vector without retaining it).
	if err := c.scr.data.SetBytes(data); err != nil {
		return err
	}
	if err := c.codec.EncodeInto(c.scr.data, c.scr.newStored); err != nil {
		return err
	}
	if err := c.scr.delta.CopyFrom(&stored); err != nil {
		return err
	}
	if err := c.scr.delta.XorInto(c.scr.newStored); err != nil {
		return err
	}
	if err := stored.CopyFrom(c.scr.newStored); err != nil {
		return err
	}
	if rebuild {
		if err := c.rebuildParities(phys); err != nil {
			return err
		}
		if err := c.reapplyStuck(phys); err != nil {
			return err
		}
		c.syncLine(phys)
		return nil
	}
	// A quarantined region's Hash-1 parity line is bad: updating it
	// would launder garbage, so writes bypass that table until the
	// region is rebuilt. The Hash-2 parity stays fully maintained.
	if len(c.quarantined) > 0 && c.quarantined[c.params.Hash1Of(phys)] {
		tr.Note(reqtrace.KindQuarantine, uint64(phys), 1)
		if err := c.plt2.Update(c.params.Hash2Of(phys), c.scr.delta); err != nil {
			return err
		}
		c.stats.pltWrites.Add(1)
		if err := c.reapplyStuck(phys); err != nil {
			return err
		}
		c.syncLine(phys)
		return nil
	}
	if err := c.plt1.Update(c.params.Hash1Of(phys), c.scr.delta); err != nil {
		return err
	}
	if err := c.plt2.Update(c.params.Hash2Of(phys), c.scr.delta); err != nil {
		return err
	}
	c.stats.pltWrites.Add(2)
	if err := c.reapplyStuck(phys); err != nil {
		return err
	}
	c.syncLine(phys)
	return nil
}

// repairLine runs the full repair ladder on one faulty line: per-line
// ECC-1, then (for multi-bit faults) the group repair at the
// configured protection level.
func (c *STTRAM) repairLine(phys int, tr *reqtrace.Trace) error {
	stored := c.lineView(phys)
	// The repair rewrites stored in place; the mirror goes odd first so
	// the caller's eventual syncLine (or a later locked read) is the
	// only way it comes back.
	c.invalidateMirror(phys)
	st, err := c.codec.Repair(&stored)
	if err != nil {
		return err
	}
	switch st {
	case core.StatusClean:
		return nil
	case core.StatusCorrected:
		c.stats.singleRepairs.Add(1)
		tr.Note(reqtrace.KindECC1, uint64(phys), 0)
		c.noteCE(phys)
		return nil
	}
	// A quarantined region's group machinery is down (its parity line
	// is bad); a multi-bit line there is a DUE until the region is
	// rebuilt — the read path's refetch recovery takes over.
	if len(c.quarantined) > 0 && c.quarantined[c.params.Hash1Of(phys)] {
		c.stats.uncorrectableDUEs.Add(1)
		tr.Note(reqtrace.KindQuarantine, uint64(phys), 0)
		return fmt.Errorf("%w: line %d (region quarantined)", ErrUncorrectable, phys)
	}
	// The group repair (and its Hash-2 retries) may rewrite any line
	// its view handed out; those lines are odd until the resync below,
	// and stay odd on an error exit.
	c.rewritten = c.rewritten[:0]
	report, err := c.repairGroup(c.params.Hash1Of(phys))
	if err != nil {
		return err
	}
	c.stats.singleRepairs.Add(int64(report.Hash1.SinglesCorrected))
	c.stats.sdrRepairs.Add(int64(report.Hash1.SDRRepairs))
	c.stats.raidRepairs.Add(int64(report.Hash1.RAIDRepairs))
	c.stats.hash2Repairs.Add(int64(report.Hash2Repairs))
	// Rung notes follow ladder order (ECC-1 within the group, RAID
	// reconstruction, SDR, Hash-2 retries) so a trace's rung sequence
	// stays monotone in depth; Code carries the clamped repair count.
	if report.Hash1.SinglesCorrected > 0 {
		tr.Note(reqtrace.KindECC1, uint64(phys), clampCount(report.Hash1.SinglesCorrected))
	}
	if report.Hash1.RAIDRepairs > 0 {
		tr.Note(reqtrace.KindRAIDReconstruct, uint64(phys), clampCount(report.Hash1.RAIDRepairs))
	}
	if report.Hash1.SDRRepairs > 0 {
		tr.Note(reqtrace.KindSDR, uint64(phys), clampCount(report.Hash1.SDRRepairs))
	}
	if report.Hash2Repairs > 0 {
		tr.Note(reqtrace.KindHash2Retry, uint64(phys), clampCount(report.Hash2Repairs))
	}
	c.emitGroupRepair(c.params.Hash1Of(phys), report)
	// Other lines touched by the group repair regain their permanent
	// faults immediately; the target line's are reapplied by the
	// caller after its data buffer is extracted.
	for other := range c.stuck {
		if other == phys {
			continue
		}
		if err := c.reapplyStuck(other); err != nil {
			return err
		}
	}
	c.resyncRewritten(phys)
	for _, addr := range report.Unrepaired {
		if addr == phys {
			c.stats.uncorrectableDUEs.Add(1)
			return fmt.Errorf("%w: line %d", ErrUncorrectable, phys)
		}
	}
	return nil
}

// clampCount narrows a repair count into a span's uint8 Code field.
func clampCount(n int) uint8 {
	if n > 255 {
		return 255
	}
	return uint8(n)
}

// emitGroupRepair records one invocation of the group repair ladder —
// the storm detector's primary clustered-fault signal. Line carries the
// region's first member slot so consumers can map the event back to its
// (shard, group) region; the Sprintf runs only on the cold multi-bit
// path. Callers hold c.mu.
func (c *STTRAM) emitGroupRepair(group int, report core.ZReport) {
	if c.events == nil {
		return
	}
	repairs := report.Hash1.SDRRepairs + report.Hash1.RAIDRepairs + report.Hash2Repairs
	c.events(ras.Event{
		Kind:    ras.KindGroupRepair,
		Line:    group * c.params.GroupSize,
		Addr:    ras.NoAddr,
		Repairs: repairs,
		// A pass that fixed nothing and only re-observed lines it
		// cannot fix is bookkeeping, not new fault pressure.
		Futile: repairs == 0 && len(report.Unrepaired) > 0,
		Detail: fmt.Sprintf("hash1 group %d: sdr=%d raid=%d hash2=%d unrepaired=%d",
			group, report.Hash1.SDRRepairs, report.Hash1.RAIDRepairs,
			report.Hash2Repairs, len(report.Unrepaired)),
	})
}

// rebuildParities recomputes the two parity lines covering a physical
// line directly from stored contents — the recovery action after a
// write to a line whose previous content was lost to a DUE.
func (c *STTRAM) rebuildParities(phys int) error {
	g1, g2 := c.params.Hash1Of(phys), c.params.Hash2Of(phys)
	if err := c.rebuildParity(c.plt1, g1, c.params.Hash1Members(g1)); err != nil {
		return err
	}
	return c.rebuildParity(c.plt2, g2, c.params.Hash2Members(g2))
}

// rebuildParity recomputes one parity line as the XOR of its group's
// member codewords.
func (c *STTRAM) rebuildParity(plt *core.PLT, group int, members []int) error {
	par, err := plt.Parity(group)
	if err != nil {
		return err
	}
	par.Zero()
	for _, m := range members {
		ln := c.lineView(m)
		if err := par.XorInto(&ln); err != nil {
			return err
		}
	}
	return nil
}

// InjectStuckAt pins one cell of the resident line holding addr to a
// fixed value — a permanent fault (§VI: "SuDoku can tolerate all these
// faults, regardless of whether they are permanent or transient").
// Writes and repairs cannot change the cell; every access re-corrects
// the resulting error through the normal ladder, and the group parity
// keeps tracking intended contents, so the deviation shows up as a
// persistent parity mismatch — exactly what SDR keys on.
func (c *STTRAM) InjectStuckAt(addr uint64, bit int, value bool) error {
	if c.cfg.Protection == 0 {
		return ErrNotProtected
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.setIndex(addr)
	w := c.lookup(set, c.tagOf(addr))
	if w < 0 {
		return fmt.Errorf("cache: address %#x not resident", addr)
	}
	phys := c.physIndex(set, w)
	if _, ok := c.retired[phys]; ok {
		return nil // hardened spare rows absorb faults
	}
	return c.stickCell(phys, bit, value)
}

// stickCell records a permanent fault and forces the cell to its stuck
// value. Callers hold c.mu.
func (c *STTRAM) stickCell(phys, bit int, value bool) error {
	if bit < 0 || bit >= c.lineBits {
		return fmt.Errorf("cache: stuck bit %d out of range", bit)
	}
	if c.stuck[phys] == nil {
		c.stuck[phys] = make(map[int]bool)
	}
	c.stuck[phys][bit] = value
	c.stats.faultsInjected.Add(1)
	c.invalidateMirror(phys)
	stored := c.lineView(phys)
	return stored.SetTo(bit, value)
}

// StuckCells returns the number of permanently faulty cells.
func (c *STTRAM) StuckCells() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, cells := range c.stuck {
		n += len(cells)
	}
	return n
}

// reapplyStuck forces a line's permanently faulty cells back to their
// stuck values after a repair or write has (logically) rewritten the
// array. A cell that actually changes invalidates the line's mirror.
func (c *STTRAM) reapplyStuck(phys int) error {
	cells := c.stuck[phys]
	if len(cells) == 0 {
		return nil
	}
	stored := c.lineView(phys)
	for bit, val := range cells {
		if stored.Bit(bit) == val {
			continue
		}
		c.invalidateMirror(phys)
		if err := stored.SetTo(bit, val); err != nil {
			return err
		}
	}
	return nil
}

// InjectFault flips one stored bit of the line holding addr (which
// must be resident). Bit indices cover the whole 553-bit codeword:
// data, CRC, and ECC fields are all fault-prone STTRAM cells.
func (c *STTRAM) InjectFault(addr uint64, bit int) error {
	if c.cfg.Protection == 0 {
		return ErrNotProtected
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.setIndex(addr)
	w := c.lookup(set, c.tagOf(addr))
	if w < 0 {
		return fmt.Errorf("cache: address %#x not resident", addr)
	}
	phys := c.physIndex(set, w)
	if _, ok := c.retired[phys]; ok {
		return nil // hardened spare rows absorb faults
	}
	if err := c.flipCell(phys, bit); err != nil {
		return err
	}
	c.stats.faultsInjected.Add(1)
	return nil
}

// flipCell flips one stored bit of a physical line, invalidating its
// mirror. Callers hold c.mu.
func (c *STTRAM) flipCell(phys, bit int) error {
	stored := c.lineView(phys)
	c.invalidateMirror(phys)
	return stored.Flip(bit)
}

// InjectRandomFaults scatters n random bit flips uniformly over the
// cache's physical cells — one scrub interval's worth of thermal
// faults.
func (c *STTRAM) InjectRandomFaults(r *rng.Source, n int) error {
	if c.cfg.Protection == 0 {
		return ErrNotProtected
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	lineBits := c.codec.StoredBits()
	landed := 0
	for _, pos := range r.SampleDistinct(c.cfg.Lines*lineBits, n) {
		if _, ok := c.retired[pos/lineBits]; ok {
			continue // hardened spare rows absorb faults
		}
		if err := c.flipCell(pos/lineBits, pos%lineBits); err != nil {
			return err
		}
		landed++
	}
	c.stats.faultsInjected.Add(int64(landed))
	return nil
}

// StoredBits returns the per-line stored codeword width in bits — the
// fault-injection bit space is Lines × StoredBits. Zero when protection
// is off.
func (c *STTRAM) StoredBits() int {
	if c.cfg.Protection == 0 {
		return 0
	}
	return c.codec.StoredBits()
}

// InjectFaultsAt flips the stored bits at the given global positions
// (pos = phys*StoredBits() + bit) — the campaign-driven counterpart of
// InjectRandomFaults: faults land by physical location regardless of
// residency, so correlated campaigns can target contiguous line runs.
// Retired lines absorb their faults (hardened spares). Returns the
// number of flips that landed.
func (c *STTRAM) InjectFaultsAt(positions []int) (int, error) {
	if c.cfg.Protection == 0 {
		return 0, ErrNotProtected
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	lineBits := c.codec.StoredBits()
	limit := c.cfg.Lines * lineBits
	landed := 0
	for _, pos := range positions {
		if pos < 0 || pos >= limit {
			c.stats.faultsInjected.Add(int64(landed))
			return landed, fmt.Errorf("cache: fault position %d outside [0, %d)", pos, limit)
		}
		if _, ok := c.retired[pos/lineBits]; ok {
			continue // hardened spare rows absorb faults
		}
		if err := c.flipCell(pos/lineBits, pos%lineBits); err != nil {
			c.stats.faultsInjected.Add(int64(landed))
			return landed, err
		}
		landed++
	}
	c.stats.faultsInjected.Add(int64(landed))
	return landed, nil
}

// InjectStuckAtPhys pins one cell of a physical line slot to a fixed
// value — the campaign-driven form of InjectStuckAt, addressed by slot
// instead of a resident address so stuck-at cohorts can land anywhere.
func (c *STTRAM) InjectStuckAtPhys(phys, bit int, value bool) error {
	if c.cfg.Protection == 0 {
		return ErrNotProtected
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if phys < 0 || phys >= c.cfg.Lines {
		return fmt.Errorf("cache: line %d outside [0, %d)", phys, c.cfg.Lines)
	}
	if _, ok := c.retired[phys]; ok {
		return nil // hardened spare rows absorb faults
	}
	return c.stickCell(phys, bit, value)
}

// ScrubRegion scrubs the member lines of one Hash-1 group out of band —
// the storm controller's targeted response to a hot region, ahead of
// the rotation. It runs the same validate/repair ladder as a full pass
// restricted to the group, but deliberately does NOT count as a scrub
// pass: ScrubPasses, the retirement sweep, the quarantine-audit tick,
// and the pass-duration histogram are untouched, so targeted scrubs
// never skew rotation accounting or the daemon's heartbeat (it counts
// into Stats.TargetedScrubs instead).
func (c *STTRAM) ScrubRegion(group int) (ScrubReport, error) {
	if c.cfg.Protection == 0 {
		return ScrubReport{}, ErrNotProtected
	}
	// Declared before the lock defers so it clears only after the mutex
	// is released: traced ops that queued behind this scrub observe it.
	c.scrubbing.Store(true)
	defer c.scrubbing.Store(false)
	c.mu.Lock()
	defer c.mu.Unlock()
	if group < 0 || group >= c.params.NumGroups() {
		return ScrubReport{}, fmt.Errorf("cache: region %d outside [0, %d)", group, c.params.NumGroups())
	}
	var rep ScrubReport
	members := c.params.Hash1Members(group)
	if len(c.quarantined) > 0 && c.quarantined[group] {
		rep.QuarantineSkipped = len(members)
		c.stats.targetedScrubs.Add(1)
		return rep, nil
	}
	needGroup := false
	var singles []int
	c.rewritten = c.rewritten[:0]
	for _, phys := range members {
		if !c.isLive(phys) {
			continue
		}
		if _, ok := c.retired[phys]; ok {
			continue
		}
		rep.LinesChecked++
		stored := c.probeView(phys)
		ok, err := c.codec.Validate(stored)
		if err != nil {
			return rep, err
		}
		if ok {
			continue
		}
		c.stats.crcDetects.Add(1)
		// codec.Scrub rewrites the line in place: its mirror stays odd
		// until the resync at the end of the pass.
		c.noteRewrite(phys)
		st, err := c.codec.Scrub(stored)
		if err != nil {
			return rep, err
		}
		switch st {
		case core.StatusCorrected:
			rep.SingleRepairs++
			c.noteCE(phys)
		case core.StatusUncorrectable:
			needGroup = true
			singles = append(singles, phys)
		}
	}
	if needGroup {
		report, err := c.repairGroup(group)
		if err != nil {
			return rep, err
		}
		rep.SingleRepairs += report.Hash1.SinglesCorrected
		rep.SDRRepairs += report.Hash1.SDRRepairs
		rep.RAIDRepairs += report.Hash1.RAIDRepairs
		rep.Hash2Repairs += report.Hash2Repairs
		c.emitGroupRepair(group, report)
	}
	if err := c.collectDUEs(singles, &rep); err != nil {
		return rep, err
	}
	c.stats.uncorrectableDUEs.Add(int64(len(rep.DUELines)))
	c.stats.singleRepairs.Add(int64(rep.SingleRepairs))
	c.stats.sdrRepairs.Add(int64(rep.SDRRepairs))
	c.stats.raidRepairs.Add(int64(rep.RAIDRepairs))
	c.stats.hash2Repairs.Add(int64(rep.Hash2Repairs))
	c.stats.targetedScrubs.Add(1)
	// A Hash-2 retry can rewrite lines outside this group, so permanent
	// faults reassert cache-wide, exactly as after a full pass.
	if err := c.reapplyAllStuck(); err != nil {
		return rep, err
	}
	c.resyncRewritten(-1)
	return rep, nil
}

// collectDUEs appends to rep.DUELines every line of singles (lines the
// per-line scrub could not repair) that still fails its CRC check after
// the group repairs.
func (c *STTRAM) collectDUEs(singles []int, rep *ScrubReport) error {
	for _, phys := range singles {
		stored := c.lineView(phys)
		ok, err := c.codec.Check(&stored)
		if err != nil {
			return err
		}
		if !ok {
			rep.DUELines = append(rep.DUELines, phys)
		}
	}
	return nil
}

// reapplyAllStuck reasserts every permanent fault in the cache.
func (c *STTRAM) reapplyAllStuck() error {
	for phys := range c.stuck {
		if err := c.reapplyStuck(phys); err != nil {
			return err
		}
	}
	return nil
}

// Scrub performs one full scrub pass (§II-D): every materialized line
// is checked; single-bit faults are repaired in place and multi-bit
// faults invoke the group machinery. Unrepaired lines are reported as
// DUEs.
func (c *STTRAM) Scrub() (ScrubReport, error) {
	if c.cfg.Protection == 0 {
		return ScrubReport{}, ErrNotProtected
	}
	c.scrubbing.Store(true)
	defer c.scrubbing.Store(false)
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	var rep ScrubReport
	// Allocated lazily: a clean pass (the steady-state common case)
	// never touches the heap.
	var groups map[int]struct{}
	var singles []int
	c.rewritten = c.rewritten[:0]
	// Walk the materialized lines in ascending order, one bitmap word
	// at a time.
	for wi, word := range c.live {
		for ; word != 0; word &= word - 1 {
			phys := wi*64 + bits.TrailingZeros64(word)
			if _, ok := c.retired[phys]; ok {
				continue // abandoned array cells; the spare row serves reads
			}
			if len(c.quarantined) > 0 && c.quarantined[c.params.Hash1Of(phys)] {
				rep.QuarantineSkipped++
				continue
			}
			rep.LinesChecked++
			stored := c.probeView(phys)
			ok, err := c.codec.Validate(stored)
			if err != nil {
				return rep, err
			}
			if ok {
				continue
			}
			c.stats.crcDetects.Add(1)
			c.noteRewrite(phys)
			st, err := c.codec.Scrub(stored)
			if err != nil {
				return rep, err
			}
			switch st {
			case core.StatusCorrected:
				rep.SingleRepairs++
				c.noteCE(phys)
			case core.StatusUncorrectable:
				if groups == nil {
					groups = make(map[int]struct{})
				}
				groups[c.params.Hash1Of(phys)] = struct{}{}
				singles = append(singles, phys)
			}
		}
	}
	// Repair groups in ascending order: a Hash-2 retry can rewrite lines
	// outside the group under repair, so map-iteration order would make
	// replay counters nondeterministic.
	var groupList []int
	for g := range groups {
		groupList = append(groupList, g)
	}
	sort.Ints(groupList)
	for _, g := range groupList {
		report, err := c.repairGroup(g)
		if err != nil {
			return rep, err
		}
		rep.SingleRepairs += report.Hash1.SinglesCorrected
		rep.SDRRepairs += report.Hash1.SDRRepairs
		rep.RAIDRepairs += report.Hash1.RAIDRepairs
		rep.Hash2Repairs += report.Hash2Repairs
		c.emitGroupRepair(g, report)
	}
	if err := c.collectDUEs(singles, &rep); err != nil {
		return rep, err
	}
	c.stats.uncorrectableDUEs.Add(int64(len(rep.DUELines)))
	c.stats.singleRepairs.Add(int64(rep.SingleRepairs))
	c.stats.sdrRepairs.Add(int64(rep.SDRRepairs))
	c.stats.raidRepairs.Add(int64(rep.RAIDRepairs))
	c.stats.hash2Repairs.Add(int64(rep.Hash2Repairs))
	c.stats.scrubPasses.Add(1)
	// Permanent faults reassert themselves the moment the scrub
	// write-back completes; only then do the rewritten lines' mirrors
	// match their rows again.
	if err := c.reapplyAllStuck(); err != nil {
		return rep, err
	}
	c.resyncRewritten(-1)
	// Serviceability phases: retire chronic lines whose leaky bucket
	// tripped, drain the buckets, and audit the parity tables.
	if c.cfg.RetireCEThreshold > 0 {
		if err := c.retireSweep(&rep); err != nil {
			return rep, err
		}
	}
	if c.cfg.QuarantineAuditPasses > 0 {
		c.auditTick++
		if c.auditTick >= c.cfg.QuarantineAuditPasses {
			c.auditTick = 0
			if err := c.auditParity(&rep); err != nil {
				return rep, err
			}
		}
	}
	c.hist.scrubPass.ObserveNs(int64(time.Since(start)))
	return rep, nil
}

// noteCE feeds one correctable-error token into a line's leaky bucket.
// Callers hold c.mu. Retirement itself happens only in the scrub
// pass's retireSweep, when the line's content is known-correctable.
func (c *STTRAM) noteCE(phys int) {
	if c.cfg.RetireCEThreshold <= 0 {
		return
	}
	if _, ok := c.retired[phys]; ok {
		return
	}
	c.ceBucket[phys]++
}

// retireSweep retires every line whose bucket reached the threshold,
// then drains the buckets (halving every ceDecayPasses passes) so
// isolated bursts decay while chronic lines keep climbing.
func (c *STTRAM) retireSweep(rep *ScrubReport) error {
	for phys, n := range c.ceBucket {
		if n < c.cfg.RetireCEThreshold {
			continue
		}
		ok, err := c.retire(phys)
		if err != nil {
			return err
		}
		if ok {
			rep.LinesRetired++
		}
	}
	c.decayTick++
	if c.decayTick >= ceDecayPasses {
		c.decayTick = 0
		for phys, n := range c.ceBucket {
			if n /= 2; n == 0 {
				delete(c.ceBucket, phys)
			} else {
				c.ceBucket[phys] = n
			}
		}
	}
	return nil
}

// retire remaps one physical line to a hardened spare row: the current
// payload moves to the spare, the array cells are abandoned (stored
// wiped to the zero codeword, parities rebuilt around it, stuck-cell
// bookkeeping dropped), and the remap entry redirects all future
// traffic. It reports false when the line had to stay in service (no
// spare left, or content not presently recoverable).
func (c *STTRAM) retire(phys int) (bool, error) {
	if _, ok := c.retired[phys]; ok {
		delete(c.ceBucket, phys)
		return false, nil
	}
	if c.spareUsed >= len(c.spareData) {
		// Out of spares: the chronic line stays in service. Drop the
		// bucket so the event fires at a bounded rate (it refills if
		// the line keeps erring).
		delete(c.ceBucket, phys)
		c.emit(ras.KindSpareExhausted, phys, ras.NoAddr, "spare pool empty; line stays in service")
		return false, nil
	}
	if !c.isLive(phys) {
		return false, nil
	}
	stored := c.lineView(phys)
	// The chronic line typically arrives here with its permanent fault
	// freshly reasserted; per-line repair recovers the intended content
	// for the move. A multi-bit residue (a DUE in flight) defers the
	// retirement to a later pass, after the read path has recovered or
	// discarded the line. Either way the row may be rewritten, so the
	// mirror goes odd first (the next locked read resyncs a deferral).
	c.invalidateMirror(phys)
	if st, err := c.codec.Scrub(&stored); err != nil {
		return false, err
	} else if st == core.StatusUncorrectable {
		return false, nil
	}
	payload := make([]byte, c.cfg.LineBytes)
	for w := 0; w < c.cfg.LineBytes/8; w++ {
		binary.LittleEndian.PutUint64(payload[8*w:], stored.Word(w))
	}
	sp := c.spareUsed
	c.spareUsed++
	c.spareData[sp] = payload
	delete(c.stuck, phys)
	// Retired lines keep a permanently odd mirror (made odd above): the
	// spare-row remap is locked-path-only state (syncLine refuses
	// retired lines too).
	stored.Zero()
	if err := c.rebuildParities(phys); err != nil {
		return false, err
	}
	c.retired[phys] = sp
	delete(c.ceBucket, phys)
	c.stats.linesRetired.Add(1)
	c.emit(ras.KindLineRetired, phys, ras.NoAddr, "correctable-error threshold")
	return true, nil
}

// auditParity sweeps every Hash-1 group for the bad-parity signature:
// all member lines individually check clean, yet the group parity
// mismatches their XOR — only the parity line itself can be at fault.
// Such regions are quarantined until RebuildQuarantined.
func (c *STTRAM) auditParity(rep *ScrubReport) error {
	for g := 0; g < c.params.NumGroups(); g++ {
		if c.quarantined[g] {
			continue
		}
		quarantined, err := c.auditGroup(g)
		if err != nil {
			return err
		}
		if quarantined {
			rep.RegionsQuarantined++
		}
	}
	return nil
}

// auditGroup runs the bad-parity audit on one Hash-1 group, reporting
// whether it newly quarantined the region. Callers hold c.mu and have
// already filtered out quarantined groups.
func (c *STTRAM) auditGroup(g int) (bool, error) {
	acc := c.scr.audit
	acc.Zero()
	empty := true
	for _, m := range c.params.Hash1Members(g) {
		if !c.isLive(m) {
			continue // lazy zero codeword contributes nothing
		}
		empty = false
		ln := c.lineView(m)
		if err := acc.XorInto(&ln); err != nil {
			return false, err
		}
	}
	if empty {
		return false, nil
	}
	par, err := c.plt1.Parity(g)
	if err != nil {
		return false, err
	}
	if acc.Equal(par) {
		return false, nil
	}
	// Mismatch: distinguish bad member data (normal repair territory,
	// including stuck cells' persistent deviation) from a bad parity
	// line.
	for _, m := range c.params.Hash1Members(g) {
		if !c.isLive(m) {
			continue
		}
		ln := c.lineView(m)
		if ok, err := c.codec.Check(&ln); err != nil {
			return false, err
		} else if !ok {
			return false, nil
		}
	}
	c.quarantined[g] = true
	c.emit(ras.KindRegionQuarantined, ras.NoLine, ras.NoAddr, fmt.Sprintf("hash1 group %d: parity line failed audit", g))
	return true, nil
}

// AuditRegion runs the bad-parity audit on a single Hash-1 group out of
// band — the storm controller's proactive probe of a region whose
// event-rate detector tripped, ahead of the rotation's periodic audit.
// It reports whether the region is quarantined afterwards (newly or
// already). A cache built without quarantine support (zero
// QuarantineAuditPasses) audits nothing and reports false.
func (c *STTRAM) AuditRegion(group int) (bool, error) {
	if c.cfg.Protection == 0 {
		return false, ErrNotProtected
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if group < 0 || group >= c.params.NumGroups() {
		return false, fmt.Errorf("cache: region %d outside [0, %d)", group, c.params.NumGroups())
	}
	if c.cfg.QuarantineAuditPasses <= 0 {
		return false, nil
	}
	if c.quarantined[group] {
		return true, nil
	}
	return c.auditGroup(group)
}

// RebuildQuarantined returns every quarantined region to service:
// member lines get a per-line repair pass, the group parity is
// recomputed from their (intended) contents, and permanent faults
// reassert afterwards so they stay SDR-visible. It returns the number
// of regions rebuilt.
func (c *STTRAM) RebuildQuarantined() (int, error) {
	if c.cfg.Protection == 0 {
		return 0, ErrNotProtected
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	c.rewritten = c.rewritten[:0]
	for g := range c.quarantined {
		members := c.params.Hash1Members(g)
		// Repair what per-line ECC can reach so the rebuilt parity
		// tracks intended contents, not accumulated faults. A line that
		// validates needs no scrub; one that does not is rewritten.
		for _, m := range members {
			if !c.isLive(m) {
				continue
			}
			stored := c.probeView(m)
			if ok, err := c.codec.Validate(stored); err != nil {
				return n, err
			} else if ok {
				continue
			}
			c.noteRewrite(m)
			if _, err := c.codec.Scrub(stored); err != nil {
				return n, err
			}
		}
		par, err := c.plt1.Parity(g)
		if err != nil {
			return n, err
		}
		par.Zero()
		for _, m := range members {
			if !c.isLive(m) {
				continue
			}
			ln := c.lineView(m)
			if err := par.XorInto(&ln); err != nil {
				return n, err
			}
		}
		for _, m := range members {
			if err := c.reapplyStuck(m); err != nil {
				return n, err
			}
		}
		delete(c.quarantined, g)
		n++
		c.emit(ras.KindRegionRebuilt, ras.NoLine, ras.NoAddr, fmt.Sprintf("hash1 group %d: parity recomputed", g))
	}
	c.resyncRewritten(-1)
	return n, nil
}

// InjectParityFault flips one bit of a Hash-1 group's parity line —
// the fault the quarantine audit exists to catch. Unlike line faults
// it needs no resident address: parity lines are per-group state.
func (c *STTRAM) InjectParityFault(group, bit int) error {
	if c.cfg.Protection == 0 {
		return ErrNotProtected
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if group < 0 || group >= c.params.NumGroups() {
		return fmt.Errorf("cache: parity group %d out of range", group)
	}
	par, err := c.plt1.Parity(group)
	if err != nil {
		return err
	}
	if err := par.Flip(bit); err != nil {
		return err
	}
	c.stats.faultsInjected.Add(1)
	return nil
}
