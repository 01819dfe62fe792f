// Seqlock read fast path: resident clean read hits served without the
// engine mutex.
//
// Every mutation of a line's stored codeword happens under c.mu and is
// republished to the line's row of a mirror arena of atomic words,
// bracketed by the line's entry in a sequence array (odd while a
// publish is in flight or the mirror is invalid, even and monotonically
// increasing between publishes; 0 means never published). An optimistic
// reader locates the line through an atomic tag table, snapshots the
// mirror row into a stack buffer, runs the CRC-31 check over the
// snapshot, and then re-reads the sequence word: an unchanged even
// sequence proves no publish overlapped the copy, so the snapshot is
// the exact codeword some locked mutator published — the same bytes a
// locked read would have returned. Anything else (torn copy, concurrent
// publish, CRC-detected fault, unpublished or invalidated mirror) falls
// back to the locked path, where the full repair ladder, RAS events,
// and retirement accounting live. The CRC alone is NOT sufficient: a
// copy torn across two different valid codewords can pass it, and a
// stale mirror under a recycled tag would pass it with the wrong
// line's data — the sequence recheck and the invalidate-before-tag
// ordering close both holes (DESIGN.md appendix 14).
//
// Invalidation is exact. Writes, reloads and discards invalidate their
// line and resync it when they settle; fault injections invalidate the
// lines they flip. The group repair's view (cacheView.Line) turns every
// line it hands out odd and records it, per-line scrub repairs and
// quarantine rebuilds record the lines they rewrite, and the operation
// resyncs exactly the recorded lines once permanent faults are
// reasserted. A line left odd — an error exit, a retired line — is
// resynced by its next locked read.
package cache

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"sudoku/internal/bitvec"
	"sudoku/internal/reqtrace"
)

// mirrorWords is the stack-snapshot capacity in 64-bit words. The
// default codeword is 553 bits (9 words); BCH-strength lines stay
// under 1024 bits. A geometry that ever exceeded this disables the
// fast path rather than truncating.
const mirrorWords = 16

// fastPath is the lock-free read-side state hanging off an STTRAM: three
// pointer-free arrays indexed by physical line. Nil (protection off,
// DisableFastReads, or oversized codewords) means every read takes the
// locked path.
type fastPath struct {
	// tags holds tag<<1|valid per physical slot, published in lockstep
	// with the (mutex-guarded) way metadata so optimistic readers can
	// resolve addr→phys without the lock.
	tags []atomic.Uint64
	// seq is each line's seqlock word: 0 until the first publish, odd
	// while a publish is in flight or the mirror is invalid (permanently,
	// for retired lines, whose truth lives in the spare row), even
	// between publishes. It only ever increases.
	seq []atomic.Uint64
	// words is the mirror arena: line phys's published codeword occupies
	// words[phys*nw : (phys+1)*nw]. Atomic loads are plain MOVs on
	// amd64; the stores all happen under c.mu.
	words []atomic.Uint64
	// nw is the mirror row width in words.
	nw int
	// readHook, when non-nil, runs inside tryReadInto between the
	// sequence acquire and the word copy with the line being read — the
	// deterministic interleaving point the seqlock unit tests drive
	// concurrent publishes through. Set it before any traffic; test-only.
	readHook func(phys int)
}

func newFastPath(lines int, storedBits int) *fastPath {
	nw := (storedBits + 63) / 64
	if nw > mirrorWords {
		return nil
	}
	return &fastPath{
		tags:  make([]atomic.Uint64, lines),
		seq:   make([]atomic.Uint64, lines),
		words: make([]atomic.Uint64, lines*nw),
		nw:    nw,
	}
}

// mirror returns a line's row of the mirror arena.
func (fp *fastPath) mirror(phys int) []atomic.Uint64 {
	return fp.words[phys*fp.nw : (phys+1)*fp.nw]
}

// encodeTag packs (tag, valid) into one atomic word; 0 is "invalid".
func encodeTag(tag uint64, valid bool) uint64 {
	if !valid {
		return 0
	}
	return tag<<1 | 1
}

// publishTag mirrors a slot's tag/valid transition into the atomic tag
// table. Callers hold c.mu. Identity changes must invalidate the
// slot's mirror BEFORE publishing the new tag: a reader that observes
// the new tag is then guaranteed to observe an odd (or resynced)
// sequence, never the previous occupant's clean codeword.
func (c *STTRAM) publishTag(phys int, tag uint64, valid bool) {
	if c.fp == nil {
		return
	}
	c.fp.tags[phys].Store(encodeTag(tag, valid))
}

// invalidateMirror turns a line's mirror odd so every optimistic read
// of it falls back until the next syncLine. Callers hold c.mu. It must
// precede any mutation of the line's identity or stored words that is
// not itself followed by a syncLine. A never-published mirror (sequence
// 0) is already unusable and stays as it is.
func (c *STTRAM) invalidateMirror(phys int) {
	if c.fp == nil {
		return
	}
	seq := &c.fp.seq[phys]
	if s := seq.Load(); s != 0 && s&1 == 0 {
		seq.Store(s + 1)
	}
}

// syncLine republishes a line's stored codeword to its mirror row:
// sequence to odd, words copied, sequence to the next even value.
// Callers hold c.mu and call it after every mutation settles
// (writeLine, reloadLine, a locked read's repairs, resyncRewritten),
// so the arena exists. Retired lines are left permanently odd — their
// truth lives in the spare row and only the locked path knows the
// remap.
func (c *STTRAM) syncLine(phys int) {
	fp := c.fp
	if fp == nil {
		return
	}
	if _, ok := c.retired[phys]; ok {
		c.invalidateMirror(phys)
		return
	}
	seq := &fp.seq[phys]
	s := seq.Load()
	if s&1 == 0 {
		s++
		seq.Store(s)
	}
	dst := fp.mirror(phys)
	src := c.arena[phys*c.nw : (phys+1)*c.nw]
	for i := range dst {
		dst[i].Store(src[i])
	}
	seq.Store(s + 1) // odd → next even
}

// noteRewrite turns a line's mirror odd and records it on c.rewritten.
// Callers hold c.mu and are about to rewrite the line's codeword, or to
// hand it to the group repair, which may.
func (c *STTRAM) noteRewrite(phys int) {
	if c.fp == nil {
		return
	}
	c.invalidateMirror(phys)
	c.rewritten = append(c.rewritten, phys)
}

// resyncRewritten republishes every line on c.rewritten except skip —
// the line of the access in flight, which its caller resyncs once the
// access settles — and empties the list. Callers hold c.mu and have
// reasserted permanent faults, so each mirror matches its stored row.
func (c *STTRAM) resyncRewritten(skip int) {
	for _, phys := range c.rewritten {
		if phys != skip {
			c.syncLine(phys)
		}
	}
	c.rewritten = c.rewritten[:0]
}

// setWay rewrites a slot's way metadata field-wise, keeping the atomic
// tag table in lockstep and the lastUse word safe against the fast
// path's concurrent atomic LRU touches. Callers hold c.mu and have
// already invalidated the slot's mirror if the identity changed.
func (c *STTRAM) setWay(set, w int, tag uint64, valid, dirty bool, lastUse uint64) {
	e := &c.ways[c.physIndex(set, w)]
	e.tag = tag
	e.valid = valid
	e.dirty = dirty
	atomic.StoreUint64(&e.lastUse, lastUse)
	c.publishTag(c.physIndex(set, w), tag, valid)
}

// touchWay bumps a slot's LRU stamp. Callers hold c.mu OR are the fast
// path (which never holds it) — hence the atomic store; the clock
// itself is atomic for the same reason.
func (c *STTRAM) touchWay(set, w int) {
	atomic.StoreUint64(&c.ways[c.physIndex(set, w)].lastUse, c.useClock.Add(1))
}

// TryReadInto attempts the optimistic seqlock read of the line holding
// addr into dst, never taking the engine mutex. It returns ok=false —
// with dst untouched — whenever the locked path must run instead: the
// line is not (observably) resident, its mirror is unpublished, invalid
// or mid-publish, the copy was torn, or the CRC flagged the snapshot.
// Non-clean outcomes (CE, DUE, refetch) therefore always reach the
// locked repair ladder. The sharded engine's batch pre-pass calls this
// per item; ReadInto calls it first on every single read.
func (c *STTRAM) TryReadInto(now time.Duration, addr uint64, dst []byte) (time.Duration, bool) {
	return c.tryReadInto(now, addr, dst, nil)
}

// tryReadInto is TryReadInto with an optional request trace: each
// fallback reason is noted on tr (nil-safe, one branch untraced) so a
// traced request records WHY it lost the lock-free path.
func (c *STTRAM) tryReadInto(now time.Duration, addr uint64, dst []byte, tr *reqtrace.Trace) (time.Duration, bool) {
	fp := c.fp
	if fp == nil || len(dst) != c.cfg.LineBytes {
		return 0, false
	}
	set := c.setIndex(addr)
	enc := encodeTag(c.tagOf(addr), true)
	base := set * c.cfg.Ways
	w := -1
	for i := 0; i < c.cfg.Ways; i++ {
		if fp.tags[base+i].Load() == enc {
			w = i
			break
		}
	}
	if w < 0 {
		// Not resident (or mid-fill): a miss, not a fallback — there was
		// no optimistic copy to abandon.
		return 0, false
	}
	phys := base + w
	seq := &fp.seq[phys]
	s1 := seq.Load()
	if s1 == 0 {
		c.stats.seqlockFallbacks.Add(1)
		tr.Note(reqtrace.KindSeqlockFallback, addr, reqtrace.SeqlockNoMirror)
		return 0, false
	}
	if s1&1 != 0 {
		c.stats.seqlockFallbacks.Add(1)
		tr.Note(reqtrace.KindSeqlockFallback, addr, reqtrace.SeqlockSeqOdd)
		return 0, false
	}
	if hook := fp.readHook; hook != nil {
		hook(phys)
	}
	var buf [mirrorWords]uint64
	m := fp.mirror(phys)
	for i := range m {
		buf[i] = m[i].Load()
	}
	v := bitvec.View(buf[:fp.nw], c.codec.StoredBits())
	if ok, err := c.codec.Check(&v); err != nil || !ok {
		// A genuine fault or a torn copy — indistinguishable here, and
		// deliberately uncounted as a CRC detection: the locked path
		// re-checks the real codeword and owns crcDetects/repair
		// accounting, so the ladder's counters never double-fire.
		c.stats.seqlockFallbacks.Add(1)
		tr.Note(reqtrace.KindSeqlockFallback, addr, reqtrace.SeqlockTorn)
		return 0, false
	}
	if seq.Load() != s1 || fp.tags[phys].Load() != enc {
		// Torn: a publish overlapped the copy, or the slot was recycled.
		c.stats.seqlockFallbacks.Add(1)
		tr.Note(reqtrace.KindSeqlockFallback, addr, reqtrace.SeqlockRecheck)
		return 0, false
	}
	// The snapshot is validated and provably untorn; only now may dst
	// be written (the "buffer contents unspecified on error" contract:
	// a failed optimistic attempt leaves dst exactly as it was, and the
	// locked fallback then fully overwrites it).
	for i := 0; i < c.cfg.LineBytes/8; i++ {
		binary.LittleEndian.PutUint64(dst[8*i:], buf[i])
	}
	c.stats.reads.Add(1)
	c.stats.hits.Add(1)
	c.stats.seqlockReads.Add(1)
	c.touchWay(set, w)
	// Timing model: the array read plus the syndrome-check cycle. The
	// bank queue is mutex-guarded state; a lock-free hit deliberately
	// models the uncontended bank (DESIGN.md appendix 14 quantifies the
	// approximation).
	lat := dur(ns(c.cfg.ReadLatency) + c.crcCheckNs())
	c.hist.readHit.Stripe(set).ObserveNs(int64(lat))
	return lat, true
}
