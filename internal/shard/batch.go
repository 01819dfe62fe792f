package shard

import (
	"fmt"
	"sync"

	"sudoku/internal/reqtrace"
)

// batchScratch holds one batch's grouped view: item indices reordered
// so each shard's items are contiguous (shard s owns
// order[start[s]:start[s+1]], with subAddrs[k] the shard-local address
// of item order[k]). Scratch lives in a pool on the engine — the batch
// paths exist to amortize per-item overhead, so the planner must not
// reintroduce it as per-call allocation.
type batchScratch struct {
	order    []int
	start    []int
	cursor   []int
	subAddrs []uint64
	// resAddrs/resIdx stage the residue of ReadBatch's optimistic
	// pre-pass: the addresses the seqlock fast path could not serve and
	// their original item indices.
	resAddrs []uint64
	resIdx   []int
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// planInto groups addrs by shard with two counting passes into sc's
// pooled slices (addrs may alias sc.resAddrs; only order, start,
// cursor, and subAddrs are written). Nothing in sc escapes.
func (e *Engine) planInto(sc *batchScratch, addrs []uint64) {
	n := len(e.shards)
	sc.start = grown(sc.start, n+1)
	sc.cursor = grown(sc.cursor, n)
	sc.order = grown(sc.order, len(addrs))
	sc.subAddrs = grown(sc.subAddrs, len(addrs))
	for s := 0; s <= n; s++ {
		sc.start[s] = 0
	}
	for _, a := range addrs {
		s, _ := e.locate(a)
		sc.start[s+1]++
	}
	for s := 1; s <= n; s++ {
		sc.start[s] += sc.start[s-1]
	}
	copy(sc.cursor, sc.start[:n])
	for i, a := range addrs {
		s, sub := e.locate(a)
		k := sc.cursor[s]
		sc.cursor[s]++
		sc.order[k] = i
		sc.subAddrs[k] = sub
	}
}

// planBatch is planInto with pool bookkeeping for the callers that plan
// the whole batch. Callers must return sc via batchScratchPool.Put once
// the batch completes.
func (e *Engine) planBatch(addrs []uint64) *batchScratch {
	sc := batchScratchPool.Get().(*batchScratch)
	e.planInto(sc, addrs)
	return sc
}

// validateBatch checks the engine-level batch contract.
func (e *Engine) validateBatch(addrs []uint64, buf []byte, errs []error) error {
	if want := len(addrs) * int(e.lineSz); len(buf) != want {
		return fmt.Errorf("shard: batch buffer of %d bytes, want %d for %d lines", len(buf), want, len(addrs))
	}
	if len(errs) < len(addrs) {
		return fmt.Errorf("shard: batch errs len %d < %d items", len(errs), len(addrs))
	}
	return nil
}

// ReadBatch reads len(addrs) lines into dst (len(addrs)×LineBytes,
// item i at dst[i*LineBytes:]), grouping items by shard so each
// shard's engine mutex is acquired once per batch instead of once per
// line — the amortization the server's batch endpoints ride on. Item
// outcomes land in errs[i] (nil on success); failed counts the
// non-nil entries. Shards are visited in ascending order holding one
// sub-cache lock at a time, per the engine locking protocol; err
// reports only structural misuse. The shard-grouping plan is noted once
// on tr (nil = untraced); per-item internals stay untraced.
func (e *Engine) ReadBatch(addrs []uint64, dst []byte, errs []error, tr *reqtrace.Trace) (failed int, err error) {
	e.batchPlanNote(tr, addrs)
	if err := e.validateBatch(addrs, dst, errs); err != nil {
		return 0, err
	}
	lb := int(e.lineSz)
	p := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(p)
	// Optimistic pre-pass: serve what the seqlock fast path can without
	// any shard lock, collecting the residue (misses, faulty lines, torn
	// attempts) for the locked plan below.
	p.resAddrs = grown(p.resAddrs, len(addrs))
	p.resIdx = grown(p.resIdx, len(addrs))
	res := 0
	for i, a := range addrs {
		s, sub := e.locate(a)
		st := e.shards[s]
		if lat, ok := st.llc.TryReadInto(st.now(), sub, dst[i*lb:(i+1)*lb]); ok {
			st.advance(lat)
			errs[i] = nil
			continue
		}
		p.resAddrs[res] = a
		p.resIdx[res] = i
		res++
	}
	if res == 0 {
		return 0, nil
	}
	// Plan only the residue, then rewrite the plan's order entries from
	// residue-relative to original item indices so ReadBatchInto lands
	// results in the caller's dst/errs slots directly.
	e.planInto(p, p.resAddrs[:res])
	for k := 0; k < res; k++ {
		p.order[k] = p.resIdx[p.order[k]]
	}
	for s := range e.shards {
		lo, hi := p.start[s], p.start[s+1]
		if lo == hi {
			continue
		}
		st := e.shards[s]
		lat, f, berr := st.llc.ReadBatchInto(st.now(), p.subAddrs[lo:hi], p.order[lo:hi], dst, errs)
		st.advance(lat)
		failed += f
		if berr != nil {
			return failed, fmt.Errorf("shard %d: %w", s, berr)
		}
	}
	return failed, nil
}

// batchPlanNote records the batch-planning decision on tr: Addr is the
// item count and Code the number of distinct shard groups the batch
// splits into. Per-item batch internals deliberately stay untraced —
// one span per batch, not per line, keeps a 64-item batch from eating
// the whole span budget.
func (e *Engine) batchPlanNote(tr *reqtrace.Trace, addrs []uint64) {
	if tr == nil {
		return
	}
	var mask uint64
	groups := 0
	for _, a := range addrs {
		s, _ := e.locate(a)
		if s > 63 {
			s = 63 // >64 shards never happens in practice; clamp the mask
		}
		if mask&(1<<uint(s)) == 0 {
			mask |= 1 << uint(s)
			groups++
		}
	}
	if groups > 255 {
		groups = 255
	}
	tr.Note(reqtrace.KindBatchPlan, uint64(len(addrs)), uint8(groups))
}

// WriteBatch writes len(addrs) lines from data (item i at
// data[i*LineBytes:]), grouped by shard like ReadBatch: each shard's
// lock is taken once and every item's read-modify-write plus both PLT
// delta updates run inside that one critical section. The plan is
// noted on tr as in ReadBatch.
func (e *Engine) WriteBatch(addrs []uint64, data []byte, errs []error, tr *reqtrace.Trace) (failed int, err error) {
	e.batchPlanNote(tr, addrs)
	if err := e.validateBatch(addrs, data, errs); err != nil {
		return 0, err
	}
	p := e.planBatch(addrs)
	defer batchScratchPool.Put(p)
	for s := range e.shards {
		lo, hi := p.start[s], p.start[s+1]
		if lo == hi {
			continue
		}
		st := e.shards[s]
		lat, f, berr := st.llc.WriteBatch(st.now(), p.subAddrs[lo:hi], p.order[lo:hi], data, errs)
		st.advance(lat)
		failed += f
		if berr != nil {
			return failed, fmt.Errorf("shard %d: %w", s, berr)
		}
	}
	return failed, nil
}
