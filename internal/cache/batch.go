// Batched access paths: many line operations executed under a single
// acquisition of the engine mutex. The per-operation machinery (tag
// lookup, bank timing, repair ladder, PLT delta updates) is identical
// to the single-op paths — what a batch amortizes is the fixed
// per-call overhead around it: one mutex acquire/release for N items
// instead of N, one scratch-vector working set kept hot across items,
// and the PLT delta updates of every item in the batch applied inside
// one critical section. The sharded engine stacks a second layer on
// top (shard.Engine.ReadBatch groups items by shard so each shard lock
// is also taken once).
package cache

import (
	"fmt"
	"time"
)

// validateBatch checks the common gather/scatter contract of the batch
// APIs: idx must parallel addrs, every scattered item must fit in buf,
// and errs must be addressable at every scatter index.
func (c *STTRAM) validateBatch(addrs []uint64, idx []int, buf []byte, errs []error) error {
	if len(idx) != len(addrs) {
		return fmt.Errorf("cache: batch idx len %d, addrs len %d", len(idx), len(addrs))
	}
	lb := c.cfg.LineBytes
	for i, j := range idx {
		if j < 0 || (j+1)*lb > len(buf) || j >= len(errs) {
			return fmt.Errorf("cache: batch item %d scatters to index %d outside buffer (%d bytes) or errs (%d)",
				i, j, len(buf), len(errs))
		}
	}
	return nil
}

// ReadBatchInto reads len(addrs) lines under one engine-mutex
// acquisition. It is a gather/scatter form: item i reads the line at
// addrs[i] into dst[j*LineBytes:(j+1)*LineBytes] and records its
// outcome in errs[j], where j = idx[i] — the sharded engine uses idx
// to scatter each shard's group of a larger batch back into the
// caller's frame. Items are served back-to-back in
// model time: each sees the bank state its predecessors left. The
// returned latency is the whole batch's, and failed counts items whose
// errs entry is non-nil; err reports only structural misuse (mismatched
// lengths), in which case nothing was read.
func (c *STTRAM) ReadBatchInto(now time.Duration, addrs []uint64, idx []int, dst []byte, errs []error) (lat time.Duration, failed int, err error) {
	if err := c.validateBatch(addrs, idx, dst, errs); err != nil {
		return 0, 0, err
	}
	lb := c.cfg.LineBytes
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := now
	for i, addr := range addrs {
		j := idx[i]
		l, rerr := c.readIntoLocked(cur, addr, dst[j*lb:(j+1)*lb], nil)
		cur += l
		errs[j] = rerr
		if rerr != nil {
			failed++
		}
	}
	return cur - now, failed, nil
}

// WriteBatch writes len(addrs) lines under one engine-mutex
// acquisition, the scatter dual of ReadBatchInto: item i writes
// data[j*LineBytes:(j+1)*LineBytes] (j = idx[i]) to the line at
// addrs[i] and records its outcome in errs[j]. Every
// item's read-modify-write and both PLT delta updates happen inside
// the single critical section. Latency/failed/err as in ReadBatchInto.
func (c *STTRAM) WriteBatch(now time.Duration, addrs []uint64, idx []int, data []byte, errs []error) (lat time.Duration, failed int, err error) {
	if err := c.validateBatch(addrs, idx, data, errs); err != nil {
		return 0, 0, err
	}
	lb := c.cfg.LineBytes
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := now
	for i, addr := range addrs {
		j := idx[i]
		l, werr := c.writeLocked(cur, addr, data[j*lb:(j+1)*lb], nil)
		cur += l
		errs[j] = werr
		if werr != nil {
			failed++
		}
	}
	return cur - now, failed, nil
}
