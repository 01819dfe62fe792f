package shard

// Seqlock interleaving torture: optimistic lock-free readers racing
// every mutator class the fast path must survive — writes, scrub
// repairs, targeted scrubs, retirement sweeps, quarantine rebuilds,
// and ApplyFaults campaigns. Written for the race detector (CI runs
// `go test -race ./internal/shard/...`): the shadow assertions are the
// zero-SDC gate (a torn or stale optimistic read that escapes
// validation surfaces as a foreign tag), the race detector catches any
// unsynchronized mirror state.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sudoku/internal/cache"
	"sudoku/internal/core"
	"sudoku/internal/faultmodel"
)

func TestRaceSeqlockReadersVsAllMutators(t *testing.T) {
	cfg := testConfig(core.ProtectionZ)
	cfg.Cache.RetireCEThreshold = 3
	cfg.Cache.QuarantineAuditPasses = 2
	e := mustEngine(t, cfg)
	const (
		writers   = 3
		perWriter = 48
		rounds    = 30
	)
	progress := make([]atomic.Int64, writers)
	stop := make(chan struct{})
	errCh := make(chan error, 4*writers+8)
	addrOf := func(w, i int) uint64 { return uint64(w*perWriter+i) * 64 }
	payload := func(w, round int) []byte {
		b := bytes.Repeat([]byte{byte(w + 1)}, 64)
		b[1] = byte(round)
		return b
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for round := 0; round < rounds; round++ {
				for i := 0; i < perWriter; i++ {
					if err := e.Write(addrOf(w, i), payload(w, round), nil); err != nil {
						errCh <- fmt.Errorf("writer %d: %w", w, err)
						return
					}
					if round == 0 {
						progress[w].Store(int64(i + 1))
					}
				}
			}
		}(w)
	}

	var loopWG sync.WaitGroup
	// Single readers: the seqlock fast path under fire.
	for r := 0; r < writers; r++ {
		loopWG.Add(1)
		go func(w int) {
			defer loopWG.Done()
			dst := make([]byte, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < int(progress[w].Load()); i++ {
					err := e.ReadInto(addrOf(w, i), dst, nil)
					if errors.Is(err, cache.ErrUncorrectable) {
						continue // a DUE under the storm is data, not a bug
					}
					if err != nil {
						errCh <- fmt.Errorf("reader %d: %w", w, err)
						return
					}
					if dst[0] != byte(w+1) {
						errCh <- fmt.Errorf("SDC: stripe %d addr %d: foreign tag %#x", w, i, dst[0])
						return
					}
				}
			}
		}(r)
	}
	// Batch reader: the optimistic pre-pass plus locked-residue planner.
	loopWG.Add(1)
	go func() {
		defer loopWG.Done()
		addrs := make([]uint64, 0, writers*perWriter)
		var dst []byte
		errs := make([]error, writers*perWriter)
		counts := make([]int, writers)
		for {
			select {
			case <-stop:
				return
			default:
			}
			addrs = addrs[:0]
			// Snapshot per-writer progress once; verification below must use
			// the same counts (progress keeps advancing underneath us).
			for w := 0; w < writers; w++ {
				counts[w] = int(progress[w].Load())
				for i := 0; i < counts[w]; i++ {
					addrs = append(addrs, addrOf(w, i))
				}
			}
			if len(addrs) == 0 {
				continue
			}
			dst = append(dst[:0], make([]byte, len(addrs)*64)...)
			if _, err := e.ReadBatch(addrs, dst, errs[:len(addrs)], nil); err != nil {
				errCh <- fmt.Errorf("batch: %w", err)
				return
			}
			k := 0
			for w := 0; w < writers; w++ {
				for i := 0; i < counts[w]; i++ {
					if errs[k] == nil && dst[k*64] != byte(w+1) {
						errCh <- fmt.Errorf("SDC: batch stripe %d item %d: foreign tag %#x", w, i, dst[k*64])
						return
					}
					k++
				}
			}
		}
	}()
	// Scrubber: full passes (repairs, retirement sweep, parity audit).
	loopWG.Add(1)
	go func() {
		defer loopWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Scrub(); err != nil {
				errCh <- fmt.Errorf("scrub: %w", err)
				return
			}
		}
	}()
	// Targeted scrubs + quarantine churn: region 0 of each shard.
	loopWG.Add(1)
	go func() {
		defer loopWG.Done()
		for it := 0; ; it++ {
			select {
			case <-stop:
				return
			default:
			}
			s := it % e.Shards()
			if _, err := e.ScrubRegion(s, 0); err != nil {
				errCh <- fmt.Errorf("scrubregion: %w", err)
				return
			}
			if it%7 == 0 {
				if err := e.InjectParityFault(s, 0, it%13); err != nil {
					errCh <- fmt.Errorf("parityfault: %w", err)
					return
				}
				if _, err := e.AuditRegion(s, 0); err != nil {
					errCh <- fmt.Errorf("audit: %w", err)
					return
				}
			}
			if _, err := e.RebuildQuarantined(); err != nil {
				errCh <- fmt.Errorf("rebuild: %w", err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	// Campaign injector: ApplyFaults intervals with flips and a slow
	// trickle of stuck cells (deterministic positions).
	loopWG.Add(1)
	go func() {
		defer loopWG.Done()
		limit := e.Lines() * e.StoredBits()
		x := uint64(0x9E3779B97F4A7C15)
		next := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		for it := 0; ; it++ {
			select {
			case <-stop:
				return
			default:
			}
			p := faultmodel.IntervalPlan{Index: it}
			for f := 0; f < 4; f++ {
				p.Flips = append(p.Flips, next(limit))
			}
			if it%25 == 0 {
				p.Stuck = []faultmodel.StuckCell{{Pos: next(limit), Value: it%2 == 0}}
			}
			if _, err := e.ApplyFaults(p); err != nil {
				errCh <- fmt.Errorf("applyfaults: %w", err)
				return
			}
			time.Sleep(150 * time.Microsecond)
		}
	}()
	// Lock-free monitor: stats, metrics, health-adjacent reads.
	loopWG.Add(1)
	go func() {
		defer loopWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.Stats()
			_ = e.Metrics()
			_ = e.RetiredLines()
			_ = e.QuarantinedRegions()
		}
	}()

	writerDone := make(chan struct{})
	go func() {
		writerWG.Wait()
		// Grace window: on a box where the writers outrun the scheduler
		// the readers still get a slice of quiesced-storm reads.
		time.Sleep(20 * time.Millisecond)
		close(writerDone)
	}()
	select {
	case <-writerDone:
	case err := <-errCh:
		close(stop)
		loopWG.Wait()
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		close(stop)
		t.Fatal("seqlock torture wedged")
	}
	close(stop)
	loopWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if st := e.Stats(); st.Writes < writers*perWriter*rounds {
		t.Fatalf("lost writes: %+v", st)
	}
	// Settle: after the storm, every stripe must read back exactly the
	// final round's payload (shadow-verified zero-SDC gate). Two passes:
	// the first locked read of a storm-staled line resyncs its mirror,
	// so the second pass is all seqlock — which also guarantees the
	// engagement assertion below regardless of scheduler luck.
	if _, err := e.Scrub(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	for pass := 0; pass < 2; pass++ {
		for w := 0; w < writers; w++ {
			want := payload(w, rounds-1)
			for i := 0; i < perWriter; i++ {
				err := e.ReadInto(addrOf(w, i), dst, nil)
				if errors.Is(err, cache.ErrUncorrectable) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dst, want) {
					t.Fatalf("settle pass %d: stripe %d line %d: %x != %x", pass, w, i, dst[:4], want[:4])
				}
			}
		}
	}
	if st := e.Stats(); st.SeqlockReads == 0 {
		t.Fatal("fast path never served a read — the test is not exercising the seqlock")
	}
}
