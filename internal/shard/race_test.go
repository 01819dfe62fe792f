package shard

// Concurrency torture tests. They are written to be run under the race
// detector (`go test -race ./internal/shard/...`, wired into CI): the
// assertions catch logical corruption, the race detector catches
// unsynchronized state.

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
)

// TestRaceReadWriteInjectScrub runs readers, writers, a fault
// injector, monitoring, and the incremental scrub daemon against the
// same engine. Every writer owns a disjoint address stripe; readers
// verify lines they know have been written carry that writer's tag.
func TestRaceReadWriteInjectScrub(t *testing.T) {
	e := mustEngine(t, testConfig(core.ProtectionZ))
	const (
		writers   = 4
		perWriter = 64 // addresses per stripe
		rounds    = 40
	)
	d, err := NewScrubDaemon(e, DaemonConfig{Interval: time.Millisecond, StormPerPass: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()

	progress := make([]atomic.Int64, writers) // addresses written so far, per stripe
	stop := make(chan struct{})
	errCh := make(chan error, 2*writers+2)
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
	for r := 0; r < writers; r++ {
		loopWG.Add(1)
		go func(w int) {
			defer loopWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < int(progress[w].Load()); i++ {
					got, err := e.Read(addrOf(w, i))
					if errors.Is(err, cache.ErrUncorrectable) {
						continue // a DUE under the storm is data, not a bug
					}
					if err != nil {
						errCh <- fmt.Errorf("reader %d: %w", w, err)
						return
					}
					if got[0] != byte(w+1) {
						errCh <- fmt.Errorf("stripe %d addr %d: foreign tag %#x", w, i, got[0])
						return
					}
				}
			}
		}(r)
	}
	loopWG.Add(2)
	go func() { // fault injector
		defer loopWG.Done()
		for seed := uint64(0); ; seed++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.InjectRandomFaults(seed, 4); err != nil {
				errCh <- fmt.Errorf("inject: %w", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	go func() { // lock-free monitor
		defer loopWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.Stats()
			_ = d.Stats()
			_ = e.StuckCells()
		}
	}()

	writerDone := make(chan struct{})
	go func() { writerWG.Wait(); close(writerDone) }()
	select {
	case <-writerDone:
	case err := <-errCh:
		close(stop)
		loopWG.Wait()
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		close(stop)
		t.Fatal("torture test wedged")
	}
	close(stop)
	loopWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Rotations == 0 {
		t.Fatalf("daemon never completed a rotation: %+v", st)
	}
	if st := e.Stats(); st.Writes < writers*perWriter*rounds {
		t.Fatalf("lost writes: %+v", st)
	}
}

// TestScrubDuringWriteTorture is the dedicated scrub-during-write
// interleaving: synchronous full scrubs race a writer hammering one
// stripe, and every settled line must read back as the last value the
// writer published.
func TestScrubDuringWriteTorture(t *testing.T) {
	e := mustEngine(t, testConfig(core.ProtectionZ))
	const lines = 128
	stop := make(chan struct{})
	var scrubErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Scrub(); err != nil {
				scrubErr.Store(err)
				return
			}
		}
	}()

	want := make([][]byte, lines)
	for round := 0; round < 60; round++ {
		for i := 0; i < lines; i++ {
			b := bytes.Repeat([]byte{byte(round + 1)}, 64)
			b[2] = byte(i)
			if err := e.Write(uint64(i)*64, b, nil); err != nil {
				t.Fatal(err)
			}
			want[i] = b
		}
	}
	close(stop)
	wg.Wait()
	if err := scrubErr.Load(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lines; i++ {
		got, err := e.Read(uint64(i) * 64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("line %d: %x != %x after scrub-during-write", i, got[:4], want[i][:4])
		}
	}
}

// TestRaceDaemonLifecycle hammers Start/Stop/Drain/Stats from several
// goroutines; the lifecycle must stay coherent (no double loops, no
// hangs) whatever the interleaving.
func TestRaceDaemonLifecycle(t *testing.T) {
	e := seededEngine(t)
	d, err := NewScrubDaemon(e, DaemonConfig{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch (g + i) % 4 {
				case 0:
					_ = d.Start()
				case 1:
					_ = d.Stop()
				case 2:
					_ = d.Drain()
				case 3:
					_ = d.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	_ = d.Stop()
	if d.Running() {
		t.Fatal("daemon running after final Stop")
	}
}
