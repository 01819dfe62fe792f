// Hot-path microbenchmarks: the per-line codec (CRC-31, Hamming
// syndrome) and the resident read/write/scrub paths they dominate.
// BENCH_hotpath.json records the before/after trajectory of these
// numbers; the CI bench smoke step keeps them compiling.
package sudoku

import (
	"fmt"
	"sync"
	"testing"

	"sudoku/internal/bitvec"
	"sudoku/internal/cache"
	"sudoku/internal/ecc/crc"
	"sudoku/internal/ecc/hamming"
	"sudoku/internal/rng"
)

// hotpathCache builds a small protected cache with one resident line.
func hotpathCache(b *testing.B) *cache.STTRAM {
	b.Helper()
	ccfg := cache.DefaultConfig()
	ccfg.Lines = 1 << 12 // 256 KB: big enough for GroupSize² = 4096
	ccfg.GroupSize = 64
	llc, err := cache.New(ccfg, fixedMemory{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := llc.Write(0, 0, make([]byte, 64), nil); err != nil {
		b.Fatal(err)
	}
	return llc
}

// BenchmarkCRC measures the CRC-31 compute over one 512-bit data field
// — the kernel every read check, write encode, and scrub validation
// runs.
func BenchmarkCRC(b *testing.B) {
	c := crc.NewCRC31()
	src := rng.New(7)
	words := make([]uint64, 8)
	for i := range words {
		words[i] = src.Uint64()
	}
	v := bitvec.FromWords(words, 512)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= c.Compute(v)
	}
	_ = sink
}

// BenchmarkHamming measures the ECC-1 syndrome over the 543-bit
// message (encode = the same parity computation decode starts with).
func BenchmarkHamming(b *testing.B) {
	code, err := hamming.New(543)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(7)
	words := make([]uint64, 9)
	for i := range words {
		words[i] = src.Uint64()
	}
	v := bitvec.FromWords(words, 543)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		ck, err := code.Encode(v)
		if err != nil {
			b.Fatal(err)
		}
		sink ^= ck
	}
	_ = sink
}

// BenchmarkReadHit measures a resident, clean read hit on the
// protected cache: CRC check + payload extraction into a reused
// buffer (the ReadInto steady-state path).
func BenchmarkReadHit(b *testing.B) {
	llc := hotpathCache(b)
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := llc.ReadInto(0, 0, buf, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteHit measures a resident write hit: read-modify-write
// with CRC+ECC re-encode and both PLT delta updates.
func BenchmarkWriteHit(b *testing.B) {
	llc := hotpathCache(b)
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := llc.Write(0, 0, buf, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScrubPass measures one full scrub pass over a cache with 64
// resident clean lines — the steady-state cost the scrub daemon pays
// every rotation.
func BenchmarkScrubPass(b *testing.B) {
	llc := hotpathCache(b)
	buf := make([]byte, 64)
	for l := 0; l < 64; l++ {
		if _, err := llc.Write(0, uint64(l*64), buf, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := llc.Scrub(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadHitUntraced measures the engine-level resident read hit
// with no trace attached — the default path every untraced request
// takes. reqtrace costs this path exactly one nil check per potential
// span site; the gate below holds it at 0 allocs/op.
func BenchmarkReadHitUntraced(b *testing.B) {
	c, addrs := contendedFixture(b, false)
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReadInto(addrs[i%len(addrs)], buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadHitTraced measures the same read with the full trace
// bracket (Begin, ReadIntoTraced, Finish): span notes into a pooled
// fixed-capacity buffer, tail-sampling verdict at Finish. A clean hit
// never publishes, so the traced steady state must also stay at
// 0 allocs/op; the ns/op delta against BenchmarkReadHitUntraced is the
// reqtrace_overhead entry in BENCH_hotpath.json.
func BenchmarkReadHitTraced(b *testing.B) {
	c, addrs := contendedFixture(b, false)
	tp := c.Tracer()
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := tp.Begin(uint64(i)+1, 'R')
		if err := c.ReadIntoTraced(addrs[i%len(addrs)], buf, tr); err != nil {
			b.Fatal(err)
		}
		tp.Finish(tr)
	}
}

// contendedFixture builds a sharded engine with 64 resident lines, the
// seqlock fast path on or off (DisableFastReads=true is the locked
// baseline the contended gate compares against).
func contendedFixture(b *testing.B, disableFast bool) (*Concurrent, []uint64) {
	b.Helper()
	cfg := smallConfig(SuDokuZ)
	cfg.Shards = 8
	cfg.DisableFastReads = disableFast
	c, err := NewConcurrent(cfg)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]uint64, 64)
	data := make([]byte, len(addrs)*64)
	for i := range addrs {
		addrs[i] = uint64(i) * 64
	}
	if errs, err := c.WriteBatch(addrs, data); err != nil || errs != nil {
		b.Fatalf("prefill: errs=%v err=%v", errs, err)
	}
	return c, addrs
}

// BenchmarkReadContended measures resident read hits with G goroutines
// hammering the same 64 lines, fast (seqlock) versus locked
// (DisableFastReads) — the regime the seqlock exists for. The
// bench-smoke gate asserts fast ≥ locked at 16 goroutines; run with
// -cpu 4 (or more) for the contention to be real.
func BenchmarkReadContended(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"fast", false}, {"locked", true}} {
		for _, g := range []int{1, 4, 16, 64} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", mode.name, g), func(b *testing.B) {
				c, addrs := contendedFixture(b, mode.disable)
				per := (b.N + g - 1) / g
				b.SetBytes(64)
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						buf := make([]byte, 64)
						for i := 0; i < per; i++ {
							if err := c.ReadInto(addrs[(w+i)%len(addrs)], buf); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}
