package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sudoku/internal/rng"
)

// batchLines is the line count of one batch-mix op: 4 KiB of payload.
const batchLines = 64

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// op is one generated request: a single line, or batchLines contiguous
// lines starting at line.
type op struct {
	kind opKind
	line uint64
}

// generator draws one worker's seeded op sequence. Worker w owns the
// units u ≡ w (mod workers), where a unit is one line for single-line
// workloads and one batchLines block for batch-mix, so no two workers
// ever touch the same line and each can check its reads against its own
// record of what it wrote.
type generator struct {
	r         *rng.Source
	w, stride uint64
	units     uint64 // units this worker owns
	unitLines uint64
	readFrac  float64
}

// newGenerators derives one generator per worker from the seed, in
// worker order, so a (seed, workers) pair always yields the same
// sequences however the workers are scheduled.
func newGenerators(workload string, seed uint64, workers, lines int) []*generator {
	unitLines, readFrac := uint64(1), 0.7
	if workload == batchMix {
		unitLines, readFrac = batchLines, 0.5
	}
	total := uint64(lines) / unitLines
	master := rng.New(seed)
	gens := make([]*generator, workers)
	for w := range gens {
		gens[w] = &generator{
			r:         master.Split(),
			w:         uint64(w),
			stride:    uint64(workers),
			units:     (total - uint64(w) + uint64(workers) - 1) / uint64(workers),
			unitLines: unitLines,
			readFrac:  readFrac,
		}
	}
	return gens
}

func (g *generator) next() op {
	k := opWrite
	if g.r.Float64() < g.readFrac {
		k = opRead
	}
	u := g.w + g.stride*g.r.Uint64n(g.units)
	return op{kind: k, line: u * g.unitLines}
}

// owner returns the worker that owns a line under the generators'
// striping.
func owner(workload string, line uint64, workers int) int {
	if workload == batchMix {
		line /= batchLines
	}
	return int(line % uint64(workers))
}

// unknownVersion flags a line whose last write failed: it holds either
// the old or the new version, so reads skip the check until the next
// successful write.
const unknownVersion = 1 << 31

// shadow is the benchmark's record of every line's current version.
// Line l at version v holds fillPattern(seed, l, v); a read that returns
// anything else is a silent data corruption. Each worker writes only the
// entries of the lines it owns.
type shadow struct {
	seed     uint64
	versions []uint32
}

func newShadow(seed uint64, lines int) *shadow {
	return &shadow{seed: seed, versions: make([]uint32, lines)}
}

// fillPattern writes the 64-byte content of line at version into dst.
func fillPattern(dst []byte, seed, line uint64, version uint32) {
	x := seed ^ line*0x9e3779b97f4a7c15 ^ uint64(version)<<40
	for i := 0; i < 64; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(dst[i:], z^(z>>31))
	}
}

// samples holds one worker's exact op latencies in nanoseconds, by op
// kind. It is allocated during setup so recording never grows the heap
// inside the window.
type samples [2][]uint32

func newSamples(perKind int) samples {
	return samples{make([]uint32, 0, perKind), make([]uint32, 0, perKind)}
}

func (s *samples) add(k opKind, d time.Duration) {
	ns := d.Nanoseconds()
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	s[k] = append(s[k], uint32(ns))
}

// sampleCap sizes a worker's per-kind sample buffer for a window.
func sampleCap(window time.Duration) int {
	return int(window.Seconds()*20000) + 1024
}

// sorted merges sample sets into one sorted slice.
func sorted(sets ...[]uint32) []uint32 {
	n := 0
	for _, s := range sets {
		n += len(s)
	}
	out := make([]uint32, 0, n)
	for _, s := range sets {
		out = append(out, s...)
	}
	slices.Sort(out)
	return out
}

// quantileUs is the nearest-rank q-quantile of sorted nanosecond
// samples, in microseconds.
func quantileUs(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / 1e3
}

// beyond is how many samples lie strictly above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler follows the resident set through a window and reports the
// median, over one-second slices, of each slice's peak. The process's
// single highest instant (ru_maxrss) is a poor regression metric: on
// mc-paper's ~25 MB heap a GC that lags the simulators' allocation
// spikes the resident set to 35–45 MB for a fraction of a second in
// some runs and not in others.
type rssSampler struct {
	quit, done chan struct{}
	peaks      []float64 // MB
	err        error
}

const rssEvery = 10 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *rssSampler) run() {
	defer close(s.done)
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	sliceEnd := time.Now().Add(time.Second)
	peak := 0.0
	for {
		mb, err := residentMB()
		if err != nil {
			s.err = err
			return
		}
		peak = max(peak, mb)
		select {
		case <-s.quit:
			s.peaks = append(s.peaks, peak)
			return
		case now := <-tick.C:
			if now.After(sliceEnd) {
				s.peaks = append(s.peaks, peak)
				peak, sliceEnd = 0, sliceEnd.Add(time.Second)
			}
		}
	}
}

// stop ends sampling and returns the median slice peak in MB.
func (s *rssSampler) stop() (float64, error) {
	close(s.quit)
	<-s.done
	return median(s.peaks), s.err
}

// residentMB reads the process's current resident set.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}
