// Quickstart: build a SuDoku-protected STTRAM cache, store data,
// inject the paper's motivating fault patterns, and watch the repair
// ladder (ECC-1 → RAID-4 → SDR) recover everything transparently.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"sudoku"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A 1 MB cache with 64-line RAID groups keeps the demo instant;
	// the protection machinery is identical to the paper's 64 MB
	// configuration. One shard is the single-lock engine: one parity
	// domain, so the lines below share RAID groups exactly as they
	// would in the unsharded cache.
	cfg := sudoku.DefaultConfig()
	cfg.CacheMB = 1
	cfg.GroupSize = 64
	cfg.Shards = 1
	c, err := sudoku.NewConcurrent(cfg)
	if err != nil {
		return err
	}

	// Store a few lines of recognizable data.
	payload := bytes.Repeat([]byte("SuDoku! "), 8) // 64 bytes
	for addr := uint64(0); addr < 16*64; addr += 64 {
		if err := c.Write(addr, payload); err != nil {
			return err
		}
	}
	fmt.Println("wrote 16 lines of data")

	// 1. The common case (§III-C1): a single thermal bit flip,
	//    repaired by the per-line ECC-1 in one step.
	if err := c.InjectFault(0, 137); err != nil {
		return err
	}
	got, err := c.Read(0)
	if err != nil {
		return err
	}
	fmt.Printf("single-bit fault: repaired=%v\n", bytes.Equal(got, payload))

	// 2. Figure 2: a six-bit burst in one line. ECC-1 is helpless,
	//    CRC-31 detects it, and RAID-4 rebuilds the line from the
	//    group parity.
	for _, bit := range []int{10, 90, 200, 311, 402, 499} {
		if err := c.InjectFault(64, bit); err != nil {
			return err
		}
	}
	got, err = c.Read(64)
	if err != nil {
		return err
	}
	fmt.Printf("six-bit fault:    repaired=%v\n", bytes.Equal(got, payload))

	// 3. Figure 3(a): two lines of the same RAID group with two faults
	//    each — classic RAID-4 would give up; Sequential Data
	//    Resurrection (§IV) flips parity-mismatch candidates and lets
	//    ECC-1 + CRC-31 finish the job.
	for _, f := range []struct {
		addr uint64
		bits []int
	}{
		{2 * 64, []int{11, 22}},
		{3 * 64, []int{33, 44}},
	} {
		for _, b := range f.bits {
			if err := c.InjectFault(f.addr, b); err != nil {
				return err
			}
		}
	}
	rep, err := c.Scrub()
	if err != nil {
		return err
	}
	fmt.Printf("SDR scenario:     scrub repaired %d lines by resurrection, %d by RAID-4, DUEs=%d\n",
		rep.SDRRepairs, rep.RAIDRepairs, len(rep.DUELines))

	for addr := uint64(0); addr < 16*64; addr += 64 {
		got, err := c.Read(addr)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("line %#x corrupted", addr)
		}
	}
	fmt.Println("all 16 lines verified intact")

	st := c.Stats()
	fmt.Printf("stats: %d reads, %d writes, %d single repairs, %d SDR, %d RAID, %d PLT writes\n",
		st.Reads, st.Writes, st.SingleRepairs, st.SDRRepairs, st.RAIDRepairs, st.PLTWrites)

	// Closed-form reliability at the paper's operating point.
	rel, err := sudoku.AnalyzeReliability(sudoku.DefaultReliabilityConfig())
	if err != nil {
		return err
	}
	fmt.Printf("reliability @Δ=35: BER %.3g, X MTTF %.1f s, Z is %.0fx stronger than ECC-6\n",
		rel.BER, rel.X.MTTFSeconds, rel.ZAdvantage)
	return nil
}
