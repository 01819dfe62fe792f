// Scrub daemon: run the paper's periodic scrub loop (§II-D) as a live
// background process against a protected cache while the foreground
// keeps reading and writing — the deployment shape of SuDoku in a real
// memory controller. Thermal noise is emulated by injecting an
// interval's worth of random faults before every pass.
//
// Run with:
//
//	go run ./examples/scrub_daemon
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"sudoku"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// One shard is the paper's single-lock cache: each daemon rotation
	// is one stop-the-world pass over every line. More shards split a
	// rotation into per-shard passes that lock one shard at a time.
	cfg := sudoku.DefaultConfig()
	cfg.CacheMB = 1 // 1 MB demo cache
	cfg.GroupSize = 64
	cfg.Shards = 1
	cfg.Seed = 2019
	c, err := sudoku.NewConcurrent(cfg)
	if err != nil {
		return err
	}

	payload := bytes.Repeat([]byte("scrubbed"), 8)
	for i := uint64(0); i < 512; i++ {
		if err := c.Write(i*64, payload); err != nil {
			return err
		}
	}

	// Fault pressure: ~40 random flips per pass over the 1 MB cache is
	// an abusive ~4×10⁻⁶ BER per interval — the paper's regime scaled
	// onto the demo size.
	fmt.Println("starting scrub daemon (10 ms interval, ~40 faults/pass)...")
	if err := c.StartScrub(sudoku.ScrubDaemonConfig{
		Interval:     10 * time.Millisecond,
		StormPerPass: 40,
		OnPass: func(p sudoku.ScrubPass) {
			if p.Rotation%10 == 0 {
				fmt.Printf("  pass %3d: %3d singles, %d SDR, %d RAID, %d DUEs (%.1fms)\n",
					p.Rotation, p.Report.SingleRepairs, p.Report.SDRRepairs,
					p.Report.RAIDRepairs, len(p.Report.DUELines),
					float64(p.Took.Microseconds())/1000)
			}
		},
	}); err != nil {
		return err
	}

	// Foreground traffic while the daemon runs.
	reads := 0
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := uint64(0); i < 512; i += 7 {
			got, err := c.Read(i * 64)
			if err != nil {
				return fmt.Errorf("foreground read of line %d: %w", i, err)
			}
			if !bytes.Equal(got, payload) {
				return fmt.Errorf("foreground read of line %d returned corrupt data", i)
			}
			reads++
		}
	}
	if err := c.StopScrub(); err != nil {
		return err
	}

	st := c.ScrubStats().Scrub
	fmt.Printf("\ndaemon stopped after %d passes\n", st.Passes)
	fmt.Printf("  repairs: %d single, %d SDR, %d RAID, %d Hash-2\n",
		st.SingleRepairs, st.SDRRepairs, st.RAIDRepairs, st.Hash2Repairs)
	fmt.Printf("  DUE lines: %d\n", st.DUELines)
	fmt.Printf("  foreground reads verified: %d (all clean)\n", reads)

	rep, err := sudoku.AnalyzeReliability(sudoku.DefaultReliabilityConfig())
	if err != nil {
		return err
	}
	fmt.Printf("\nat the paper's scale this pressure corresponds to SuDoku-Z FIT %.3g\n", rep.Z.FIT)
	return nil
}
