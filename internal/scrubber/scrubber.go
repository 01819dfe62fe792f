// Package scrubber holds the vocabulary of the periodic scrub that
// SuDoku's reliability analysis presumes (§II-D): every ScrubInterval,
// read every line, correct what the per-line and group codes can
// correct, and write back — bounding the window in which thermal
// faults can accumulate.
//
// A Pass is one scrub's outcome, Stats the aggregate passes fold into,
// and a Policy (FixedPolicy, AdaptivePolicy) picks the next interval
// from the pass that just completed (§VIII-E). The loop that runs the
// passes is the sharded engine's scrub daemon (internal/shard); with
// one shard its rotation is the paper's stop-the-world pass.
package scrubber

import (
	"time"

	"sudoku/internal/cache"
)

// Pass describes one completed scrub pass.
type Pass struct {
	// Seq is the 1-based pass number.
	Seq int
	// Report is the cache's repair summary.
	Report cache.ScrubReport
	// Took is the wall-clock duration of the pass.
	Took time.Duration
	// Err carries a pass-level failure (the loop keeps running; DUEs
	// are data, not loop errors).
	Err error
}

// Stats aggregates across passes.
type Stats struct {
	Passes        int
	SingleRepairs int
	SDRRepairs    int
	RAIDRepairs   int
	Hash2Repairs  int
	DUELines      int
	Errors        int
}

// Add accumulates another aggregate into st — the concurrent engine
// uses it to carry lifetime totals across scrub-daemon restarts.
func (st *Stats) Add(o Stats) {
	st.Passes += o.Passes
	st.SingleRepairs += o.SingleRepairs
	st.SDRRepairs += o.SDRRepairs
	st.RAIDRepairs += o.RAIDRepairs
	st.Hash2Repairs += o.Hash2Repairs
	st.DUELines += o.DUELines
	st.Errors += o.Errors
}

// Observe folds one completed pass into the aggregate. Errors count as
// failed passes; a failed pass contributes no repair counters.
func (st *Stats) Observe(p Pass) {
	st.Passes++
	if p.Err != nil {
		st.Errors++
		return
	}
	st.SingleRepairs += p.Report.SingleRepairs
	st.SDRRepairs += p.Report.SDRRepairs
	st.RAIDRepairs += p.Report.RAIDRepairs
	st.Hash2Repairs += p.Report.Hash2Repairs
	st.DUELines += len(p.Report.DUELines)
}
