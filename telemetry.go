// Registry builders: the families a Concurrent exposes at /metrics. Every series is a pull closure over the engine's own atomic
// state, so registration adds no hot-path cost — the engine pays for
// telemetry only when something scrapes. DESIGN.md appendix 11 maps
// each family onto the paper quantity it reproduces.
package sudoku

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"sudoku/internal/ras"
	"sudoku/internal/reqtrace"
	"sudoku/internal/shard"
	"sudoku/internal/telemetry"
)

// registerEngine registers the engine's traffic and repair-ladder
// counters, the six latency histograms, and the per-kind RAS event
// census. The tracer's flight recorder is the exemplar source for the
// read-hit and DUE-refetch latency histograms — the buckets most
// directly tied to repair depth.
func registerEngine(r *Registry, c *Concurrent) {
	stat := func(pick func(Stats) int64) func() int64 {
		return func() int64 { return pick(c.Metrics().Stats) }
	}
	r.Counter("sudoku_reads_total", "Line reads served.",
		stat(func(s Stats) int64 { return s.Reads }))
	r.Counter("sudoku_writes_total", "Line writes served.",
		stat(func(s Stats) int64 { return s.Writes }))
	r.Counter("sudoku_hits_total", "Accesses that hit a resident line.",
		stat(func(s Stats) int64 { return s.Hits }))
	r.Counter("sudoku_misses_total", "Accesses that missed and filled from memory.",
		stat(func(s Stats) int64 { return s.Misses }))
	r.Counter("sudoku_evictions_total", "Victim lines evicted on fill.",
		stat(func(s Stats) int64 { return s.Evictions }))
	r.Counter("sudoku_writebacks_total", "Dirty victims written back to memory.",
		stat(func(s Stats) int64 { return s.WriteBacks }))
	r.Counter("sudoku_plt_writes_total", "Parity-table (PLT) update operations.",
		stat(func(s Stats) int64 { return s.PLTWrites }))

	// The repair ladder, one counter per rung (appendix 11: ECC-1 is the
	// per-line inner code, CRC-31 the detector, RAID-4/SDR/Hash-2 the
	// SuDoku-X/Y/Z group machinery).
	r.Counter("sudoku_crc_detections_total", "Accesses and scrub probes whose CRC-31 syndrome flagged a faulty codeword.",
		stat(func(s Stats) int64 { return s.CRCDetects }))
	r.Counter("sudoku_ecc1_corrections_total", "Single-bit faults corrected by the per-line ECC-1 inner code.",
		stat(func(s Stats) int64 { return s.SingleRepairs }))
	r.Counter("sudoku_raid_reconstructions_total", "Lines reconstructed from RAID-4 group parity (SuDoku-X).",
		stat(func(s Stats) int64 { return s.RAIDRepairs }))
	r.Counter("sudoku_sdr_resurrections_total", "Lines repaired by Sequential Data Resurrection (SuDoku-Y).",
		stat(func(s Stats) int64 { return s.SDRRepairs }))
	r.Counter("sudoku_hash2_retries_total", "Lines recovered via the second skew-hashed parity group (SuDoku-Z).",
		stat(func(s Stats) int64 { return s.Hash2Repairs }))
	r.Counter("sudoku_uncorrectable_dues_total", "Detectable uncorrectable errors past the full repair ladder.",
		stat(func(s Stats) int64 { return s.UncorrectableDUEs }))
	r.Counter("sudoku_due_recovered_total", "Clean-line DUEs transparently refetched from backing memory.",
		stat(func(s Stats) int64 { return s.DUERecovered }))
	r.Counter("sudoku_due_data_loss_total", "Dirty-line DUEs whose only copy was lost.",
		stat(func(s Stats) int64 { return s.DUEDataLoss }))
	r.Counter("sudoku_scrub_passes_total", "Completed scrub passes (per shard in the concurrent engine).",
		stat(func(s Stats) int64 { return s.ScrubPasses }))
	r.Counter("sudoku_faults_injected_total", "Faults injected by tests, storms, and chaos harnesses.",
		stat(func(s Stats) int64 { return s.FaultsInjected }))
	r.Counter("sudoku_lines_retired_total", "Lines remapped to hardened spare rows.",
		stat(func(s Stats) int64 { return s.LinesRetired }))
	r.Counter("sudoku_targeted_scrubs_total", "Out-of-band single-region scrubs (storm-mode responses).",
		stat(func(s Stats) int64 { return s.TargetedScrubs }))
	r.Counter("sudoku_seqlock_reads_total", "Read hits served by the lock-free seqlock fast path.",
		stat(func(s Stats) int64 { return s.SeqlockReads }))
	r.Counter("sudoku_seqlock_fallbacks_total", "Optimistic reads abandoned to the locked path (torn copy, concurrent publish, stale mirror, or CRC-flagged snapshot).",
		stat(func(s Stats) int64 { return s.SeqlockFallbacks }))

	hist := func(pick func(Metrics) HistogramSnapshot) func() telemetry.HistogramSnapshot {
		return func() telemetry.HistogramSnapshot { return pick(c.Metrics()) }
	}
	// The exemplar source matches a bucket's value range against recent
	// anomalous traces' wall durations, linking the latency distribution
	// to the specific rung sequence a slow request actually walked
	// (DESIGN.md appendix 16 documents the modeled-vs-wall caveat).
	histE := func(name, help string, pick func(Metrics) HistogramSnapshot) {
		r.HistogramWithExemplars(name, help, hist(pick), c.tracer.Ring().Exemplar)
	}
	histE("sudoku_read_hit_latency_ns", "Modeled latency of read hits.",
		func(m Metrics) HistogramSnapshot { return m.ReadHit })
	r.Histogram("sudoku_read_miss_latency_ns", "Modeled latency of read misses (fill included).",
		hist(func(m Metrics) HistogramSnapshot { return m.ReadMiss }))
	r.Histogram("sudoku_write_hit_latency_ns", "Modeled latency of write hits (read-modify-write).",
		hist(func(m Metrics) HistogramSnapshot { return m.WriteHit }))
	r.Histogram("sudoku_write_miss_latency_ns", "Modeled latency of write misses (fill included).",
		hist(func(m Metrics) HistogramSnapshot { return m.WriteMiss }))
	histE("sudoku_due_refetch_latency_ns", "Extra recovery latency of clean-line DUE refetches.",
		func(m Metrics) HistogramSnapshot { return m.DUERefetch })
	r.Histogram("sudoku_scrub_pass_duration_ns", "Wall-clock duration of scrub passes.",
		hist(func(m Metrics) HistogramSnapshot { return m.ScrubPass }))

	log := c.eng.Events()
	for _, k := range ras.Kinds() {
		kind := k
		r.Counter("sudoku_ras_events_total", "RAS events by kind.",
			func() int64 { return log.Count(kind) }, "kind", kind.String())
	}
	r.Counter("sudoku_ras_events_dropped_total", "RAS events lost to full subscriber tap buffers.",
		log.Dropped)
	r.Gauge("sudoku_ras_subscribers", "Attached live RAS event taps.",
		func() float64 { return float64(log.Subscribers()) })
}

// buildInfo resolves the process's Go toolchain version and VCS
// revision from the embedded build info, with "unknown" fallbacks for
// test binaries and non-VCS builds.
func buildInfo() (goversion, revision string) {
	goversion, revision = runtime.Version(), "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				revision = s.Value
			}
		}
	}
	return goversion, revision
}

// registerRuntime registers the process-level families: build provenance (the constant-1 gauge Prometheus
// joins on), live goroutine count, and cumulative GC pause time —
// the context a latency regression is read against.
func registerRuntime(r *Registry) {
	goversion, revision := buildInfo()
	r.Gauge("sudoku_build_info", "Build metadata as labels; the value is always 1.",
		func() float64 { return 1 }, "goversion", goversion, "revision", revision)
	r.Gauge("sudoku_goroutines", "Live goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.Counter("sudoku_gc_pauses_total", "Completed GC cycles.",
		func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.NumGC)
		})
	r.Counter("sudoku_gc_pause_ns_total", "Cumulative stop-the-world GC pause time.",
		func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.PauseTotalNs)
		})
}

// registerTracer registers the flight recorder's own series: how many
// operations were traced, how many traces the tail sampler kept, and
// how many were lost to publish contention (the sampler-pressure
// signal /healthz also surfaces).
func registerTracer(r *Registry, tp *reqtrace.Tracer) {
	ring := tp.Ring()
	r.Counter("sudoku_traces_begun_total", "Traced operations begun.", tp.Begun)
	r.Counter("sudoku_traces_published_total", "Anomalous traces published to the flight recorder.", ring.Published)
	r.Counter("sudoku_traces_dropped_total", "Anomalous traces dropped at the flight recorder under publish contention.", ring.Dropped)
}

// registerServiceability registers the degradation-state gauges.
func registerServiceability(r *Registry, c *Concurrent) {
	igauge := func(fn func() int) func() float64 {
		return func() float64 { return float64(fn()) }
	}
	r.Gauge("sudoku_retired_lines", "Lines currently remapped to spare rows.", igauge(c.eng.RetiredLines))
	r.Gauge("sudoku_spares_free", "Unused spare rows remaining.", igauge(c.eng.SparesFree))
	r.Gauge("sudoku_quarantined_regions", "Parity regions currently out of service.", igauge(c.eng.QuarantinedRegions))
	r.Gauge("sudoku_stuck_cells", "Injected permanent faults currently present.", igauge(c.eng.StuckCells))
	r.Gauge("sudoku_uptime_seconds", "Seconds since the cache was constructed.",
		func() float64 { return time.Since(c.start).Seconds() })
}

// registerShards registers the per-shard traffic series — the labeled
// view behind Concurrent.ShardMetrics.
func registerShards(r *Registry, eng *shard.Engine) {
	r.Gauge("sudoku_shards", "Resolved shard count.",
		func() float64 { return float64(eng.Shards()) })
	for i := 0; i < eng.Shards(); i++ {
		shardIdx := i
		label := strconv.Itoa(i)
		pick := func(f func(Stats) int64) func() int64 {
			return func() int64 {
				m, err := eng.ShardMetrics(shardIdx)
				if err != nil {
					return 0
				}
				return f(m.Stats)
			}
		}
		r.Counter("sudoku_shard_reads_total", "Line reads served, by shard.",
			pick(func(s Stats) int64 { return s.Reads }), "shard", label)
		r.Counter("sudoku_shard_writes_total", "Line writes served, by shard.",
			pick(func(s Stats) int64 { return s.Writes }), "shard", label)
		r.Counter("sudoku_shard_dues_total", "Uncorrectable DUEs, by shard.",
			pick(func(s Stats) int64 { return s.UncorrectableDUEs }), "shard", label)
	}
}

// registerScrubDaemon registers the daemon's counters. The closures go
// through Concurrent.ScrubStats/Health so they survive daemon restarts
// and read zero before the first StartScrub.
func registerScrubDaemon(r *Registry, c *Concurrent) {
	dstat := func(pick func(ScrubDaemonStats) int64) func() int64 {
		return func() int64 { return pick(c.ScrubStats()) }
	}
	r.Counter("sudoku_scrub_rotations_total", "Completed full scrub rotations over all shards.",
		dstat(func(s ScrubDaemonStats) int64 { return int64(s.Rotations) }))
	r.Counter("sudoku_scrub_shard_passes_total", "Completed per-shard scrub passes.",
		dstat(func(s ScrubDaemonStats) int64 { return int64(s.ShardPasses) }))
	r.Counter("sudoku_scrub_backpressure_total", "Passes whose repair work outran their interval slice.",
		dstat(func(s ScrubDaemonStats) int64 { return int64(s.Backpressure) }))
	r.Counter("sudoku_scrub_stalls_total", "Passes the watchdog flagged as stalled.",
		dstat(func(s ScrubDaemonStats) int64 { return int64(s.Stalls) }))
	r.Counter("sudoku_scrub_daemon_panics_total", "Panics recovered inside the scrub rotation loop.",
		dstat(func(s ScrubDaemonStats) int64 { return int64(s.Panics) }))
	r.Gauge("sudoku_scrub_interval_seconds", "Current (possibly adapted) rotation interval.",
		func() float64 { return c.ScrubStats().Interval.Seconds() })
	r.Gauge("sudoku_scrub_running", "1 while the scrub daemon loop is live.",
		func() float64 {
			if d := c.scrubDaemon(); d != nil && d.Running() {
				return 1
			}
			return 0
		})
	r.Gauge("sudoku_scrub_stalled", "1 while the in-flight pass exceeds the watchdog budget.",
		func() float64 {
			if d := c.scrubDaemon(); d != nil && d.Stalled() {
				return 1
			}
			return 0
		})
	r.Gauge("sudoku_scrub_pass_age_seconds", "Seconds since the most recent per-shard pass completed (0 before the first).",
		func() float64 {
			d := c.scrubDaemon()
			if d == nil {
				return 0
			}
			last := d.LastPass()
			if last.IsZero() {
				return 0
			}
			return time.Since(last).Seconds()
		})
}

// registerStorm registers the defense-ladder series. The closures go
// through Concurrent.StormStats, so they read zero (state normal)
// before the first StartStormControl and keep their final values after
// StopStormControl.
func registerStorm(r *Registry, c *Concurrent) {
	sstat := func(pick func(StormStats) int64) func() int64 {
		return func() int64 { return pick(c.StormStats()) }
	}
	r.Gauge("sudoku_storm_state", "Defense-ladder level: 0 normal, 1 elevated, 2 critical.",
		func() float64 { return float64(c.StormState()) })
	r.Counter("sudoku_storm_escalations_total", "Ladder steps up (Normal toward Critical).",
		sstat(func(s StormStats) int64 { return s.Escalations }))
	r.Counter("sudoku_storm_deescalations_total", "Ladder steps down after quiet windows.",
		sstat(func(s StormStats) int64 { return s.DeEscalations }))
	r.Counter("sudoku_storm_targeted_scrubs_total", "Out-of-band region scrubs the controller issued.",
		sstat(func(s StormStats) int64 { return s.TargetedScrubs }))
	r.Counter("sudoku_storm_region_audits_total", "Proactive parity audits of hot regions.",
		sstat(func(s StormStats) int64 { return s.RegionAudits }))
	r.Counter("sudoku_storm_regions_quarantined_total", "Hot-region audits that ended in quarantine.",
		sstat(func(s StormStats) int64 { return s.RegionsQuarantined }))
	r.Counter("sudoku_storm_region_trips_total", "Per-region rate-detector trips.",
		sstat(func(s StormStats) int64 { return s.RegionTrips }))
	r.Counter("sudoku_storm_events_total", "Weighted RAS events the controller consumed.",
		sstat(func(s StormStats) int64 { return s.EventsSeen }))
}

// registerCheckpoint registers the checkpoint daemon's series. The
// closures go through Concurrent.CheckpointStats, so they survive
// daemon restarts and read zero before the first StartCheckpoints.
func registerCheckpoint(r *Registry, c *Concurrent) {
	kstat := func(pick func(CheckpointStats) int64) func() int64 {
		return func() int64 { return pick(c.CheckpointStats()) }
	}
	r.Counter("sudoku_checkpoint_writes_total", "Completed background checkpoint writes.",
		kstat(func(s CheckpointStats) int64 { return s.Writes }))
	r.Counter("sudoku_checkpoint_failures_total", "Failed background checkpoint writes.",
		kstat(func(s CheckpointStats) int64 { return s.Failures }))
	r.Counter("sudoku_checkpoint_panics_total", "Panics recovered inside the checkpoint loop.",
		kstat(func(s CheckpointStats) int64 { return s.Panics }))
	r.Counter("sudoku_checkpoint_stalls_total", "Checkpoint writes the watchdog flagged as stalled.",
		kstat(func(s CheckpointStats) int64 { return s.Stalls }))
	r.Gauge("sudoku_checkpoint_bytes", "Size of the most recent successful checkpoint.",
		func() float64 { return float64(c.CheckpointStats().LastBytes) })
	r.Gauge("sudoku_checkpoint_running", "1 while the checkpoint daemon loop is live.",
		func() float64 {
			if d := c.checkpointDaemon(); d != nil && d.Running() {
				return 1
			}
			return 0
		})
	r.Gauge("sudoku_checkpoint_age_seconds", "Seconds since the most recent background checkpoint completed (0 before the first).",
		func() float64 {
			d := c.checkpointDaemon()
			if d == nil {
				return 0
			}
			last := d.LastWrite()
			if last.IsZero() {
				return 0
			}
			return time.Since(last).Seconds()
		})
}
