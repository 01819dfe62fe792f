// Chaos mode: an adversarial soak for the RAS pipeline. The engine
// runs with retirement and quarantine armed while the harness throws
// 10× the paper's per-interval bit-error budget at it, kills and
// restarts the scrub daemon mid-flight, plants permanent faults to
// churn line retirement, and corrupts parity lines to trip region
// quarantine — all under concurrent load.
//
// Every load goroutine owns a disjoint slice of the line space and
// shadow-verifies its own reads with generation-stamped content, so
// silent data corruption cannot hide: a successful read that fails
// verification is recorded as an SDC event. The run fails (non-zero
// exit) if any SDC is observed or any clean-line DUE recovery fails;
// dirty-line data loss and retirements are expected storm casualties
// and are reported, not gated.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sudoku"
	"sudoku/internal/rng"
	"sudoku/internal/sttram"
)

// chaosStormBudget returns the per-interval fault count at 10× the
// paper's BER for a cache of the given line count (553 stored bits per
// line).
func chaosStormBudget(lines int) int {
	return int(10*sttram.PaperBER20ms*float64(lines)*553) + 1
}

// mixWord derives the shadow-verifiable fill word for (addr, gen) —
// a splitmix-style avalanche so any bit corruption in the line body or
// the generation stamp scrambles the comparison.
func mixWord(addr, gen uint64) uint64 {
	x := addr*0x9e3779b97f4a7c15 + gen*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// fillLine stamps buf (64 bytes) with generation gen for addr: word 0
// carries the generation, words 1..7 the mix pattern. Bit 7 of byte 0
// is part of the generation's low byte; generations stay small, so the
// stuck-at bit the churner pins (bit 7, stuck to 1) deviates whenever
// the line is resident with gen < 128 — i.e. practically always.
func fillLine(buf []byte, addr, gen uint64) {
	binary.LittleEndian.PutUint64(buf[0:], gen)
	w := mixWord(addr, gen)
	for i := 1; i < 8; i++ {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
}

// verifyLine checks a successfully read line against the shadow
// generation bound. It returns ok=false only for content no write of
// ours can explain — the SDC signature. An all-zero line is the
// backing store's "lost before first write-back" default, not an SDC.
func verifyLine(buf []byte, addr, lastGen uint64) (ok bool, detail string) {
	if isZero(buf) {
		return true, ""
	}
	gen := binary.LittleEndian.Uint64(buf[0:])
	if gen > lastGen {
		return false, fmt.Sprintf("generation %d from the future (last written %d)", gen, lastGen)
	}
	want := mixWord(addr, gen)
	for i := 1; i < 8; i++ {
		if got := binary.LittleEndian.Uint64(buf[8*i:]); got != want {
			return false, fmt.Sprintf("word %d = %#x, want %#x (gen %d)", i, got, want, gen)
		}
	}
	return true, ""
}

// chaosCounters aggregates harness-side observations.
type chaosCounters struct {
	ops, dues, lost, sdc atomic.Int64
	stuckPlanted         atomic.Int64
	parityFaults         atomic.Int64
	daemonRestarts       atomic.Int64
	rebuilds             atomic.Int64
}

// Storm calibration of campaign runs: the calibrator skips
// calibrationSettle of cold-start transients, measures the steady
// weighted repair-event rate over the next calibrationSpan, and only
// then arms the storm controller at multiples of the measurement.
const (
	calibrationSettle = 300 * time.Millisecond
	calibrationSpan   = 1200 * time.Millisecond // long enough to average over churn clumps
)

// firstPressureInterval returns the first interval of the campaign's
// hotspot or burst windows, or -1 if it has none.
func firstPressureInterval(cam sudoku.FaultCampaign) int {
	first := -1
	for _, ev := range cam.Events {
		if ev.Kind != sudoku.FaultHotspot && ev.Kind != sudoku.FaultBurst {
			continue
		}
		if first < 0 || ev.Start < first {
			first = ev.Start
		}
	}
	return first
}

// checkChaosCalibration rejects a bounded-pressure campaign whose first
// pressure window opens (interval Start × -scrub) before the storm
// calibration ends: the controller's thresholds would be calibrated on
// the pressure itself, and the storm gate would then fail a run that
// was too short to judge. For a preset, whose windows scale with the
// run, the error names the shortest valid -duration.
func checkChaosCalibration(o options, base int) error {
	intervals := int(o.duration/o.scrub) + 1
	cam, err := loadCampaign(o.campaign, intervals, base)
	if err != nil || !boundedPressure(cam) {
		return err
	}
	calibrated := calibrationSettle + calibrationSpan
	first := firstPressureInterval(cam)
	opens := time.Duration(first) * o.scrub
	if opens >= calibrated {
		return nil
	}
	if !isPreset(o.campaign) {
		return fmt.Errorf("chaos: campaign %q opens its first pressure window at %v (interval %d × -scrub %v), before storm calibration ends at %v; start the window later or raise -scrub",
			o.campaign, opens, first, o.scrub, calibrated)
	}
	// A preset's windows open at a fixed fraction of the run, so some
	// longer run clears the calibration; the bound keeps a preset that
	// never would from looping.
	limit := intervals + 64*int(calibrated/o.scrub) + 64
	for n := intervals + 1; n <= limit; n++ {
		longer, err := loadCampaign(o.campaign, n, base)
		if err != nil {
			return err
		}
		if time.Duration(firstPressureInterval(longer))*o.scrub >= calibrated {
			return fmt.Errorf("chaos: -campaign %s at -duration %v opens its first pressure window at %v, before storm calibration ends at %v; use -duration %v or longer",
				o.campaign, o.duration, opens, calibrated, time.Duration(n-1)*o.scrub)
		}
	}
	return fmt.Errorf("chaos: -campaign %s opens its first pressure window at %v, before storm calibration ends at %v, at any -duration",
		o.campaign, opens, calibrated)
}

// runChaos is the -chaos entry point.
func runChaos(o options, out io.Writer) error {
	budget := chaosStormBudget(o.cachemb << 20 / 64)
	// Campaign routing: -campaign replaces both the daemon's per-pass
	// storms and the controller's extra bursts as the fault source. The
	// campaign's uniform base is half the chaos budget: the multi-bit
	// repair rate grows roughly quadratically with fault density (two
	// hits must land on one line between repair visits), so a full-budget
	// base alone would sit at storm level and a bounded burst window
	// could never stand out against it — while at half budget the ×8
	// window still outruns both the steady rate and the chaos churn's
	// episodic repair clumps by well over an order of magnitude.
	campaignBase := budget / 2
	if o.campaign != "" {
		if err := checkChaosCalibration(o, campaignBase); err != nil {
			return err
		}
	}
	cfg := buildConfig(o)
	cfg.RetireCEThreshold = 3
	cfg.SpareLines = 4
	cfg.QuarantineAuditPasses = 2
	c, err := sudoku.NewConcurrent(cfg)
	if err != nil {
		return err
	}
	var plan *sudoku.FaultPlan
	var cam sudoku.FaultCampaign
	if o.campaign != "" {
		cam, err = loadCampaign(o.campaign, int(o.duration/o.scrub)+1, campaignBase)
		if err != nil {
			return err
		}
		plan, err = sudoku.CompileCampaign(cam, c.Geometry(), o.seed)
		if err != nil {
			return err
		}
	}

	// The storm controller watches the whole soak; its thresholds must
	// sit well above the steady clustered-repair rate so that only
	// genuine pressure spikes — a burst window, a hotspot — escalate the
	// ladder. Without a campaign that rate is estimated from the fault
	// budget up front. Campaign runs calibrate instead: the steady rate
	// is dominated by access-path repairs and so depends on machine
	// speed, goroutine count, and the race detector, which no static
	// model survives — the calibrator below measures it live before the
	// earliest bounded-pressure window opens (checkChaosCalibration
	// rejects runs too short for that) and then arms the controller at
	// multiples of the measurement. Daemon restarts from the churn loop
	// re-wire the storm's scrub-interval policy once the controller is
	// up.
	stormReady := make(chan struct{})
	var calibrated atomic.Int64 // steady weighted rate measured by the calibrator
	if plan == nil {
		effective := budget + budget/2 // daemon storms + controller bursts
		if err := c.StartStormControl(chaosStormConfig(effective, o.cachemb<<20/64, c.Shards(), o.scrub)); err != nil {
			return err
		}
		close(stormReady)
	} else {
		go func() {
			defer close(stormReady)
			time.Sleep(calibrationSettle)
			beforeCounts, beforeStats := c.Health().Counts, c.Stats()
			time.Sleep(calibrationSpan)
			afterCounts, afterStats := c.Health().Counts, c.Stats()
			rate := weightedEventDelta(beforeCounts, afterCounts, beforeStats, afterStats) / calibrationSpan.Seconds()
			calibrated.Store(int64(rate))
			// The floors matter as much as the multipliers: the chaos
			// churn's quarantine rebuilds and daemon-restart backlogs land
			// as repair clumps of a few hundred weight in one instant, and
			// a bucket whose capacity (rate × window) is below the clump
			// size would trip on housekeeping. Quiet is kept short:
			// standing fully down from Critical costs drain + 2×Quiet.
			// RegionRate is per-(shard,group): the steady rate spreads
			// across all regions (~rate/regions each), while a hotspot
			// concentrates hundreds of weight per second into a handful —
			// a threshold a few times the global steady rate divided by a
			// small region count separates the two cleanly and lets the
			// targeted-scrub rung of the ladder fire in-run.
			_ = c.StartStormControl(sudoku.StormConfig{
				ElevatedRate: 2*rate + 150,
				CriticalRate: 5*rate + 450,
				RegionRate:   rate/4 + 60,
				Window:       500 * time.Millisecond,
				Quiet:        time.Second,
				MinInterval:  o.scrub / 4,
			})
		}()
	}

	daemonCfg := sudoku.ScrubDaemonConfig{
		Interval:     o.scrub,
		StormPerPass: storms(budget, c.Shards()),
		Watchdog:     4*o.scrub + 200*time.Millisecond,
	}
	if plan != nil {
		daemonCfg.StormPerPass = 0
	}
	if err := c.StartScrub(daemonCfg); err != nil {
		return err
	}

	lines := uint64(o.cachemb << 20 / 64)
	var cnt chaosCounters
	deadline := time.Now().Add(o.duration)
	var wg sync.WaitGroup

	// Campaign stepper: a dedicated goroutine on a strict ticker, so the
	// plan's interval schedule (and with it any bounded burst window)
	// holds even while the chaos controller below is busy churning.
	stopStepper := func() {}
	if plan != nil {
		stopStepper, err = startCampaignStepper(c, plan, o.scrub)
		if err != nil {
			return err
		}
	}

	// Load fleet: goroutine g owns lines ≡ g (mod goroutines+1);
	// residue `goroutines` is reserved for the chaos controller's
	// stuck-at churn so nobody shadow-verifies a deliberately broken
	// line.
	stride := uint64(o.goroutines + 1)
	master := rng.New(o.seed)
	for g := 0; g < o.goroutines; g++ {
		src := master.Split()
		wg.Add(1)
		go func(g uint64, src *rng.Source) {
			defer wg.Done()
			owned := lines / stride // owned line k is line index k*stride+g
			if owned == 0 {
				return
			}
			// shadow[line] is the highest generation ever written to
			// the line. It is monotone and never deleted: after a
			// dirty-line DUE the backing store can still hold an older
			// write, so any generation ≤ the max with a matching mix
			// pattern is legitimate stale-but-consistent content. Only
			// a mix mismatch or a generation above the max is an SDC.
			shadow := make(map[uint64]uint64)
			buf := make([]byte, 64)
			rbuf := make([]byte, 64)
			n := int64(0)
			for {
				if n%128 == 0 && time.Now().After(deadline) {
					break
				}
				n++
				line := src.Uint64n(owned)*stride + g
				addr := line * 64
				if src.Float64() < o.readfrac {
					err := c.ReadInto(addr, rbuf)
					if err != nil {
						// A dirty-line DUE: our latest write is lost, the
						// slot discarded; a later read refetches older
						// backing content. Visible loss, not silent.
						cnt.dues.Add(1)
						continue
					}
					if last, tracked := shadow[line]; tracked {
						if ok, detail := verifyLine(rbuf, addr, last); !ok {
							cnt.sdc.Add(1)
							c.RecordSDC(addr, detail)
						} else if last > 0 && isZero(rbuf) {
							cnt.lost.Add(1) // discarded before first write-back
						}
					}
				} else {
					gen := shadow[line] + 1
					fillLine(buf, addr, gen)
					// Record the generation even if the write errors:
					// it may have partially landed, and gens must stay
					// monotone per line for verification to be sound.
					shadow[line] = gen
					if err := c.Write(addr, buf); err != nil {
						cnt.dues.Add(1)
					}
				}
			}
			cnt.ops.Add(n)
		}(uint64(g), src)
	}

	// Chaos controller: extra whole-cache storms, daemon kill/restart,
	// stuck-at retirement churn (one bit per distinct line, so a clean
	// line's refetch recovery always converges), parity corruption, and
	// periodic region rebuilds.
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		src := rng.New(o.seed ^ 0xc4a05)
		groups := c.ParityGroups()
		stuckNext := uint64(0)
		stuckPool := lines / stride // controller-owned lines: k*stride + goroutines
		buf := make([]byte, 64)
		tick := 0
		for time.Now().Before(deadline) {
			time.Sleep(o.scrub)
			tick++
			if plan == nil {
				// An extra whole-cache burst on top of the daemon's
				// per-pass storms. (Campaign mode replaces this with the
				// dedicated stepper goroutine: this loop's churn duties
				// make its tick rate too slack to keep a plan on
				// schedule.)
				_ = c.InjectRandomFaults(src.Uint64(), chaosStormBudget(int(lines))/2)
			}
			if tick%3 == 0 && groups > 0 {
				shard := int(src.Uint64n(uint64(c.Shards())))
				group := int(src.Uint64n(uint64(groups)))
				bit := int(src.Uint64n(553))
				if c.InjectParityFault(shard, group, bit) == nil {
					cnt.parityFaults.Add(1)
				}
			}
			if tick%5 == 0 {
				if c.StopScrub() == nil {
					time.Sleep(o.scrub / 4)
					if c.StartScrub(daemonCfg) == nil {
						cnt.daemonRestarts.Add(1)
					}
				}
			}
			if tick%4 == 0 && stuckPool > 0 && stuckNext < 16 {
				line := (stuckNext%stuckPool)*stride + uint64(o.goroutines)
				addr := line * 64
				fillLine(buf, addr, 1) // resident, dirty, bit 7 of byte 0 clear
				if c.Write(addr, buf) == nil && c.InjectStuckAt(addr, 7, true) == nil {
					cnt.stuckPlanted.Add(1)
				}
				stuckNext++
			}
			if tick%7 == 0 {
				if n, err := c.RebuildQuarantined(); err == nil {
					cnt.rebuilds.Add(int64(n))
				}
			}
		}
	}()

	wg.Wait()
	<-ctlDone
	stopStepper()
	<-stormReady // the calibrator owns StartStormControl; join before judging
	// All pressure has stopped (stepper, load, churn) — but repairable
	// residue has not: regions still quarantined with corrupt parity are
	// re-detected by the daemon every rotation, a standing weighted-event
	// floor that rightly keeps the ladder up. Judging de-escalation means
	// first doing what an operator would — return quarantined regions to
	// service and drain the repair backlog — and then giving the
	// controller its own stand-down budget: bucket drain plus two Quiet
	// windows per ladder level plus ticker slack.
	if plan != nil {
		// One rebuild+scrub round is not always enough: a region that sat
		// quarantined (and unscrubbed) through the window can fail its
		// parity audit again right after rebuild. Iterate until a pass
		// comes back clean — no group-level repairs, no skips, nothing
		// newly quarantined — before starting the stand-down clock.
		for round := 0; round < 8; round++ {
			if _, err := c.RebuildQuarantined(); err != nil {
				return err
			}
			rep, err := c.Scrub()
			if err != nil {
				return err
			}
			if rep.SDRRepairs+rep.RAIDRepairs+rep.Hash2Repairs+len(rep.DUELines)+
				rep.QuarantineSkipped+rep.RegionsQuarantined == 0 {
				break
			}
		}
		grace := time.Now().Add(5 * time.Second)
		for c.StormState() != sudoku.StormNormal && time.Now().Before(grace) {
			time.Sleep(50 * time.Millisecond)
		}
	}
	stormFinal := c.StormState()
	stormStats := c.StormStats()
	_ = c.StopStormControl()
	_ = c.StopScrub()
	// Settle: return quarantined regions to service and let two full
	// synchronous passes drain the repair backlog before judging.
	if _, err := c.RebuildQuarantined(); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Scrub(); err != nil {
			return err
		}
	}

	h := c.Health()
	st := c.Stats()
	scrub := c.ScrubStats()
	fmt.Fprintf(out, "chaos: shards=%d ops=%d storm=%d/interval (10x paper BER)\n",
		c.Shards(), cnt.ops.Load(), chaosStormBudget(int(lines)))
	if plan != nil {
		fmt.Fprintf(out, "chaos: campaign=%q intervals=%d seed=%d calibrated-rate=%d/s\n",
			cam.Name, plan.Intervals(), o.seed, calibrated.Load())
	}
	fmt.Fprintf(out, "storm: final=%v peak=%v escalations=%d deescalations=%d targeted-scrubs=%d region-audits=%d trips=%d events=%d\n",
		stormFinal, stormStats.Peak, stormStats.Escalations, stormStats.DeEscalations,
		stormStats.TargetedScrubs, stormStats.RegionAudits, stormStats.RegionTrips,
		stormStats.EventsSeen)
	fmt.Fprintf(out, "chaos: daemon restarts=%d stuck planted=%d parity faults=%d rebuilds=%d\n",
		cnt.daemonRestarts.Load(), cnt.stuckPlanted.Load(), cnt.parityFaults.Load(), cnt.rebuilds.Load())
	fmt.Fprintf(out, "health: due-recovered=%d due-data-loss=%d due-overwritten=%d recovery-failed=%d\n",
		h.Counts.DUERecovered, h.Counts.DUEDataLoss, h.Counts.DUEOverwritten, h.Counts.RecoveryFailed)
	fmt.Fprintf(out, "health: retired=%d spares-free=%d quarantined=%d (lifetime %d, rebuilt %d) stalls=%d panics=%d\n",
		h.RetiredLines, h.SparesFree, h.QuarantinedRegions,
		h.Counts.RegionsQuarantined, h.Counts.RegionsRebuilt, scrub.Stalls, scrub.Panics)
	fmt.Fprintf(out, "load: dues-seen=%d shadow-resets=%d repairs: single=%d sdr=%d raid=%d hash2=%d faults-injected=%d\n",
		cnt.dues.Load(), cnt.lost.Load(), st.SingleRepairs, st.SDRRepairs, st.RAIDRepairs,
		st.Hash2Repairs, st.FaultsInjected)
	if !o.quiet {
		for _, ev := range tailEvents(h.Events, 10) {
			fmt.Fprintf(out, "event: %v\n", ev)
		}
	}
	if h.Counts.SDC > 0 {
		return fmt.Errorf("chaos: %d silent data corruptions detected", h.Counts.SDC)
	}
	if h.Counts.RecoveryFailed > 0 {
		return fmt.Errorf("chaos: %d clean-line DUE recoveries failed", h.Counts.RecoveryFailed)
	}
	if plan != nil && boundedPressure(cam) {
		// A bounded pressure window (e.g. the burst preset) must both
		// drive the ladder to Critical and fully stand down once the
		// window closes — the storm controller's end-to-end contract.
		if stormStats.Peak < sudoku.StormCritical {
			return fmt.Errorf("chaos: campaign %q never reached critical (peak %v)", cam.Name, stormStats.Peak)
		}
		if stormFinal != sudoku.StormNormal {
			return fmt.Errorf("chaos: storm still %v after the pressure window closed", stormFinal)
		}
	}
	fmt.Fprintln(out, "chaos: PASS (zero SDC, all clean-line DUEs recovered)")
	return nil
}

// chaosStormConfig derives the controller thresholds from the fault
// budget. The incremental daemon visits each shard once per rotation
// (shards × scrub), so by the time a line is scrubbed it has accrued
// λ = F·shards/L faults on average; the multi-bit fraction is the
// Poisson tail p₂(λ) = 1 − (1+λ)e^(−λ) and the steady weighted event
// rate is at most the scan rate L/rotation times p₂. Access-path
// repairs clear a share of those lines early, so the model runs a few
// times hot — which is exactly the headroom the elevated bar needs to
// ignore the steady soak. A burst window multiplies F severalfold and
// drives p₂ toward 1, clearing the critical bar by an order of
// magnitude.
func chaosStormConfig(faultsPerInterval, lines, shards int, scrub time.Duration) sudoku.StormConfig {
	f := float64(faultsPerInterval)
	lambda := f * float64(shards) / float64(lines)
	p2 := 1 - (1+lambda)*math.Exp(-lambda)
	scanRate := float64(lines) / (float64(shards) * scrub.Seconds())
	base := scanRate * p2
	return sudoku.StormConfig{
		ElevatedRate: base + 20,
		CriticalRate: 3*base + 60,
		Window:       500 * time.Millisecond,
		Quiet:        1500 * time.Millisecond,
		MinInterval:  scrub / 4,
	}
}

// weightedEventDelta scores the RAS activity between two snapshots
// with the storm controller's own severity weights (group-ladder
// repairs 1 per line, recovered/overwritten DUE 2, data loss and
// failed recovery 4, SDC 8) so the calibrated thresholds are in the
// controller's units. Per-line repair stats, not the group-repair
// event count, mirror the controller's Repairs-scaled weighting.
func weightedEventDelta(bc, ac sudoku.RASCounts, bs, as sudoku.Stats) float64 {
	return float64((as.SDRRepairs-bs.SDRRepairs)+
		(as.RAIDRepairs-bs.RAIDRepairs)+
		(as.Hash2Repairs-bs.Hash2Repairs)) +
		2*float64(ac.DUERecovered-bc.DUERecovered) +
		2*float64(ac.DUEOverwritten-bc.DUEOverwritten) +
		4*float64(ac.DUEDataLoss-bc.DUEDataLoss) +
		4*float64(ac.RecoveryFailed-bc.RecoveryFailed) +
		8*float64(ac.SDC-bc.SDC)
}

func isZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// tailEvents returns the last n events.
func tailEvents(evs []sudoku.RASEvent, n int) []sudoku.RASEvent {
	if len(evs) <= n {
		return evs
	}
	return evs[len(evs)-n:]
}
