// Campaign routing: -campaign replaces the uniform -storm scatter with
// a compiled correlated-fault plan (hotspots, bursts, weak cells,
// stuck-at cohorts), stepped one interval per scrub period. The same
// seed replays the same fault sequence.
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"sudoku"
)

// presetList renders the built-in campaign names for the flag help.
func presetList() string {
	return strings.Join(sudoku.CampaignPresetNames(), ", ")
}

// isPreset reports whether name is a built-in campaign.
func isPreset(name string) bool {
	for _, p := range sudoku.CampaignPresetNames() {
		if p == name {
			return true
		}
	}
	return false
}

// loadCampaign builds the named campaign: a preset name is sized with
// the given intervals and per-interval base budget, anything else is
// read as a campaign JSON file whose own interval count stands.
func loadCampaign(name string, intervals, base int) (sudoku.FaultCampaign, error) {
	if isPreset(name) {
		if base <= 0 {
			base = 1
		}
		return sudoku.CampaignPreset(name, intervals, base)
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return sudoku.FaultCampaign{}, fmt.Errorf("campaign %q: %w", name, err)
	}
	cam, err := sudoku.ParseCampaign(data)
	if err != nil {
		return sudoku.FaultCampaign{}, fmt.Errorf("campaign %q: %w", name, err)
	}
	return cam, nil
}

// resolveCampaign turns the -campaign flag into a compiled plan sized
// to the run (-duration/-scrub intervals, -storm base budget).
func resolveCampaign(o options, geom sudoku.FaultGeometry) (*sudoku.FaultPlan, error) {
	cam, err := loadCampaign(o.campaign, int(o.duration/o.scrub)+1, o.storm)
	if err != nil {
		return nil, err
	}
	return sudoku.CompileCampaign(cam, geom, o.seed)
}

// boundedPressure reports whether the campaign's clustered pressure
// ends before the campaign does — the shape whose storm response must
// both peak and fully de-escalate within the run.
func boundedPressure(cam sudoku.FaultCampaign) bool {
	for _, ev := range cam.Events {
		if (ev.Kind == sudoku.FaultHotspot || ev.Kind == sudoku.FaultBurst) &&
			ev.End > 0 && ev.End < cam.Intervals {
			return true
		}
	}
	return false
}

// startCampaignStepper launches the injection goroutine: plan interval
// i fires at wall-clock time i×period from the start, wrapping around
// if the run outlives the plan. The schedule is anchored to the clock,
// not to completed injections: when shard-lock contention makes an
// ApplyFaults outrun its period, the stepper skips ahead rather than
// letting the whole plan (and any bounded burst window in it) dilate.
// The returned stop function joins the goroutine.
func startCampaignStepper(eng *sudoku.Concurrent, plan *sudoku.FaultPlan, period time.Duration) (stop func(), err error) {
	if plan.Intervals() <= 0 {
		return nil, fmt.Errorf("campaign plan has no intervals")
	}
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(doneCh)
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		last := -1
		for {
			select {
			case <-stopCh:
				return
			case now := <-ticker.C:
				i := int(now.Sub(start) / period)
				if i <= last {
					continue
				}
				last = i
				ip, err := plan.At(i % plan.Intervals())
				if err != nil {
					return
				}
				_, _ = eng.ApplyFaults(ip)
			}
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
	}, nil
}
