package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRunSharded(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-engine", "sharded", "-goroutines", "4", "-duration", "100ms",
		"-cachemb", "1", "-scrub", "5ms", "-storm", "20",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"engine=sharded", "p50=", "p99=", "scrub-passes="} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunGlobal runs the single-lock engine: -shards 1 under the same
// scrub daemon as the sharded run.
func TestRunGlobal(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-shards", "1", "-goroutines", "2", "-duration", "50ms",
		"-cachemb", "1", "-scrub", "5ms", "-quiet",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "engine=global shards=1") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunCompare(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-engine", "compare", "-goroutines", "2", "-duration", "50ms",
		"-cachemb", "1", "-storm", "0", "-quiet",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sharded/global throughput:") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestRunChaos is the chaos smoke: a short RAS soak that must come
// back with zero SDC and zero failed clean-line recoveries (runChaos
// returns an error otherwise). CI runs the same mode for longer under
// -race via the chaos-smoke job.
func TestRunChaos(t *testing.T) {
	dur := "400ms"
	if testing.Short() {
		dur = "150ms"
	}
	var out bytes.Buffer
	err := run([]string{
		"-chaos", "-goroutines", "4", "-duration", dur,
		"-cachemb", "1", "-scrub", "5ms", "-quiet",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"chaos: PASS", "health: retired=", "storm="} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestChaosRejectsRunShorterThanCalibration: a bounded-pressure preset
// whose first window would open inside the storm calibration (before
// calibrationSettle+calibrationSpan = 1.5 s) is refused up front, with
// the shortest valid -duration named, instead of failing its storm
// gate after the soak. At -scrub 10ms the hotspot and burst presets
// open at interval (duration/10ms+1)/4, which reaches 150 (1.5 s) at
// 600 intervals: -duration 5.99s.
func TestChaosRejectsRunShorterThanCalibration(t *testing.T) {
	for _, campaign := range []string{"hotspot", "burst"} {
		err := run([]string{
			"-chaos", "-campaign", campaign, "-duration", "4s",
			"-cachemb", "1", "-scrub", "10ms", "-goroutines", "8", "-quiet",
		}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "use -duration 5.99s or longer") {
			t.Fatalf("%s at 4s: err = %v, want a rejection naming -duration 5.99s", campaign, err)
		}
	}
	// The boundary itself passes the check, and so does CI's 15 s soak;
	// pulse's first window opens at 1/8 of the run and needs 11.99 s.
	for _, tc := range []struct {
		campaign string
		duration time.Duration
		ok       bool
	}{
		{"hotspot", 5990 * time.Millisecond, true},
		{"hotspot", 5980 * time.Millisecond, false},
		{"burst", 15 * time.Second, true},
		{"uniform", time.Second, true},
		{"pulse", 11 * time.Second, false},
		{"pulse", 11990 * time.Millisecond, true},
	} {
		o := options{campaign: tc.campaign, duration: tc.duration, scrub: 10 * time.Millisecond}
		if err := checkChaosCalibration(o, 100); (err == nil) != tc.ok {
			t.Fatalf("%s at %v: err = %v, want ok=%v", tc.campaign, tc.duration, err, tc.ok)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-engine", "nope"},
		{"-engine", "global"},
		{"-goroutines", "0"},
		{"-duration", "0s"},
		{"-readfrac", "1.5"},
		{"-storm", "-1"},
		{"-scrub", "0s"},
		{"-shards", "5"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// The percentile regression tests (q = 1.0 sentinel bug, empty
// histogram, single-observation rank clamping) moved to
// internal/telemetry with the histogram itself — see
// internal/telemetry/histogram_test.go TestQuantile*.
