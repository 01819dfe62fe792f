package scrubber

import (
	"errors"
	"testing"
	"time"

	"sudoku/internal/cache"
)

func quietPass() Pass { return Pass{} }

func noisyPass() Pass {
	return Pass{Report: cache.ScrubReport{SDRRepairs: 1}}
}

func TestNewAdaptivePolicyValidation(t *testing.T) {
	if _, err := NewAdaptivePolicy(0, time.Second); err == nil {
		t.Fatal("zero min accepted")
	}
	if _, err := NewAdaptivePolicy(time.Second, time.Millisecond); err == nil {
		t.Fatal("max < min accepted")
	}
}

func TestFixedPolicy(t *testing.T) {
	p := FixedPolicy{}
	if got := p.NextInterval(noisyPass(), 20*time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("fixed policy moved to %v", got)
	}
}

func TestAdaptiveShrinksOnMultiBitPressure(t *testing.T) {
	p, err := NewAdaptivePolicy(5*time.Millisecond, 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cur := 40 * time.Millisecond
	cur = p.NextInterval(noisyPass(), cur)
	if cur != 20*time.Millisecond {
		t.Fatalf("after pressure: %v, want 20ms", cur)
	}
	cur = p.NextInterval(noisyPass(), cur)
	cur = p.NextInterval(noisyPass(), cur)
	cur = p.NextInterval(noisyPass(), cur)
	if cur != 5*time.Millisecond {
		t.Fatalf("should clamp at Min: %v", cur)
	}
}

func TestAdaptiveGrowsAfterQuietStreak(t *testing.T) {
	p, err := NewAdaptivePolicy(5*time.Millisecond, 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cur := 20 * time.Millisecond
	for i := 0; i < 3; i++ {
		if next := p.NextInterval(quietPass(), cur); next != cur {
			t.Fatalf("grew after only %d quiet passes", i+1)
		}
	}
	cur = p.NextInterval(quietPass(), cur) // fourth quiet pass
	if cur != 25*time.Millisecond {
		t.Fatalf("after quiet streak: %v, want 25ms", cur)
	}
	// A noisy pass resets the streak and shrinks.
	cur = p.NextInterval(noisyPass(), cur)
	if cur >= 25*time.Millisecond {
		t.Fatalf("pressure should shrink: %v", cur)
	}
	// Clamp at Max.
	cur = 80 * time.Millisecond
	for i := 0; i < 8; i++ {
		cur = p.NextInterval(quietPass(), cur)
	}
	if cur != 80*time.Millisecond {
		t.Fatalf("should clamp at Max: %v", cur)
	}
}

// TestAdaptiveQuietCounterReset: a noisy pass must zero the quiet
// streak, so growth needs a full QuietPasses run of clean passes again
// — not just the remainder of the interrupted streak.
func TestAdaptiveQuietCounterReset(t *testing.T) {
	p, err := NewAdaptivePolicy(5*time.Millisecond, 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cur := 20 * time.Millisecond
	for i := 0; i < 4; i++ {
		cur = p.NextInterval(quietPass(), cur)
	}
	if cur != 25*time.Millisecond {
		t.Fatalf("after full quiet streak: %v, want 25ms", cur)
	}
	cur = p.NextInterval(noisyPass(), cur)
	if cur != 12500*time.Microsecond {
		t.Fatalf("after pressure: %v, want 12.5ms", cur)
	}
	// Three quiet passes after the reset must not grow — the noisy pass
	// wiped the streak, they are passes 1..3 of a fresh one.
	for i := 0; i < 3; i++ {
		if next := p.NextInterval(quietPass(), cur); next != cur {
			t.Fatalf("grew after only %d post-reset quiet passes: %v", i+1, next)
		}
	}
	cur = p.NextInterval(quietPass(), cur) // fourth: streak complete
	if cur != 15625*time.Microsecond {
		t.Fatalf("after fresh quiet streak: %v, want 15.625ms", cur)
	}
}

func TestAdaptiveTreatsErrorsAsPressure(t *testing.T) {
	p, err := NewAdaptivePolicy(time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bad := Pass{Err: errors.New("x")}
	if got := p.NextInterval(bad, 100*time.Millisecond); got != 50*time.Millisecond {
		t.Fatalf("error pass: %v", got)
	}
}
