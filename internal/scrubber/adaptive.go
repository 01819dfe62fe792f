package scrubber

import (
	"fmt"
	"time"
)

// Policy decides the next scrub interval from the outcome of the pass
// that just completed — the hook for adaptive scrub schemes, which the
// paper cites as orthogonal enhancements (§VIII-E, Awasthi et al.).
// Implementations must be safe for use from the scrub daemon goroutine.
type Policy interface {
	// NextInterval returns the delay before the next pass.
	NextInterval(p Pass, current time.Duration) time.Duration
}

// FixedPolicy always keeps the configured interval — the paper's
// baseline 20 ms scheme.
type FixedPolicy struct{}

var _ Policy = FixedPolicy{}

// NextInterval implements Policy.
func (FixedPolicy) NextInterval(_ Pass, current time.Duration) time.Duration {
	return current
}

// AdaptivePolicy trades scrub bandwidth against fault pressure: when a
// pass needed multi-bit (group) repairs, the error rate is outrunning
// the scrub — shrink the interval; after several consecutive quiet
// passes, stretch it back out. Shrinking is multiplicative-fast and
// growing additive-slow, the usual control shape for keeping a tail
// risk bounded.
type AdaptivePolicy struct {
	// Min and Max clamp the interval.
	Min, Max time.Duration
	// QuietPasses is how many consecutive passes without multi-bit
	// repairs are needed before the interval grows (default 4).
	QuietPasses int
	// Grow is the multiplicative step up (default 1.25); Shrink the
	// step down (default 0.5).
	Grow, Shrink float64

	quiet int
}

var _ Policy = (*AdaptivePolicy)(nil)

// NewAdaptivePolicy validates and returns an adaptive policy.
func NewAdaptivePolicy(min, max time.Duration) (*AdaptivePolicy, error) {
	if min <= 0 || max < min {
		return nil, fmt.Errorf("scrubber: adaptive bounds [%v, %v]", min, max)
	}
	return &AdaptivePolicy{
		Min:         min,
		Max:         max,
		QuietPasses: 4,
		Grow:        1.25,
		Shrink:      0.5,
	}, nil
}

// NextInterval implements Policy.
func (a *AdaptivePolicy) NextInterval(p Pass, current time.Duration) time.Duration {
	multi := p.Report.SDRRepairs + p.Report.RAIDRepairs + p.Report.Hash2Repairs + len(p.Report.DUELines)
	if p.Err != nil || multi > 0 {
		a.quiet = 0
		next := time.Duration(float64(current) * a.Shrink)
		if next < a.Min {
			next = a.Min
		}
		return next
	}
	a.quiet++
	if a.quiet < a.QuietPasses {
		return current
	}
	a.quiet = 0
	next := time.Duration(float64(current) * a.Grow)
	if next > a.Max {
		next = a.Max
	}
	return next
}
