package scrubber

import (
	"errors"
	"testing"

	"sudoku/internal/cache"
)

// TestStatsObserve pins pass accounting: a clean pass sums its repair
// counters and DUE-line count; an errored pass counts in Passes and
// Errors but adds no repair counters, whatever its report holds.
func TestStatsObserve(t *testing.T) {
	report := cache.ScrubReport{
		SingleRepairs: 3, SDRRepairs: 1, RAIDRepairs: 2, Hash2Repairs: 1,
		DUELines: []int{7},
	}
	boom := errors.New("boom")
	for _, tc := range []struct {
		name   string
		passes []Pass
		want   Stats
	}{
		{"none", nil, Stats{}},
		{"quiet pass", []Pass{{}}, Stats{Passes: 1}},
		{"repairs summed", []Pass{{Report: report}},
			Stats{Passes: 1, SingleRepairs: 3, SDRRepairs: 1, RAIDRepairs: 2, Hash2Repairs: 1, DUELines: 1}},
		{"two passes", []Pass{{Report: report}, {Report: cache.ScrubReport{SingleRepairs: 4, DUELines: []int{1, 2}}}},
			Stats{Passes: 2, SingleRepairs: 7, SDRRepairs: 1, RAIDRepairs: 2, Hash2Repairs: 1, DUELines: 3}},
		{"errored pass adds no repairs", []Pass{{Report: report, Err: boom}},
			Stats{Passes: 1, Errors: 1}},
		{"error between clean passes", []Pass{{Report: report}, {Err: boom}, {Report: report}},
			Stats{Passes: 3, Errors: 1, SingleRepairs: 6, SDRRepairs: 2, RAIDRepairs: 4, Hash2Repairs: 2, DUELines: 2}},
	} {
		var st Stats
		for _, p := range tc.passes {
			st.Observe(p)
		}
		if st != tc.want {
			t.Errorf("%s: stats = %+v, want %+v", tc.name, st, tc.want)
		}
	}
}

// TestStatsAdd pins that Add sums every counter field, the property
// the engine relies on to keep scrub totals across daemon restarts.
func TestStatsAdd(t *testing.T) {
	a := Stats{Passes: 1, SingleRepairs: 2, SDRRepairs: 3, RAIDRepairs: 4, Hash2Repairs: 5, DUELines: 6, Errors: 7}
	b := Stats{Passes: 10, SingleRepairs: 20, SDRRepairs: 30, RAIDRepairs: 40, Hash2Repairs: 50, DUELines: 60, Errors: 70}
	for _, tc := range []struct {
		name      string
		acc, more Stats
		want      Stats
	}{
		{"zero plus zero", Stats{}, Stats{}, Stats{}},
		{"into zero", Stats{}, a, a},
		{"zero into", a, Stats{}, a},
		{"every field", a, b, Stats{Passes: 11, SingleRepairs: 22, SDRRepairs: 33, RAIDRepairs: 44, Hash2Repairs: 55, DUELines: 66, Errors: 77}},
	} {
		st := tc.acc
		st.Add(tc.more)
		if st != tc.want {
			t.Errorf("%s: %+v + %+v = %+v, want %+v", tc.name, tc.acc, tc.more, st, tc.want)
		}
	}
}
