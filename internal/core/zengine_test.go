package core

import (
	"fmt"
	"testing"

	"sudoku/internal/bitvec"
	"sudoku/internal/rng"
)

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"paper default", DefaultParams(), false},
		{"tiny valid", Params{NumLines: 16, GroupSize: 4}, false},
		{"non power lines", Params{NumLines: 100, GroupSize: 4}, true},
		{"non power group", Params{NumLines: 64, GroupSize: 3}, true},
		{"group of one", Params{NumLines: 64, GroupSize: 1}, true},
		{"too few lines for skew", Params{NumLines: 64, GroupSize: 16}, true},
		{"zero", Params{}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestHashesPartitionAndAreDisjoint(t *testing.T) {
	// §V-A: lines sharing a Hash-1 group must never share a Hash-2
	// group. Checked exhaustively on a reduced geometry and on the
	// paper geometry by sampling.
	p := Params{NumLines: 256, GroupSize: 4}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < p.NumGroups(); g++ {
		m1 := p.Hash1Members(g)
		if len(m1) != p.GroupSize {
			t.Fatalf("group %d: %d members", g, len(m1))
		}
		for i, a := range m1 {
			if p.Hash1Of(a) != g {
				t.Fatalf("Hash1Of(%d) = %d, want %d", a, p.Hash1Of(a), g)
			}
			for _, b := range m1[i+1:] {
				if p.Hash2Of(a) == p.Hash2Of(b) {
					t.Fatalf("lines %d and %d share both groups", a, b)
				}
			}
		}
		m2 := p.Hash2Members(g)
		for _, a := range m2 {
			if p.Hash2Of(a) != g {
				t.Fatalf("Hash2Of(%d) = %d, want %d", a, p.Hash2Of(a), g)
			}
		}
	}
	// Hash-2 groups partition all lines.
	seen := make(map[int]int, p.NumLines)
	for g := 0; g < p.NumGroups(); g++ {
		for _, a := range p.Hash2Members(g) {
			seen[a]++
		}
	}
	if len(seen) != p.NumLines {
		t.Fatalf("hash-2 groups cover %d lines, want %d", len(seen), p.NumLines)
	}
	for a, n := range seen {
		if n != 1 {
			t.Fatalf("line %d appears in %d hash-2 groups", a, n)
		}
	}

	// Paper geometry, sampled.
	pp := DefaultParams()
	r := rng.New(55)
	for trial := 0; trial < 5000; trial++ {
		a := r.Intn(pp.NumLines)
		b := pp.Hash1Of(a)<<9 | r.Intn(pp.GroupSize)
		if a != b && pp.Hash2Of(a) == pp.Hash2Of(b) {
			t.Fatalf("paper geometry: lines %d,%d share both groups", a, b)
		}
	}
}

func TestPLT(t *testing.T) {
	plt, err := NewPLT(4, 553)
	if err != nil {
		t.Fatal(err)
	}
	if plt.NumGroups() != 4 {
		t.Fatalf("NumGroups = %d", plt.NumGroups())
	}
	if plt.StorageBytes() != 4*70 {
		t.Fatalf("StorageBytes = %d", plt.StorageBytes())
	}
	delta := bitvec.New(553)
	if err := delta.Set(100); err != nil {
		t.Fatal(err)
	}
	if err := plt.Update(2, delta); err != nil {
		t.Fatal(err)
	}
	par, err := plt.Parity(2)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Bit(100) || par.PopCount() != 1 {
		t.Fatal("Update did not flip exactly the delta bits")
	}
	if _, err := plt.Parity(9); err == nil {
		t.Fatal("out-of-range group accepted")
	}
	if _, err := NewPLT(0, 553); err == nil {
		t.Fatal("zero groups accepted")
	}
}

func TestPaperPLTStorageBudget(t *testing.T) {
	// §III-D: "a storage overhead of 128KB for a cache of 64MB".
	// Covering the full 553-bit codeword instead of the 512 data bits
	// costs ~138 KB — within 8% of the paper's figure.
	p := DefaultParams()
	plt, err := NewPLT(p.NumGroups(), 553)
	if err != nil {
		t.Fatal(err)
	}
	kb := plt.StorageBytes() / 1024
	if kb < 128 || kb > 142 {
		t.Fatalf("PLT storage = %d KB, want ≈ 128–138 KB", kb)
	}
}

// miniCache implements CacheView over a dense slice, with both PLTs
// kept consistent.
type miniCache struct {
	params Params
	lines  []*bitvec.Vector
	clean  []*bitvec.Vector
	plt1   *PLT
	plt2   *PLT
}

var _ CacheView = (*miniCache)(nil)

func (m *miniCache) Line(addr int) (*bitvec.Vector, error) {
	if addr < 0 || addr >= len(m.lines) {
		return nil, fmt.Errorf("addr %d out of range", addr)
	}
	return m.lines[addr], nil
}

func newMiniCache(t testing.TB, c *LineCodec, p Params, r *rng.Source) *miniCache {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	plt1, err := NewPLT(p.NumGroups(), c.StoredBits())
	if err != nil {
		t.Fatal(err)
	}
	plt2, err := NewPLT(p.NumGroups(), c.StoredBits())
	if err != nil {
		t.Fatal(err)
	}
	m := &miniCache{
		params: p,
		lines:  make([]*bitvec.Vector, p.NumLines),
		clean:  make([]*bitvec.Vector, p.NumLines),
		plt1:   plt1,
		plt2:   plt2,
	}
	for i := range m.lines {
		stored, err := c.Encode(randomData(r, c.DataBits()))
		if err != nil {
			t.Fatal(err)
		}
		m.lines[i] = stored
		m.clean[i] = stored.Clone()
		if err := plt1.Update(p.Hash1Of(i), stored); err != nil {
			t.Fatal(err)
		}
		if err := plt2.Update(p.Hash2Of(i), stored); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func (m *miniCache) inject(t testing.TB, addr int, positions ...int) {
	t.Helper()
	for _, p := range positions {
		if err := m.lines[addr].Flip(p); err != nil {
			t.Fatal(err)
		}
	}
}

func (m *miniCache) verifyRestored(t testing.TB) {
	t.Helper()
	for i := range m.lines {
		if !m.lines[i].Equal(m.clean[i]) {
			t.Fatalf("line %d not restored", i)
		}
	}
}

func mustZEngine(t testing.TB, m *miniCache, level Protection) *ZEngine {
	t.Helper()
	e := mustEngine(t, level)
	z, err := NewZEngine(e, m.params, m.plt1, m.plt2)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestNewZEngineValidation(t *testing.T) {
	m := newMiniCache(t, mustCodec(t), Params{NumLines: 16, GroupSize: 4}, rng.New(1))
	if _, err := NewZEngine(nil, m.params, m.plt1, m.plt2); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewZEngine(mustEngine(t, ProtectionZ), Params{NumLines: 3, GroupSize: 2}, m.plt1, m.plt2); err == nil {
		t.Fatal("bad geometry accepted")
	}
	if _, err := NewZEngine(mustEngine(t, ProtectionZ), m.params, nil, m.plt2); err == nil {
		t.Fatal("nil PLT accepted")
	}
	wrong, err := NewPLT(2, 553)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewZEngine(mustEngine(t, ProtectionZ), m.params, m.plt1, wrong); err == nil {
		t.Fatal("mismatched PLT accepted")
	}
}

func TestZRepairsTwoThreeBitLines(t *testing.T) {
	// Figure 6: lines B and D (same Hash-1 group) each carry three
	// faults — uncorrectable under Hash-1, repaired via their disjoint
	// Hash-2 groups.
	r := rng.New(20)
	m := newMiniCache(t, mustCodec(t), Params{NumLines: 16, GroupSize: 4}, r)
	z := mustZEngine(t, m, ProtectionZ)
	m.inject(t, 1, 10, 20, 30) // line B
	m.inject(t, 3, 40, 50, 60) // line D
	report, err := z.RepairHash1Group(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Unrepaired) != 0 {
		t.Fatalf("SuDoku-Z failed: %+v", report)
	}
	if report.Hash2Repairs == 0 {
		t.Fatalf("expected Hash-2 repairs, got %+v", report)
	}
	m.verifyRestored(t)
}

func TestZOneHash2SuccessUnlocksHash1RAID(t *testing.T) {
	// §V-B: "even if one of the lines is repaired ... we can use the
	// corrected value of that line to repair the other line". Make one
	// line's Hash-2 group also broken so only the other line repairs
	// under Hash-2; the final Hash-1 pass must then RAID the rest.
	r := rng.New(21)
	m := newMiniCache(t, mustCodec(t), Params{NumLines: 16, GroupSize: 4}, r)
	z := mustZEngine(t, m, ProtectionZ)
	// Hash-1 group 0 = lines {0,1,2,3}. Break lines 1 and 3 with 3-bit
	// faults.
	m.inject(t, 1, 10, 20, 30)
	m.inject(t, 3, 40, 50, 60)
	// Poison line 1's Hash-2 group (lines 1,5,9,13) with another
	// 3-bit faulty line so that group cannot repair line 1 by itself.
	m.inject(t, 9, 70, 80, 90)
	report, err := z.RepairHash1Group(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Unrepaired) != 0 {
		t.Fatalf("SuDoku-Z failed: %+v", report)
	}
	// Note line 9 may remain faulty (it belongs to another Hash-1
	// group and would be repaired when that group is scrubbed).
	for _, addr := range []int{0, 1, 2, 3} {
		if !m.lines[addr].Equal(m.clean[addr]) {
			t.Fatalf("line %d not restored", addr)
		}
	}
}

func TestZFailsWhenBothHashesBroken(t *testing.T) {
	// SuDoku-Z's residual DUE: a line uncorrectable under both hashes,
	// twice over. Poison both Hash-2 groups of the two broken lines.
	r := rng.New(22)
	m := newMiniCache(t, mustCodec(t), Params{NumLines: 16, GroupSize: 4}, r)
	z := mustZEngine(t, m, ProtectionZ)
	m.inject(t, 1, 10, 20, 30)
	m.inject(t, 3, 40, 50, 60)
	m.inject(t, 9, 70, 80, 90)  // line 1's hash-2 group {1,5,9,13}
	m.inject(t, 11, 15, 25, 35) // line 3's hash-2 group {3,7,11,15}
	report, err := z.RepairHash1Group(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Unrepaired) == 0 {
		t.Fatal("doubly-poisoned pattern should be DUE even at Z")
	}
}

func TestZLevelYStopsAtHash1(t *testing.T) {
	r := rng.New(23)
	m := newMiniCache(t, mustCodec(t), Params{NumLines: 16, GroupSize: 4}, r)
	z := mustZEngine(t, m, ProtectionY)
	m.inject(t, 1, 10, 20, 30)
	m.inject(t, 3, 40, 50, 60)
	report, err := z.RepairHash1Group(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if report.Hash2Attempts != 0 {
		t.Fatal("level Y must not attempt Hash-2 repair")
	}
	if len(report.Unrepaired) != 2 {
		t.Fatalf("want 2 DUE lines at Y, got %+v", report)
	}
}

func TestProtectionString(t *testing.T) {
	for p, want := range map[Protection]string{
		ProtectionX:   "SuDoku-X",
		ProtectionY:   "SuDoku-Y",
		ProtectionZ:   "SuDoku-Z",
		Protection(7): "Protection(7)",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}
