package core

import (
	"errors"
	"fmt"
	"math/bits"

	"sudoku/internal/bitvec"
)

// Protection selects which SuDoku variant performs multi-bit repair.
type Protection int

const (
	// ProtectionX is the base design (§III): ECC-1 + CRC-31 per line,
	// RAID-4 repair of a single uncorrectable line per group.
	ProtectionX Protection = iota + 1
	// ProtectionY adds Sequential Data Resurrection (§IV).
	ProtectionY
	// ProtectionZ adds the second, skew-hashed set of RAID groups
	// (§V).
	ProtectionZ
)

// String implements fmt.Stringer.
func (p Protection) String() string {
	switch p {
	case ProtectionX:
		return "SuDoku-X"
	case ProtectionY:
		return "SuDoku-Y"
	case ProtectionZ:
		return "SuDoku-Z"
	default:
		return fmt.Sprintf("Protection(%d)", int(p))
	}
}

// DefaultGroupSize is the paper's RAID-group size (512 lines, §III-D).
const DefaultGroupSize = 512

// DefaultNumLines is the number of 64-byte lines in the paper's 64 MB
// cache.
const DefaultNumLines = 1 << 20

// Params fixes the geometry of a SuDoku-protected cache.
type Params struct {
	// NumLines is the number of cache lines (a power of two).
	NumLines int
	// GroupSize is the number of lines per RAID group (a power of
	// two; 512 by default).
	GroupSize int
}

// DefaultParams returns the paper's 64 MB / 512-line-group geometry.
func DefaultParams() Params {
	return Params{NumLines: DefaultNumLines, GroupSize: DefaultGroupSize}
}

// Validate checks the geometry. Skewed hashing (SuDoku-Z) requires
// NumLines ≥ GroupSize² so lines sharing a Hash-1 group never share a
// Hash-2 group.
func (p Params) Validate() error {
	if p.NumLines <= 0 || bits.OnesCount(uint(p.NumLines)) != 1 {
		return fmt.Errorf("core: NumLines %d must be a positive power of two", p.NumLines)
	}
	if p.GroupSize <= 1 || bits.OnesCount(uint(p.GroupSize)) != 1 {
		return fmt.Errorf("core: GroupSize %d must be a power of two > 1", p.GroupSize)
	}
	if p.NumLines < p.GroupSize*p.GroupSize {
		return fmt.Errorf("core: NumLines %d < GroupSize² %d: skewed hashes cannot be disjoint",
			p.NumLines, p.GroupSize*p.GroupSize)
	}
	return nil
}

// NumGroups returns the number of RAID groups under either hash.
func (p Params) NumGroups() int { return p.NumLines / p.GroupSize }

func (p Params) lg() int { return bits.TrailingZeros(uint(p.GroupSize)) }

// Hash1Of maps a line address to its Hash-1 group: consecutive runs of
// GroupSize lines (mask out addr[8:0] for the default geometry, §V-A).
func (p Params) Hash1Of(line int) int { return line >> p.lg() }

// Hash2Of maps a line address to its Hash-2 group: the group id keeps
// addr[8:0] and the bits above addr[17:9] (default geometry), so two
// lines in the same Hash-1 group — identical except in addr[8:0] —
// always land in different Hash-2 groups.
func (p Params) Hash2Of(line int) int {
	lg := p.lg()
	return (line>>(2*lg))<<lg | (line & (p.GroupSize - 1))
}

// Hash1Members lists the line addresses of a Hash-1 group in ascending
// order.
func (p Params) Hash1Members(group int) []int {
	out := make([]int, p.GroupSize)
	base := group << p.lg()
	for i := range out {
		out[i] = base + i
	}
	return out
}

// Hash2Members lists the line addresses of a Hash-2 group: stride
// GroupSize within a GroupSize²-line super-block.
func (p Params) Hash2Members(group int) []int {
	lg := p.lg()
	super := group >> lg             // which super-block
	low := group & (p.GroupSize - 1) // shared addr[8:0]
	out := make([]int, p.GroupSize)
	base := super<<(2*lg) | low
	for i := range out {
		out[i] = base + i<<lg
	}
	return out
}

// PLT is a Parity Line Table: one parity codeword per RAID group,
// modelling the paper's SRAM structure (128 KB per table for the
// default geometry). Parity covers the full stored codeword (data,
// CRC, and ECC bits), so RAID-4 reconstruction restores line metadata
// too.
//
// PLT is not safe for concurrent mutation; the cache layer serializes
// access per bank.
type PLT struct {
	parities []*bitvec.Vector
	lineBits int
}

// NewPLT allocates a zeroed PLT for numGroups parity lines of
// lineBits each. A zero parity table is consistent with an all-zero
// cache (the zero codeword is valid: CRC(0)=0, ECC(0)=0).
func NewPLT(numGroups, lineBits int) (*PLT, error) {
	if numGroups <= 0 || lineBits <= 0 {
		return nil, errors.New("core: PLT dimensions must be positive")
	}
	t := &PLT{
		parities: make([]*bitvec.Vector, numGroups),
		lineBits: lineBits,
	}
	for i := range t.parities {
		t.parities[i] = bitvec.New(lineBits)
	}
	return t, nil
}

// NumGroups returns the number of parity lines.
func (t *PLT) NumGroups() int { return len(t.parities) }

// Parity returns the mutable parity vector of a group.
func (t *PLT) Parity(group int) (*bitvec.Vector, error) {
	if group < 0 || group >= len(t.parities) {
		return nil, fmt.Errorf("core: PLT group %d out of range [0,%d)", group, len(t.parities))
	}
	return t.parities[group], nil
}

// Update applies a write to the PLT (§III-B): the second
// read-modify-write flips exactly the parity bits at the positions the
// line write modified, supplied as delta = old ⊕ new.
func (t *PLT) Update(group int, delta *bitvec.Vector) error {
	par, err := t.Parity(group)
	if err != nil {
		return err
	}
	return par.XorInto(delta)
}

// StorageBytes returns the SRAM footprint of the table.
func (t *PLT) StorageBytes() int {
	return len(t.parities) * (t.lineBits + 7) / 8
}
