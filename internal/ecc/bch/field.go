// Package bch implements binary BCH codes over GF(2^m): encoding,
// syndrome computation, Berlekamp–Massey, and Chien search.
//
// The SuDoku paper compares against per-line multi-bit ECC (ECC-2 …
// ECC-6). Those baselines are realized here as shortened binary BCH
// codes with n = 2^m − 1 and correction capability t, carrying 10·t
// parity bits per 512-bit line for m = 10 — exactly the "60 bits per
// line for ECC-6" storage the paper reports.
//
// The package also exports the generator-polynomial construction used
// to build the CRC-31 detection code: the product of the minimal
// polynomials of α, α³, α⁵ over GF(2¹⁰), times (x+1), is a degree-31
// generator whose cyclic code has designed distance 8 — i.e. it is
// guaranteed to detect any pattern of up to 7 bit errors in codewords
// up to 1023 bits, covering SuDoku's 543-bit line codewords.
package bch

import (
	"errors"
	"fmt"
)

// ErrUnsupportedField is returned for field sizes without a registered
// primitive polynomial.
var ErrUnsupportedField = errors.New("bch: unsupported field size")

// primitivePolys maps m to a primitive polynomial of degree m over
// GF(2), including the leading term (bit m set).
var primitivePolys = map[int]uint32{
	3:  0x0b,   // x^3 + x + 1
	4:  0x13,   // x^4 + x + 1
	5:  0x25,   // x^5 + x^2 + 1
	6:  0x43,   // x^6 + x + 1
	7:  0x89,   // x^7 + x^3 + 1
	8:  0x11d,  // x^8 + x^4 + x^3 + x^2 + 1
	9:  0x211,  // x^9 + x^4 + 1
	10: 0x409,  // x^10 + x^3 + 1
	11: 0x805,  // x^11 + x^2 + 1
	12: 0x1053, // x^12 + x^6 + x^4 + x + 1
	13: 0x201b, // x^13 + x^4 + x^3 + x + 1
	14: 0x4443, // x^14 + x^10 + x^6 + x + 1
}

// Field is the finite field GF(2^m) with exp/log tables for fast
// multiplication. Elements are represented as uint32 bit vectors of the
// polynomial basis.
type Field struct {
	m   int
	n   int // 2^m - 1, multiplicative group order
	exp []uint32
	log []int
}

// NewField constructs GF(2^m) for 3 ≤ m ≤ 14.
func NewField(m int) (*Field, error) {
	poly, ok := primitivePolys[m]
	if !ok {
		return nil, fmt.Errorf("%w: m=%d", ErrUnsupportedField, m)
	}
	n := (1 << m) - 1
	f := &Field{
		m:   m,
		n:   n,
		exp: make([]uint32, 2*n),
		log: make([]int, n+1),
	}
	x := uint32(1)
	for i := 0; i < n; i++ {
		f.exp[i] = x
		f.exp[i+n] = x // duplicated so Mul can skip a mod
		f.log[x] = i
		x <<= 1
		if x&(1<<m) != 0 {
			x ^= poly
		}
	}
	f.log[0] = -1
	return f, nil
}

// M returns the field extension degree m.
func (f *Field) M() int { return f.m }

// N returns the multiplicative group order 2^m − 1 (the natural BCH
// code length).
func (f *Field) N() int { return f.n }

// Mul multiplies two field elements.
func (f *Field) Mul(a, b uint32) uint32 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Inv returns the multiplicative inverse of a nonzero element.
func (f *Field) Inv(a uint32) (uint32, error) {
	if a == 0 {
		return 0, errors.New("bch: inverse of zero")
	}
	return f.exp[f.n-f.log[a]], nil
}

// Div returns a/b for nonzero b.
func (f *Field) Div(a, b uint32) (uint32, error) {
	if b == 0 {
		return 0, errors.New("bch: division by zero")
	}
	if a == 0 {
		return 0, nil
	}
	return f.exp[(f.log[a]-f.log[b]+f.n)%f.n], nil
}

// Exp returns α^i (i may be any integer; it is reduced mod n).
func (f *Field) Exp(i int) uint32 {
	i %= f.n
	if i < 0 {
		i += f.n
	}
	return f.exp[i]
}

// Log returns the discrete log of a nonzero element, or -1 for zero.
func (f *Field) Log(a uint32) int {
	if a == 0 || int(a) > f.n {
		return -1
	}
	return f.log[a]
}

// MinimalPoly returns the minimal polynomial of α^i over GF(2) as a
// uint64 bit vector (bit j = coefficient of x^j) plus its degree.
// It multiplies (x − α^(i·2^j)) over the cyclotomic coset of i and
// checks that every coefficient lands in GF(2).
func (f *Field) MinimalPoly(i int) (uint64, int, error) {
	// Collect the cyclotomic coset {i·2^j mod n}.
	coset := []int{}
	seen := map[int]bool{}
	for c := i % f.n; !seen[c]; c = (c * 2) % f.n {
		seen[c] = true
		coset = append(coset, c)
	}
	// poly holds coefficients in GF(2^m); poly[j] is the x^j coeff.
	poly := []uint32{1}
	for _, c := range coset {
		root := f.Exp(c)
		next := make([]uint32, len(poly)+1)
		for j, pc := range poly {
			next[j+1] ^= pc            // x * poly
			next[j] ^= f.Mul(pc, root) // root * poly
		}
		poly = next
	}
	var bits uint64
	for j, pc := range poly {
		switch pc {
		case 0:
		case 1:
			if j >= 64 {
				return 0, 0, errors.New("bch: minimal polynomial degree exceeds 63")
			}
			bits |= 1 << j
		default:
			return 0, 0, fmt.Errorf("bch: minimal polynomial coefficient %#x not in GF(2)", pc)
		}
	}
	return bits, len(poly) - 1, nil
}
