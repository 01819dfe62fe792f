// Package bitvec provides fixed-size bit vectors used to model cache
// lines, parity lines, and code words throughout the SuDoku library.
//
// A cache line in the paper is 64 bytes (512 bits) of data plus 41 bits
// of metadata (CRC-31 + ECC-1). Vector supports arbitrary bit lengths so
// the same type backs data lines, full code words, and parity lines.
package bitvec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// WordBits is the number of bits per backing word.
const WordBits = 64

var (
	// ErrLengthMismatch is returned when two vectors of different
	// lengths are combined.
	ErrLengthMismatch = errors.New("bitvec: length mismatch")

	// ErrOutOfRange is returned when a bit index is outside the vector.
	ErrOutOfRange = errors.New("bitvec: bit index out of range")
)

// Vector is a fixed-length bit vector. The zero value is an empty
// vector; use New to create one with a given length.
type Vector struct {
	words []uint64
	nbits int
}

// New returns a zeroed vector of n bits.
func New(n int) *Vector {
	if n < 0 {
		n = 0
	}
	return &Vector{
		words: make([]uint64, (n+WordBits-1)/WordBits),
		nbits: n,
	}
}

// FromWords builds a vector of n bits from backing words. The slice is
// copied; surplus bits beyond n in the last word are masked off.
func FromWords(words []uint64, n int) *Vector {
	v := New(n)
	copy(v.words, words)
	v.maskTail()
	return v
}

// View wraps backing words as an n-bit vector WITHOUT copying: the
// returned value aliases words directly. Surplus bits beyond n in the
// last word are masked off in place. Built for the seqlock read fast
// path, which stages a codeword snapshot in a stack array and needs to
// run the (read-only) CRC check over it without allocating — the value
// return plus non-escaping callees keep the whole wrap on the caller's
// stack. The caller must not hand the view to anything that retains or
// resizes it.
func View(words []uint64, n int) Vector {
	if n < 0 {
		n = 0
	}
	if need := (n + WordBits - 1) / WordBits; len(words) > need {
		words = words[:need]
	}
	v := Vector{words: words, nbits: n}
	v.maskTail()
	return v
}

// FromBytes builds a vector of len(b)*8 bits, bit i of byte j mapping to
// vector bit j*8+i (little-endian bit order within bytes).
func FromBytes(b []byte) *Vector {
	v := New(len(b) * 8)
	// SetBytes cannot fail: the vector was sized to the slice.
	_ = v.SetBytes(b)
	return v
}

// SetBytes overwrites the whole vector from packed bytes (the
// FromBytes layout) without allocating. The slice must supply exactly
// the vector's length: len(b)*8 == Len(). Whole words load with one
// little-endian read each; only a tail shorter than a word is
// assembled byte by byte.
func (v *Vector) SetBytes(b []byte) error {
	if len(b)*8 != v.nbits {
		return fmt.Errorf("%w: %d bytes into %d bits", ErrLengthMismatch, len(b), v.nbits)
	}
	full := len(b) / 8
	for i := 0; i < full; i++ {
		v.words[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	if tail := b[8*full:]; len(tail) > 0 {
		var w uint64
		for j, by := range tail {
			w |= uint64(by) << (8 * j)
		}
		v.words[full] = w
	}
	return nil
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.nbits }

// Words returns a copy of the backing words.
func (v *Vector) Words() []uint64 {
	out := make([]uint64, len(v.words))
	copy(out, v.words)
	return out
}

// Word returns backing word i — bits [64i, 64i+64) — without copying.
// Out-of-range indices return 0, so callers can walk ceil(n/64) words
// of any vector. This is the codec hot path's view of the vector: the
// CRC and syndrome kernels consume whole words.
func (v *Vector) Word(i int) uint64 {
	if i < 0 || i >= len(v.words) {
		return 0
	}
	return v.words[i]
}

// Bytes returns the vector packed into bytes (little-endian bit order
// within bytes), rounded up to whole bytes.
func (v *Vector) Bytes() []byte {
	return v.AppendBytes(make([]byte, 0, (v.nbits+7)/8))
}

// AppendBytes appends the vector's packed bytes (little-endian bit
// order within bytes, rounded up to whole bytes) to dst and returns
// the extended slice. When dst has sufficient capacity no allocation
// occurs — the in-place form of Bytes for steady-state callers.
func (v *Vector) AppendBytes(dst []byte) []byte {
	n := (v.nbits + 7) / 8
	for j := 0; j < n; j++ {
		dst = append(dst, byte(v.words[j/8]>>(8*(j%8))))
	}
	return dst
}

// Clone returns a deep copy of the vector.
func (v *Vector) Clone() *Vector {
	return FromWords(v.words, v.nbits)
}

// Bit reports whether bit i is set. Out-of-range indices report false.
func (v *Vector) Bit(i int) bool {
	if i < 0 || i >= v.nbits {
		return false
	}
	return v.words[i/WordBits]&(1<<(i%WordBits)) != 0
}

// Set sets bit i to 1.
func (v *Vector) Set(i int) error {
	if i < 0 || i >= v.nbits {
		return fmt.Errorf("%w: %d (len %d)", ErrOutOfRange, i, v.nbits)
	}
	v.words[i/WordBits] |= 1 << (i % WordBits)
	return nil
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) error {
	if i < 0 || i >= v.nbits {
		return fmt.Errorf("%w: %d (len %d)", ErrOutOfRange, i, v.nbits)
	}
	v.words[i/WordBits] &^= 1 << (i % WordBits)
	return nil
}

// Flip inverts bit i. Fault injection and SDR trial flips use this.
func (v *Vector) Flip(i int) error {
	if i < 0 || i >= v.nbits {
		return fmt.Errorf("%w: %d (len %d)", ErrOutOfRange, i, v.nbits)
	}
	v.words[i/WordBits] ^= 1 << (i % WordBits)
	return nil
}

// SetTo sets bit i to the given value.
func (v *Vector) SetTo(i int, val bool) error {
	if val {
		return v.Set(i)
	}
	return v.Clear(i)
}

// Uint64 extracts bits [off, off+width) as an integer, bit off landing
// in bit 0 of the result. Width is clamped to [0, 64] and the read is
// truncated at the vector end (missing bits read as 0) — the
// allocation-free way to pull a metadata field (CRC, ECC check bits)
// out of a stored codeword.
func (v *Vector) Uint64(off, width int) uint64 {
	if off < 0 || off >= v.nbits || width <= 0 {
		return 0
	}
	if width > 64 {
		width = 64
	}
	if off+width > v.nbits {
		width = v.nbits - off
	}
	w := off / WordBits
	sh := uint(off % WordBits)
	x := v.words[w] >> sh
	if sh != 0 && w+1 < len(v.words) && width > WordBits-int(sh) {
		x |= v.words[w+1] << (WordBits - sh)
	}
	if width < 64 {
		x &= (uint64(1) << uint(width)) - 1
	}
	return x
}

// PutUint64 overwrites bits [off, off+width) with the low width bits
// of val, bit 0 of val landing at bit off. Width must be in [0, 64]
// and the range must lie inside the vector — the in-place counterpart
// of Uint64 used to deposit codeword metadata fields.
func (v *Vector) PutUint64(off, width int, val uint64) error {
	if width < 0 || width > 64 {
		return fmt.Errorf("%w: width %d outside [0,64]", ErrOutOfRange, width)
	}
	if off < 0 || off+width > v.nbits {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, off, off+width, v.nbits)
	}
	if width == 0 {
		return nil
	}
	if width < 64 {
		val &= (uint64(1) << uint(width)) - 1
	}
	w := off / WordBits
	sh := uint(off % WordBits)
	low := WordBits - int(sh) // bits that fit in the first word
	if low > width {
		low = width
	}
	var mask uint64
	if low == WordBits {
		mask = ^uint64(0)
	} else {
		mask = ((uint64(1) << uint(low)) - 1) << sh
	}
	v.words[w] = v.words[w]&^mask | (val<<sh)&mask
	if rest := width - low; rest > 0 {
		mask = (uint64(1) << uint(rest)) - 1
		v.words[w+1] = v.words[w+1]&^mask | (val>>uint(low))&mask
	}
	return nil
}

// Zero clears every bit.
func (v *Vector) Zero() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// IsZero reports whether no bit is set.
func (v *Vector) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits.
func (v *Vector) PopCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// XorInto xors other into v in place. RAID-4 parity maintenance is a
// stream of XorInto calls.
func (v *Vector) XorInto(other *Vector) error {
	if other.nbits != v.nbits {
		return fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, v.nbits, other.nbits)
	}
	for i := range v.words {
		v.words[i] ^= other.words[i]
	}
	return nil
}

// Xor returns a new vector equal to a XOR b.
func Xor(a, b *Vector) (*Vector, error) {
	if a.nbits != b.nbits {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, a.nbits, b.nbits)
	}
	out := a.Clone()
	for i := range out.words {
		out.words[i] ^= b.words[i]
	}
	return out, nil
}

// Equal reports whether two vectors have identical length and contents.
func (v *Vector) Equal(other *Vector) bool {
	if other == nil || v.nbits != other.nbits {
		return false
	}
	for i := range v.words {
		if v.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// SetBits returns the indices of all set bits in ascending order.
// SDR uses this to enumerate parity-mismatch candidate positions.
func (v *Vector) SetBits() []int {
	out := make([]int, 0, v.PopCount())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*WordBits+b)
			w &= w - 1
		}
	}
	return out
}

// DiffBits returns the positions where v and other differ.
func (v *Vector) DiffBits(other *Vector) ([]int, error) {
	x, err := Xor(v, other)
	if err != nil {
		return nil, err
	}
	return x.SetBits(), nil
}

// CopyFrom overwrites v with the contents of other.
func (v *Vector) CopyFrom(other *Vector) error {
	if other.nbits != v.nbits {
		return fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, v.nbits, other.nbits)
	}
	copy(v.words, other.words)
	return nil
}

// Slice returns a new vector holding bits [from, to) of v.
func (v *Vector) Slice(from, to int) (*Vector, error) {
	if from < 0 || to > v.nbits || from > to {
		return nil, fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, from, to, v.nbits)
	}
	out := New(to - from)
	// SliceInto cannot fail: out was sized to the range just validated.
	_ = v.SliceInto(from, to, out)
	return out, nil
}

// SliceInto copies bits [from, to) of v into dst, which must already
// hold exactly to-from bits — the allocation-free form of Slice for
// steady-state callers with a scratch vector.
func (v *Vector) SliceInto(from, to int, dst *Vector) error {
	if from < 0 || to > v.nbits || from > to {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, from, to, v.nbits)
	}
	if dst.nbits != to-from {
		return fmt.Errorf("%w: %d-bit destination for [%d,%d)", ErrLengthMismatch, dst.nbits, from, to)
	}
	if from%WordBits == 0 {
		// Word-aligned fast path (the hot case: extracting the data or
		// message field of a stored codeword).
		copy(dst.words, v.words[from/WordBits:])
		dst.maskTail()
		return nil
	}
	dst.Zero()
	for i := from; i < to; i++ {
		if v.Bit(i) {
			// Set cannot fail: i-from is in range by construction.
			_ = dst.Set(i - from)
		}
	}
	return nil
}

// Paste copies src into v starting at offset.
func (v *Vector) Paste(src *Vector, offset int) error {
	if offset < 0 || offset+src.nbits > v.nbits {
		return fmt.Errorf("%w: paste %d bits at %d into %d", ErrOutOfRange, src.nbits, offset, v.nbits)
	}
	if offset%WordBits == 0 {
		// Word-aligned fast path: copy whole words, merge the final
		// partial word.
		w := offset / WordBits
		full := src.nbits / WordBits
		copy(v.words[w:w+full], src.words[:full])
		if rem := src.nbits % WordBits; rem != 0 {
			mask := (uint64(1) << rem) - 1
			v.words[w+full] = v.words[w+full]&^mask | src.words[full]&mask
		}
		return nil
	}
	for i := 0; i < src.nbits; i++ {
		if err := v.SetTo(offset+i, src.Bit(i)); err != nil {
			return err
		}
	}
	return nil
}

// String renders the vector as hex (most-significant word first),
// prefixed with the bit length, e.g. "12:0x0fff".
func (v *Vector) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d:0x", v.nbits)
	for i := len(v.words) - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, "%016x", v.words[i])
	}
	return sb.String()
}

// maskTail clears bits beyond nbits in the final word.
func (v *Vector) maskTail() {
	if v.nbits%WordBits == 0 || len(v.words) == 0 {
		return
	}
	v.words[len(v.words)-1] &= (1 << (v.nbits % WordBits)) - 1
}
