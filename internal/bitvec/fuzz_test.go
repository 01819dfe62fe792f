package bitvec

import "testing"

// setBytesBytewise is the reference SetBytes: clear every word, then OR
// each byte into place one at a time.
func setBytesBytewise(v *Vector, b []byte) {
	for i := range v.words {
		v.words[i] = 0
	}
	for j, by := range b {
		v.words[j/8] |= uint64(by) << (8 * (j % 8))
	}
}

// FuzzSetBytes pins the word-wise SetBytes to the byte-wise reference
// across lengths — whole words, a partial tail word, and a tail alone —
// over a destination that starts dirty, so a word the fast path failed
// to overwrite shows.
func FuzzSetBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xff, 0x00, 0xab})
	f.Add(make([]byte, 64)) // one full line, word-aligned
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		got := New(len(data) * 8)
		for i := range got.words {
			got.words[i] = ^uint64(0)
		}
		if err := got.SetBytes(data); err != nil {
			t.Fatal(err)
		}
		want := New(len(data) * 8)
		setBytesBytewise(want, data)
		if !got.Equal(want) {
			t.Fatalf("SetBytes(%d bytes) = %v, reference %v", len(data), got, want)
		}
	})
}
