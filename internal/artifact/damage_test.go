package artifact

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// typedErr reports whether err is one of the package's typed decode
// failures.
func typedErr(err error) bool {
	for _, typed := range []error{ErrTruncated, ErrChecksum, ErrMagic, ErrVersion, ErrCorrupt} {
		if errors.Is(err, typed) {
			return true
		}
	}
	return false
}

// TestChecksumRejectsDamage damages small artifact, delta, part and
// partition-map files: seeded single-bit flips, double-bit flips and torn
// prefixes must each decode to a typed error, never to a value. The double
// flips include bit 63 of two 8-byte blocks one lane stride (four blocks)
// apart, at every block: a checksum lane that only multiplied
// (lane^block)*P would let the second flip cancel the first, so the
// per-step rotation is what catches them.
func TestChecksumRejectsDamage(t *testing.T) {
	m, parts := testSplit(t, 3)
	base, next := testDeltaPair(t)
	d, err := Diff(base, next)
	if err != nil {
		t.Fatal(err)
	}
	files := []struct {
		name   string
		data   []byte
		decode func([]byte) error
	}{
		{"artifact", base.Marshal(), func(b []byte) error { _, err := Unmarshal(b); return err }},
		{"delta", d.Marshal(), func(b []byte) error { _, err := UnmarshalDelta(b); return err }},
		{"part", parts[1].Marshal(), func(b []byte) error { _, err := UnmarshalPart(b); return err }},
		{"map", m.Marshal(), func(b []byte) error { _, err := UnmarshalPartitionMap(b); return err }},
	}
	rng := rand.New(rand.NewSource(28))
	for _, f := range files {
		if err := f.decode(f.data); err != nil {
			t.Fatalf("%s: intact file: %v", f.name, err)
		}
		bits := 8 * len(f.data)
		reject := func(what string, b []byte) {
			t.Helper()
			if err := f.decode(b); err == nil {
				t.Fatalf("%s: %s decoded without error", f.name, what)
			} else if !typedErr(err) {
				t.Fatalf("%s: %s: untyped error %v", f.name, what, err)
			}
		}
		flip := func(bs ...int) []byte {
			b := slices.Clone(f.data)
			for _, i := range bs {
				b[i/8] ^= 1 << (i % 8)
			}
			return b
		}
		for i := 0; i < 300; i++ {
			bit := rng.Intn(bits)
			reject(fmt.Sprintf("flip of bit %d", bit), flip(bit))
		}
		for i := 0; i < 300; i++ {
			a, b := rng.Intn(bits), rng.Intn(bits-1)
			if b >= a {
				b++
			}
			reject(fmt.Sprintf("flips of bits %d and %d", a, b), flip(a, b))
		}
		for block := 0; 8*(block+5) <= len(f.data); block++ {
			a, b := 64*block+63, 64*(block+4)+63
			reject(fmt.Sprintf("bit-63 flips of blocks %d and %d", block, block+4), flip(a, b))
		}
		for i := 0; i < 100; i++ {
			cut := rng.Intn(len(f.data))
			reject(fmt.Sprintf("prefix of %d bytes", cut), f.data[:cut])
		}
	}
}
