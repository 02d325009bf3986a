package codec

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// TestSumVectors pins Sum to published XXH64 (seed 0) values, one below
// the 32-byte lane threshold and one above it with an 8-byte, a 4-byte
// and a 3-byte tail.
func TestSumVectors(t *testing.T) {
	for _, c := range []struct {
		data string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"hello, world", 0xb33a384e6d1b1242},
		{"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789$", 0x1032d841e824f998},
	} {
		if got := uint64(Sum([]byte(c.data))); got != c.want {
			t.Errorf("Sum(%q) = %#x, want %#x", c.data, got, c.want)
		}
	}
}

// TestSumCatchesLaneStridePair flips bit 63 of two 8-byte blocks one lane
// stride apart. In a lane that only computes (lane^block)*P the first flip
// leaves just bit 63 of the lane changed and the second cancels it; Sum's
// per-step rotation moves the first difference away before the second
// block arrives.
func TestSumCatchesLaneStridePair(t *testing.T) {
	plain := func(data []byte) uint64 {
		var lanes [4]uint64
		for i := 0; i+8 <= len(data); i += 8 {
			l := &lanes[i/8%4]
			*l = (*l ^ binary.LittleEndian.Uint64(data[i:])) * prime1
		}
		return lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3]
	}
	data := make([]byte, 256)
	rand.New(rand.NewSource(1)).Read(data)
	for block := 0; block+4 < len(data)/8; block++ {
		flipped := slices.Clone(data)
		flipped[8*block+7] ^= 0x80
		flipped[8*(block+4)+7] ^= 0x80
		if plain(flipped) != plain(data) {
			t.Fatalf("block %d: the multiply-only lane was expected to miss the pair", block)
		}
		if Sum(flipped) == Sum(data) {
			t.Fatalf("block %d: Sum missed bit-63 flips one lane stride apart", block)
		}
	}
}

// TestWriterReaderRoundTrip writes mixed-width values, including the
// extremes of each width, and reads them back; the logical writer sees the
// same values.
func TestWriterReaderRoundTrip(t *testing.T) {
	vals := []int64{0, -1, 1<<31 - 1, -1 << 31, 1 << 40, -1 << 63, 1<<63 - 1, 7}
	wide := []bool{false, false, false, false, true, true, true, false}
	img, logical := NewWriter(0), NewWords(0)
	for _, w := range []*Writer{img, logical} {
		for i, v := range vals {
			if wide[i] {
				w.Int64(v)
			} else {
				w.Int(v)
			}
		}
		w.Int32s([]int32{3, -4})
		w.Int64s([]int64{5, -6})
	}
	want := append(slices.Clone(vals), 3, -4, 5, -6)
	if !slices.Equal(logical.Words(), want) {
		t.Fatalf("logical values %v, want %v", logical.Words(), want)
	}
	if got := len(img.Bytes()); got != 4*7+8*5 {
		t.Fatalf("image is %d bytes, want %d", got, 4*7+8*5)
	}
	r := NewReader(img.Bytes())
	for i, v := range vals {
		var got int64
		if wide[i] {
			got = r.Int64()
		} else {
			got = r.Int()
		}
		if got != v {
			t.Fatalf("value %d: read %d, want %d", i, got, v)
		}
	}
	small, big := make([]int32, 2), make([]int64, 2)
	r.Int32s(small)
	r.Int64s(big)
	if r.Err() != nil || small[0] != 3 || small[1] != -4 || big[0] != 5 || big[1] != -6 || r.Left() != 0 {
		t.Fatalf("bulk read %v %v, left %d, err %v", small, big, r.Left(), r.Err())
	}
	if r.Int(); !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("read past the end: %v, want ErrTruncated", r.Err())
	}
}

// TestOpenOrder checks Open's typed failures: a short file, wrong magic,
// wrong version at any length, a ragged or short length and a bad footer.
func TestOpenOrder(t *testing.T) {
	w := NewWriter(0)
	w.Int64(11)
	w.Int64(2)
	w.Int(5)
	file := w.Seal()
	if r, sum, err := Open(file, 11, 2, len(file)); err != nil || r.Int() != 5 || r.Left() != 0 || sum != Sum(file[:len(file)-8]) {
		t.Fatalf("Open of a sealed file: %v", err)
	}
	old := slices.Clone(file[:16])
	old[8] = 1
	for name, c := range map[string]struct {
		data []byte
		want error
	}{
		"header only":    {file[:12], ErrTruncated},
		"magic":          {append([]byte{12}, file[1:]...), ErrMagic},
		"short version":  {old, ErrVersion},
		"below minimum":  {file[:len(file)-4], ErrTruncated},
		"ragged":         {append(slices.Clone(file), 0), ErrTruncated},
		"flipped footer": {append(slices.Clone(file[:len(file)-1]), file[len(file)-1]^1), ErrChecksum},
	} {
		min := len(file)
		if name == "ragged" {
			min = 0
		}
		if _, _, err := Open(c.data, 11, 2, min); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", name, err, c.want)
		}
	}
}

// TestCountBounds checks that a length the bytes left cannot hold fails
// as truncation instead of being returned.
func TestCountBounds(t *testing.T) {
	w := NewWriter(0)
	w.Int(3)
	w.Int64s([]int64{1, 2})
	if n := NewReader(w.Bytes()).Count(8); n != 0 {
		t.Fatalf("Count accepted %d entries of 8 bytes in 16", n)
	}
	r := NewReader(w.Bytes())
	if n := r.Count(4); n != 3 || r.Err() != nil {
		t.Fatalf("Count = %d, %v; want 3", n, r.Err())
	}
	r.Skip(r.Left() + 1)
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Skip past the end: %v", r.Err())
	}
}

func BenchmarkSum(b *testing.B) {
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Sum(data)
	}
}
