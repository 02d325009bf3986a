// Package codec is the byte image shared by the four on-disk formats
// (artifact, delta, part and partition map, format version 2): a writer,
// a bounds-checked reader and the checksum.
//
// A format is a sequence of integer values. A value takes 4 little-endian
// bytes, sign-extended on read, unless its position in the format needs
// 64 bits — the magic and version words, edge keys, seeds, checksums, and
// lengths and counts not bounded by a vertex count — and then it takes 8. The width
// is fixed by the position, so the writer and the reader are told it at
// each call, and a format's logical value sequence (its Words) does not
// depend on it. Every file starts with its magic and version values and
// ends with 8 bytes holding Sum of everything before them.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Typed decode failures, matchable with errors.Is through any wrapping.
var (
	ErrTruncated = errors.New("artifact: truncated input")
	ErrChecksum  = errors.New("artifact: checksum mismatch")
	ErrMagic     = errors.New("artifact: bad magic (not an artifact file)")
	ErrVersion   = errors.New("artifact: unsupported format version")
)

// Writer renders a value sequence: as its byte image, or, when made by
// NewWords, as the logical values.
type Writer struct {
	buf     []byte
	words   []int64
	logical bool
}

// NewWriter returns a writer of the byte image; size is its length in
// bytes, a capacity hint.
func NewWriter(size int) *Writer { return &Writer{buf: make([]byte, 0, size)} }

// NewWords returns a writer of the logical values; size is their count, a
// capacity hint.
func NewWords(size int) *Writer { return &Writer{words: make([]int64, 0, size), logical: true} }

// Int writes a 4-byte value. A value that does not fit 32 bits is a bug in
// the format's layout, and Int panics on it.
func (w *Writer) Int(v int64) {
	if w.logical {
		w.words = append(w.words, v)
		return
	}
	if int64(int32(v)) != v {
		panic(fmt.Sprintf("codec: %d written as a 4-byte value", v))
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(v))
}

// Int64 writes an 8-byte value.
func (w *Writer) Int64(v int64) {
	if w.logical {
		w.words = append(w.words, v)
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v))
}

// Int32s writes each of vs as a 4-byte value.
func (w *Writer) Int32s(vs []int32) {
	if w.logical {
		for _, v := range vs {
			w.words = append(w.words, int64(v))
		}
		return
	}
	dst := w.grow(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
}

// Int64s writes each of vs as an 8-byte value.
func (w *Writer) Int64s(vs []int64) {
	if w.logical {
		w.words = append(w.words, vs...)
		return
	}
	dst := w.grow(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
	}
}

// grow extends the image by n bytes and returns them.
func (w *Writer) grow(n int) []byte {
	off := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:off+n]
	return w.buf[off:]
}

// Bytes returns the image written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Words returns the logical values written so far.
func (w *Writer) Words() []int64 { return w.words }

// Seal appends the checksum footer to the image and returns the file
// bytes.
func (w *Writer) Seal() []byte {
	return binary.LittleEndian.AppendUint64(w.buf, uint64(Sum(w.buf)))
}

// Reader reads the values of a byte image with bounds checking. The first
// read past the end records ErrTruncated in Err; it and every later read
// return 0, so a decoder may check Err once per section.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Open checks a file's frame and returns a reader over its body, just past
// the magic and version, with the body's checksum. The checks run in the
// order that names a fault best: magic, then version (so a file of another
// format version is ErrVersion whatever its length), then a length of at
// least minLen bytes in whole 4-byte values, then the checksum.
func Open(data []byte, magic, version int64, minLen int) (*Reader, int64, error) {
	r := NewReader(data)
	if err := r.Header(magic, version); err != nil {
		return nil, 0, err
	}
	if len(data) < minLen || len(data)%4 != 0 {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	body := data[:len(data)-8]
	sum := Sum(body)
	if sum != int64(binary.LittleEndian.Uint64(data[len(body):])) {
		return nil, 0, ErrChecksum
	}
	r.data = body
	return r, sum, nil
}

// Header reads a magic and a version value and checks them.
func (r *Reader) Header(magic, version int64) error {
	m, v := r.Int64(), r.Int64()
	switch {
	case r.err != nil:
		return r.err
	case m != magic:
		return ErrMagic
	case v != version:
		return fmt.Errorf("%w: got %d, want %d", ErrVersion, v, version)
	}
	return nil
}

// fail records truncation at the current offset and exhausts the reader.
func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: offset %d", ErrTruncated, r.off)
	}
	r.off = len(r.data)
}

// Int reads a 4-byte value.
func (r *Reader) Int() int64 {
	if b := r.data[r.off:]; len(b) >= 4 {
		r.off += 4
		return int64(int32(binary.LittleEndian.Uint32(b)))
	}
	r.fail()
	return 0
}

// Int64 reads an 8-byte value.
func (r *Reader) Int64() int64 {
	if b := r.data[r.off:]; len(b) >= 8 {
		r.off += 8
		return int64(binary.LittleEndian.Uint64(b))
	}
	r.fail()
	return 0
}

// Int32s fills dst with 4-byte values.
func (r *Reader) Int32s(dst []int32) {
	if len(r.data)-r.off < 4*len(dst) {
		r.fail()
		return
	}
	src := r.data[r.off : r.off+4*len(dst)]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
	r.off += len(src)
}

// Int64s fills dst with 8-byte values.
func (r *Reader) Int64s(dst []int64) {
	if len(r.data)-r.off < 8*len(dst) {
		r.fail()
		return
	}
	src := r.data[r.off : r.off+8*len(dst)]
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
	r.off += len(src)
}

// Count reads a 4-byte length of entries of at least size bytes each, and
// fails unless that many fit in the bytes left, so a corrupt length cannot
// make its decoder allocate more than the input could fill.
func (r *Reader) Count(size int) int { return r.count(r.Int(), size) }

// Count64 is Count for an 8-byte length.
func (r *Reader) Count64(size int) int { return r.count(r.Int64(), size) }

func (r *Reader) count(n int64, size int) int {
	if r.err != nil {
		return 0
	}
	if n < 0 || n > int64(r.Left()/size) {
		r.err = fmt.Errorf("%w: length %d at offset %d", ErrTruncated, n, r.off)
		r.off = len(r.data)
		return 0
	}
	return int(n)
}

// Skip advances past n bytes.
func (r *Reader) Skip(n int) {
	if n < 0 || n > r.Left() {
		r.fail()
		return
	}
	r.off += n
}

// Left returns the number of bytes not yet read.
func (r *Reader) Left() int { return len(r.data) - r.off }

// Rest returns the bytes not yet read, without consuming them.
func (r *Reader) Rest() []byte { return r.data[r.off:] }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// XXH64 primes.
const (
	prime1 uint64 = 0x9E3779B185EBCA87
	prime2 uint64 = 0xC2B2AE3D27D4EB4F
	prime3 uint64 = 0x165667B19E3779F9
	prime4 uint64 = 0x85EBCA77C2B2AE63
	prime5 uint64 = 0x27D4EB2F165667C5
)

// Sum is the file checksum: XXH64 with seed 0. Four lanes take the 8-byte
// blocks in turn; each step multiplies the block in, rotates and multiplies
// again, so no bit of a block reaches its lane unmixed and the lanes run in
// parallel instead of as one serial chain. The lanes and the length are
// merged and avalanched at the end.
func Sum(data []byte) int64 {
	n := len(data)
	var h uint64
	if n >= 32 {
		var seed uint64
		v1, v2, v3, v4 := seed+prime1+prime2, seed+prime2, seed, seed-prime1
		for ; len(data) >= 32; data = data[32:] {
			v1 = round(v1, binary.LittleEndian.Uint64(data[0:8]))
			v2 = round(v2, binary.LittleEndian.Uint64(data[8:16]))
			v3 = round(v3, binary.LittleEndian.Uint64(data[16:24]))
			v4 = round(v4, binary.LittleEndian.Uint64(data[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		for _, v := range [4]uint64{v1, v2, v3, v4} {
			h = (h^round(0, v))*prime1 + prime4
		}
	} else {
		h = prime5
	}
	h += uint64(n)
	for ; len(data) >= 8; data = data[8:] {
		h ^= round(0, binary.LittleEndian.Uint64(data))
		h = bits.RotateLeft64(h, 27)*prime1 + prime4
	}
	if len(data) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(data)) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		data = data[4:]
	}
	for _, b := range data {
		h ^= uint64(b) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return int64(h)
}

// round is one lane step.
func round(acc, block uint64) uint64 {
	return bits.RotateLeft64(acc+block*prime2, 31) * prime1
}
