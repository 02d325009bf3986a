package artifact

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzArtifactDecode asserts the decode contract: Unmarshal never panics,
// every failure is one of the package's typed errors, and decoding is
// canonical — every accepted input re-marshals to exactly its own bytes.
// Seeds include a valid artifact (so the fuzzer starts deep inside the
// format), every prefix-truncation class, version/magic skew, and a
// resealed non-canonical graph edge key.
func FuzzArtifactDecode(f *testing.F) {
	a := testArtifact(f, 40, 2, 1)
	valid := a.Marshal()
	f.Add(valid)
	f.Add(valid[:len(valid)-8]) // footer gone
	f.Add(valid[:len(valid)/2]) // body truncated
	f.Add(valid[:16])           // header only
	f.Add([]byte{})
	skew := append([]byte(nil), valid...)
	skew[8] = 0x7f // version word
	f.Add(skew)
	junk := append([]byte(nil), valid...)
	junk[0] ^= 0xff // magic word
	f.Add(junk)
	f.Add(flippedEdgeKey(a))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Unmarshal(data)
		if err == nil {
			if b == nil || b.Graph == nil || b.Spanner == nil || b.Oracle == nil || b.Routing == nil {
				t.Fatal("nil-field artifact decoded without error")
			}
			if !bytes.Equal(b.Marshal(), data) {
				t.Fatal("decoded artifact re-marshals to different bytes")
			}
			return
		}
		for _, typed := range []error{ErrTruncated, ErrChecksum, ErrMagic, ErrVersion, ErrCorrupt} {
			if errors.Is(err, typed) {
				return
			}
		}
		t.Fatalf("untyped decode error: %v", err)
	})
}

// FuzzPartitionMapDecode asserts the decode contract for the partition map
// codec: UnmarshalPartitionMap never panics, and every failure is a typed
// error. Seeds cover a valid map, truncation classes, magic/version skew,
// and the structural failure modes (duplicate partition id, owner out of
// range) resealed behind valid checksums.
func FuzzPartitionMapDecode(f *testing.F) {
	m, _ := testSplit(f, 3)
	valid := m.Marshal()
	f.Add(valid)
	f.Add(valid[:len(valid)-8]) // footer gone
	f.Add(valid[:len(valid)/2]) // body truncated
	f.Add(valid[:16])           // header only
	f.Add([]byte{})
	skew := append([]byte(nil), valid...)
	skew[8] = 0x7f // version word
	f.Add(skew)
	junk := append([]byte(nil), valid...)
	junk[0] ^= 0xff // magic word
	f.Add(junk)
	dup := &PartitionMap{K: m.K, SplitID: m.SplitID, BaseChecksum: m.BaseChecksum, N: m.N,
		Owner: m.Owner, Parts: append([]PartRef(nil), m.Parts...)}
	dup.Parts[1].ID = dup.Parts[0].ID
	f.Add(dup.Marshal())
	bad := &PartitionMap{K: m.K, SplitID: m.SplitID, BaseChecksum: m.BaseChecksum, N: m.N,
		Owner: append([]int32(nil), m.Owner...), Parts: m.Parts}
	bad.Owner[0] = int32(m.K)
	f.Add(bad.Marshal())

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := UnmarshalPartitionMap(data)
		if err == nil {
			if d == nil || len(d.Owner) != d.N || len(d.Parts) != d.K {
				t.Fatal("inconsistent partition map decoded without error")
			}
			// A successfully decoded map must re-marshal byte-identically.
			if len(data) != len(d.Marshal()) {
				t.Fatal("decoded map re-marshals to a different length")
			}
			return
		}
		for _, typed := range []error{ErrTruncated, ErrChecksum, ErrMagic, ErrVersion, ErrCorrupt} {
			if errors.Is(err, typed) {
				return
			}
		}
		t.Fatalf("untyped partition-map decode error: %v", err)
	})
}

// FuzzPartDecode asserts the decode contract for the part codec, including
// the embedded-artifact section: UnmarshalPart never panics and every
// failure is typed.
func FuzzPartDecode(f *testing.F) {
	_, parts := testSplit(f, 3)
	valid := parts[0].Marshal()
	f.Add(valid)
	f.Add(valid[:len(valid)-8])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:16])
	f.Add([]byte{})
	skew := append([]byte(nil), valid...)
	skew[8] = 0x7f
	f.Add(skew)
	junk := append([]byte(nil), valid...)
	junk[0] ^= 0xff
	f.Add(junk)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPart(data)
		if err == nil {
			if p == nil || p.Art == nil || p.Art.Graph == nil || p.Art.Oracle == nil {
				t.Fatal("nil-field part decoded without error")
			}
			if len(p.Marshal()) == 0 {
				t.Fatal("decoded part re-marshals to nothing")
			}
			return
		}
		for _, typed := range []error{ErrTruncated, ErrChecksum, ErrMagic, ErrVersion, ErrCorrupt} {
			if errors.Is(err, typed) {
				return
			}
		}
		t.Fatalf("untyped part decode error: %v", err)
	})
}

// FuzzDeltaDecode asserts the same decode contract for the delta codec:
// UnmarshalDelta never panics, and every failure is a typed error. Seeds
// cover a real diff, truncation classes, and magic/version skew.
func FuzzDeltaDecode(f *testing.F) {
	base, next := testDeltaPair(f)
	d, err := Diff(base, next)
	if err != nil {
		f.Fatal(err)
	}
	valid := d.Marshal()
	f.Add(valid)
	f.Add(valid[:len(valid)-8]) // footer gone
	f.Add(valid[:len(valid)/2]) // body truncated
	f.Add(valid[:16])           // header only
	f.Add([]byte{})
	skew := append([]byte(nil), valid...)
	skew[8] = 0x7f // version word
	f.Add(skew)
	junk := append([]byte(nil), valid...)
	junk[0] ^= 0xff // magic word
	f.Add(junk)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := UnmarshalDelta(data)
		if err == nil {
			if d == nil {
				t.Fatal("nil delta decoded without error")
			}
			// A successfully decoded delta must re-marshal byte-identically.
			if len(data) != len(d.Marshal()) {
				t.Fatal("decoded delta re-marshals to a different length")
			}
			return
		}
		for _, typed := range []error{ErrTruncated, ErrChecksum, ErrMagic, ErrVersion, ErrCorrupt} {
			if errors.Is(err, typed) {
				return
			}
		}
		t.Fatalf("untyped delta decode error: %v", err)
	})
}
