package artifact

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// testSplit fabricates a K-part split over a test artifact for codec
// tests: ownership striped by vertex id, boundary sets derived from cut
// edges, every part embedding the full artifact (a valid, if unpruned,
// part content). Semantic pruning is the partitioner's business — the
// codec only promises faithful round trips and typed failures.
func testSplit(t testing.TB, k int) (*PartitionMap, []*Part) {
	t.Helper()
	a := testArtifact(t, 60, 2, 3)
	n := a.Graph.N()
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = int32(v % k)
	}
	splitID := ComputeSplitID(a.Checksum(), k, 11)
	parts := make([]*Part, k)
	refs := make([]PartRef, k)
	for p := 0; p < k; p++ {
		owned := make([]bool, n)
		boundary := make([]bool, n)
		for v := 0; v < n; v++ {
			owned[v] = owner[v] == int32(p)
		}
		a.Graph.ForEachEdge(func(u, v int32) {
			if owner[u] == int32(p) && owner[v] != int32(p) {
				boundary[v] = true
			}
			if owner[v] == int32(p) && owner[u] != int32(p) {
				boundary[u] = true
			}
		})
		for v := 0; v < n; v++ {
			if owned[v] {
				boundary[v] = false
			}
		}
		parts[p] = &Part{ID: p, K: k, SplitID: splitID, Owned: owned, Boundary: boundary, Art: a}
		verts := 0
		for v := 0; v < n; v++ {
			if owned[v] {
				verts++
			}
		}
		refs[p] = PartRef{ID: p, Checksum: parts[p].Checksum(), Path: fmt.Sprintf("x.part%d", p), Vertices: verts}
	}
	m := &PartitionMap{K: k, SplitID: splitID, BaseChecksum: a.Checksum(), N: n, Owner: owner, Parts: refs}
	return m, parts
}

func TestPartRoundTrip(t *testing.T) {
	_, parts := testSplit(t, 3)
	p := parts[1]
	data := p.Marshal()
	q, err := UnmarshalPart(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != p.ID || q.K != p.K || q.SplitID != p.SplitID {
		t.Fatalf("identity changed: %+v", q)
	}
	for v := 0; v < len(p.Owned); v++ {
		if q.Owned[v] != p.Owned[v] || q.Boundary[v] != p.Boundary[v] {
			t.Fatalf("vertex set changed at %d", v)
		}
	}
	if q.Art.Graph.N() != p.Art.Graph.N() || q.Art.Graph.M() != p.Art.Graph.M() ||
		q.Art.Spanner.Len() != p.Art.Spanner.Len() {
		t.Fatal("embedded artifact changed")
	}
	for u := int32(0); int(u) < p.Art.Graph.N(); u += 3 {
		for v := int32(0); int(v) < p.Art.Graph.N(); v += 5 {
			if p.Art.Oracle.Query(u, v) != q.Art.Oracle.Query(u, v) {
				t.Fatalf("oracle answer changed at (%d,%d)", u, v)
			}
		}
	}
	if q.Checksum() != p.Checksum() {
		t.Fatal("checksum unstable across round trip")
	}
	data2 := q.Marshal()
	if len(data) != len(data2) {
		t.Fatal("marshal length unstable")
	}
	for i := range data {
		if data[i] != data2[i] {
			t.Fatalf("marshal differs at byte %d", i)
		}
	}
}

// TestPartEmbeddedChecksum: a decoded part's artifact carries the source
// artifact's checksum. The decoder takes it from one hash of the embedded
// words; the source computed its own by streaming its encoder.
func TestPartEmbeddedChecksum(t *testing.T) {
	_, parts := testSplit(t, 3)
	for _, p := range parts {
		q, err := UnmarshalPart(p.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := q.Art.Checksum(), p.Art.Checksum(); got != want {
			t.Fatalf("part %d: embedded artifact checksum %#x, source %#x", p.ID, got, want)
		}
		if got, want := q.Art.Checksum(), streamSum(q.Art.encode); got != want {
			t.Fatalf("part %d: decoded checksum %#x, re-encoded %#x", p.ID, got, want)
		}
	}
}

func TestPartitionMapRoundTrip(t *testing.T) {
	m, _ := testSplit(t, 3)
	data := m.Marshal()
	d, err := UnmarshalPartitionMap(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.K != m.K || d.SplitID != m.SplitID || d.BaseChecksum != m.BaseChecksum || d.N != m.N {
		t.Fatalf("metadata changed: %+v", d)
	}
	for v := 0; v < m.N; v++ {
		if d.Owner[v] != m.Owner[v] {
			t.Fatalf("owner changed at vertex %d", v)
		}
	}
	for i, ref := range m.Parts {
		if d.Parts[i] != ref {
			t.Fatalf("part ref %d changed: %+v vs %+v", i, d.Parts[i], ref)
		}
	}
	data2 := d.Marshal()
	for i := range data {
		if data[i] != data2[i] {
			t.Fatalf("marshal differs at byte %d", i)
		}
	}
}

func TestPartitionMapDecodeFailures(t *testing.T) {
	m, _ := testSplit(t, 3)
	data := m.Marshal()

	// Truncation at every interesting depth decodes to a typed error.
	for _, cut := range []int{0, 8, 16, 40, len(data) / 2, len(data) - 8} {
		_, err := UnmarshalPartitionMap(data[:cut])
		if err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
		typedOK := false
		for _, typed := range []error{ErrTruncated, ErrChecksum, ErrMagic, ErrVersion, ErrCorrupt} {
			if errors.Is(err, typed) {
				typedOK = true
				break
			}
		}
		if !typedOK {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}

	flip := func(off int) []byte {
		cp := append([]byte(nil), data...)
		cp[off] ^= 1
		return cp
	}
	if _, err := UnmarshalPartitionMap(flip(0)); !errors.Is(err, ErrMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	if _, err := UnmarshalPartitionMap(flip(8)); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: got %v", err)
	}
	if _, err := UnmarshalPartitionMap(flip(len(data) / 2)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped body bit: got %v", err)
	}

	// Duplicate partition id behind a valid checksum.
	dup := &PartitionMap{K: m.K, SplitID: m.SplitID, BaseChecksum: m.BaseChecksum, N: m.N,
		Owner: m.Owner, Parts: append([]PartRef(nil), m.Parts...)}
	dup.Parts[2].ID = dup.Parts[0].ID
	if _, err := UnmarshalPartitionMap(dup.Marshal()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate partition id: got %v", err)
	}

	// Owner id out of range behind a valid checksum.
	bad := &PartitionMap{K: m.K, SplitID: m.SplitID, BaseChecksum: m.BaseChecksum, N: m.N,
		Owner: append([]int32(nil), m.Owner...), Parts: m.Parts}
	bad.Owner[5] = int32(m.K)
	if _, err := UnmarshalPartitionMap(bad.Marshal()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("owner out of range: got %v", err)
	}

	// Part-ref count not matching K.
	short := &PartitionMap{K: m.K, SplitID: m.SplitID, BaseChecksum: m.BaseChecksum, N: m.N,
		Owner: m.Owner, Parts: m.Parts[:2]}
	if _, err := UnmarshalPartitionMap(short.Marshal()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing part ref: got %v", err)
	}
}

func TestPartDecodeFailures(t *testing.T) {
	_, parts := testSplit(t, 3)
	p := parts[0]
	data := p.Marshal()

	if _, err := UnmarshalPart(data[:48]); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
		t.Fatalf("short part: got %v", err)
	}
	flip := func(off int) []byte {
		cp := append([]byte(nil), data...)
		cp[off] ^= 1
		return cp
	}
	if _, err := UnmarshalPart(flip(0)); !errors.Is(err, ErrMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	if _, err := UnmarshalPart(flip(8)); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: got %v", err)
	}
	if _, err := UnmarshalPart(flip(len(data) / 2)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped body bit: got %v", err)
	}

	// A vertex both owned and boundary, behind a valid checksum.
	n := len(p.Owned)
	overlap := &Part{ID: p.ID, K: p.K, SplitID: p.SplitID,
		Owned: append([]bool(nil), p.Owned...), Boundary: append([]bool(nil), p.Boundary...), Art: p.Art}
	for v := 0; v < n; v++ {
		if overlap.Owned[v] {
			overlap.Boundary[v] = true
			break
		}
	}
	if _, err := UnmarshalPart(overlap.Marshal()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("owned∩boundary overlap: got %v", err)
	}

	// An owned vertex beyond the embedded artifact's n.
	long := &Part{ID: p.ID, K: p.K, SplitID: p.SplitID,
		Owned: append(append([]bool(nil), p.Owned...), false, true), Boundary: p.Boundary, Art: p.Art}
	if _, err := UnmarshalPart(long.Marshal()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("owned vertex beyond n: got %v", err)
	}

	// Partition id outside [0,K).
	badID := &Part{ID: 7, K: 3, SplitID: p.SplitID, Owned: p.Owned, Boundary: p.Boundary, Art: p.Art}
	if _, err := UnmarshalPart(badID.Marshal()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("id out of range: got %v", err)
	}
}

func TestPartitionMapVerify(t *testing.T) {
	m, parts := testSplit(t, 3)
	for _, p := range parts {
		if err := m.Verify(p); err != nil {
			t.Fatalf("valid part %d rejected: %v", p.ID, err)
		}
	}

	// Content drift: same identity, different bytes.
	drift := &Part{ID: 1, K: 3, SplitID: m.SplitID,
		Owned: append([]bool(nil), parts[1].Owned...), Boundary: parts[1].Boundary, Art: parts[1].Art}
	for v, o := range drift.Owned {
		if !o && !drift.Boundary[v] {
			drift.Owned[v] = true
			break
		}
	}
	if err := m.Verify(drift); !errors.Is(err, ErrPartChecksum) {
		t.Fatalf("drifted part: got %v, want ErrPartChecksum", err)
	}

	// Foreign split.
	foreign := &Part{ID: 1, K: 3, SplitID: m.SplitID + 1, Owned: parts[1].Owned, Boundary: parts[1].Boundary, Art: parts[1].Art}
	if err := m.Verify(foreign); !errors.Is(err, ErrSplitMismatch) {
		t.Fatalf("foreign split: got %v, want ErrSplitMismatch", err)
	}
	wrongK := &Part{ID: 1, K: 4, SplitID: m.SplitID, Owned: parts[1].Owned, Boundary: parts[1].Boundary, Art: parts[1].Art}
	if err := m.Verify(wrongK); !errors.Is(err, ErrSplitMismatch) {
		t.Fatalf("wrong K: got %v, want ErrSplitMismatch", err)
	}
}

func TestPartSaveLoad(t *testing.T) {
	m, parts := testSplit(t, 3)
	dir := t.TempDir()
	mp := filepath.Join(dir, "split.map")
	if err := SavePartitionMap(mp, m); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadPartitionMap(mp)
	if err != nil {
		t.Fatal(err)
	}
	if m2.SplitID != m.SplitID {
		t.Fatal("map changed across save/load")
	}
	pp := filepath.Join(dir, "split.part1")
	if err := SavePart(pp, parts[1]); err != nil {
		t.Fatal(err)
	}
	p2, err := LoadPart(pp)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Verify(p2); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, ".artifact-*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}
