package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"spanner/internal/codec"
	"spanner/internal/graph"
)

// testArtifact builds a small deterministic artifact for tests.
func testArtifact(t testing.TB, n int, k int, seed int64) *Artifact {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ConnectedGnp(n, 12/float64(n), rng)
	a, err := Build(g, bfsSpanner(g), "test", k, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// bfsSpanner returns a small valid spanner (a BFS forest plus some extra
// edges) so the artifact's Spanner section is non-trivial.
func bfsSpanner(g *graph.Graph) *graph.EdgeSet {
	s := graph.NewEdgeSet(g.N())
	seen := make([]bool, g.N())
	for v := int32(0); int(v) < g.N(); v++ {
		if seen[v] {
			continue
		}
		_, parent := g.BFSWithParents(v)
		for u := int32(0); int(u) < g.N(); u++ {
			if parent[u] != graph.Unreachable {
				seen[u] = true
				if parent[u] != u {
					s.Add(u, parent[u])
				}
			}
		}
	}
	// A few non-tree edges exercise the subset check.
	g.ForEachEdge(func(u, v int32) {
		if (u+v)%7 == 0 {
			s.Add(u, v)
		}
	})
	return s
}

func TestMarshalRoundTrip(t *testing.T) {
	a := testArtifact(t, 150, 3, 9)
	data := a.Marshal()
	b, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.Algo != a.Algo || b.Seed != a.Seed || b.K != a.K {
		t.Fatalf("metadata changed: %+v", b)
	}
	if b.Graph.N() != a.Graph.N() || b.Graph.M() != a.Graph.M() {
		t.Fatal("graph changed")
	}
	if b.Spanner.Len() != a.Spanner.Len() {
		t.Fatal("spanner changed")
	}
	for u := int32(0); int(u) < a.Graph.N(); u += 3 {
		for v := int32(0); int(v) < a.Graph.N(); v += 5 {
			if a.Oracle.Query(u, v) != b.Oracle.Query(u, v) {
				t.Fatalf("oracle answer changed at (%d,%d)", u, v)
			}
			p1, e1 := a.Routing.Route(u, v)
			p2, e2 := b.Routing.Route(u, v)
			if (e1 == nil) != (e2 == nil) || len(p1) != len(p2) {
				t.Fatalf("route changed at (%d,%d)", u, v)
			}
			for i := range p1 {
				if p1[i] != p2[i] {
					t.Fatalf("route hop changed at (%d,%d)[%d]", u, v, i)
				}
			}
		}
	}
	// Deterministic bytes: re-marshaling the decoded artifact is identical.
	data2 := b.Marshal()
	if len(data) != len(data2) {
		t.Fatal("marshal length unstable")
	}
	for i := range data {
		if data[i] != data2[i] {
			t.Fatalf("marshal differs at byte %d", i)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	a := testArtifact(t, 80, 2, 4)
	path := filepath.Join(t.TempDir(), "build.art")
	if err := Save(path, a); err != nil {
		t.Fatal(err)
	}
	b, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Graph.M() != a.Graph.M() || b.Spanner.Len() != a.Spanner.Len() {
		t.Fatal("load changed content")
	}
	d, err := Diff(a, testArtifact(t, 80, 2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveDelta(filepath.Join(filepath.Dir(path), "patch.spandelta"), d); err != nil {
		t.Fatal(err)
	}
	// No temp droppings left behind by either save.
	matches, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".artifact-*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

func TestTypedDecodeErrors(t *testing.T) {
	a := testArtifact(t, 60, 2, 2)
	data := a.Marshal()

	if _, err := Unmarshal(data[:40]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short input: got %v, want ErrTruncated", err)
	}
	if _, err := Unmarshal(data[:len(data)-8]); err == nil {
		t.Fatal("dropped footer must error")
	}

	flip := func(off int, f func([]byte)) []byte {
		cp := append([]byte(nil), data...)
		f(cp[off:])
		return cp
	}
	if _, err := Unmarshal(flip(0, func(b []byte) { b[0] ^= 0xff })); !errors.Is(err, ErrMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	if _, err := Unmarshal(flip(8, func(b []byte) { b[0] = 99 })); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: got %v", err)
	}
	if _, err := Unmarshal(flip(len(data)/2, func(b []byte) { b[0] ^= 1 })); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped body bit: got %v", err)
	}

	// Structurally invalid content behind a recomputed (valid) checksum:
	// k is the 4-byte value after the magic, version and seed.
	if _, err := Unmarshal(reseal(data, 24, []byte{99, 0, 0, 0})); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("implausible k: got %v", err)
	}
	// A vertex count the bytes left cannot hold, resealed: n is the 4-byte
	// value after the name.
	if _, err := Unmarshal(reseal(data, 32+4*len(a.Algo), []byte{0, 0, 0, 0x40})); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("vertex count 2^30: got %v", err)
	}
	// Bytes after the routing section, resealed.
	if _, err := Unmarshal(reseal(append(slices.Clone(data[:len(data)-8]), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 0, nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: got %v", err)
	}

	if err := os.WriteFile(filepath.Join(t.TempDir(), "x"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.art")); err == nil {
		t.Fatal("missing file must error")
	}
}

// flippedEdgeKey returns a's file, resealed, with its last graph edge key
// (u,v) rewritten as (v,u): still strictly increasing, but not the
// canonical u<v form Marshal writes. The keys follow the 8-byte magic,
// version and seed, the 4-byte k, name length, name bytes and n, and the
// 8-byte edge count.
func flippedEdgeKey(a *Artifact) []byte {
	data := a.Marshal()
	last := 16 + 8 + 4 + 4 + 4*len(a.Algo) + 4 + 8 + 8*(a.Graph.M()-1)
	u, v := graph.UnpackEdgeKey(int64(binary.LittleEndian.Uint64(data[last:])))
	return reseal(data, last, binary.LittleEndian.AppendUint64(nil, uint64(int64(v)<<32|int64(u))))
}

// TestDecodeCanonical pins the canonical-decode contract the checksum memo
// relies on: a non-canonical stream behind a valid checksum is rejected,
// and a decoded artifact's Checksum is the footer it was verified against.
func TestDecodeCanonical(t *testing.T) {
	a := testArtifact(t, 60, 2, 3)
	if _, err := Unmarshal(flippedEdgeKey(a)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-canonical graph edge key: got %v, want ErrCorrupt", err)
	}
	data := a.Marshal()
	b, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Marshal(), data) {
		t.Fatal("decoded artifact re-marshals to different bytes")
	}
	want := codec.Sum(a.image())
	if b.Checksum() != want || a.Checksum() != want {
		t.Fatalf("Checksum: decoded %#x, built %#x, want %#x", b.Checksum(), a.Checksum(), want)
	}
}

// TestChecksumConcurrent calls Checksum from several goroutines on a fresh
// artifact; under -race this checks the memo, and every caller must see
// the same value.
func TestChecksumConcurrent(t *testing.T) {
	a := testArtifact(t, 80, 2, 4)
	want := codec.Sum(a.image())
	var wg sync.WaitGroup
	sums := make([]int64, 8)
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = a.Checksum()
		}()
	}
	wg.Wait()
	for i, got := range sums {
		if got != want {
			t.Fatalf("caller %d: Checksum %#x, want %#x", i, got, want)
		}
	}
}

// TestMarshalFooterIsChecksum checks that Marshal's footer is the memoized
// checksum whichever of Marshal and Checksum runs first, and that the
// order does not change the bytes.
func TestMarshalFooterIsChecksum(t *testing.T) {
	footer := func(data []byte) int64 {
		return int64(binary.LittleEndian.Uint64(data[len(data)-8:]))
	}
	before := testArtifact(t, 80, 2, 6)
	want := codec.Sum(before.image())
	if got := before.Checksum(); got != want {
		t.Fatalf("Checksum %#x, want %#x", got, want)
	}
	first := before.Marshal()
	if got := footer(first); got != want {
		t.Fatalf("footer after Checksum %#x, want %#x", got, want)
	}

	after := testArtifact(t, 80, 2, 6)
	second := after.Marshal()
	if got := footer(second); got != want {
		t.Fatalf("footer before Checksum %#x, want %#x", got, want)
	}
	if got := after.Checksum(); got != want {
		t.Fatalf("Checksum after Marshal %#x, want %#x", got, want)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("Marshal bytes depend on whether Checksum ran first")
	}
}

// reseal returns a copy of file with b written at offset off and a fresh
// checksum footer, for building adversarial-but-checksummed inputs.
func reseal(file []byte, off int, b []byte) []byte {
	body := slices.Clone(file[:len(file)-8])
	copy(body[off:], b)
	return binary.LittleEndian.AppendUint64(body, uint64(codec.Sum(body)))
}

func BenchmarkArtifactCodec(b *testing.B) {
	a := testArtifact(b, 2000, 3, 1)
	data := a.Marshal()
	b.Run("marshal", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = a.Marshal()
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Unmarshal(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
