package oracle

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"spanner/internal/codec"
	"spanner/internal/graph"
)

// imageOf renders an oracle section's logical values as its image: 4 bytes
// each, except the spanner's length and keys (the last keys+1 values).
func imageOf(words []int64, keys int) []byte {
	w := codec.NewWriter(0)
	for i, v := range words {
		if i >= len(words)-keys-1 {
			w.Int64(v)
		} else {
			w.Int(int64(int32(v)))
		}
	}
	return w.Bytes()
}

// image encodes o's section.
func image(o *Oracle) []byte {
	w := codec.NewWriter(o.ImageLen())
	o.Encode(w)
	return w.Bytes()
}

// decodeImage decodes a section image over g; bytes the section leaves
// unread are an error.
func decodeImage(g *graph.Graph, img []byte) (*Oracle, error) {
	r := codec.NewReader(img)
	o, err := Decode(g, r)
	if err == nil && r.Left() != 0 {
		err = fmt.Errorf("%d trailing bytes", r.Left())
	}
	return o, err
}

func TestCodecRoundTripIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 2, 3} {
		g := graph.ConnectedGnp(120, 0.06, rng)
		o, err := New(g, k, 7)
		if err != nil {
			t.Fatal(err)
		}
		words, img := o.Words(), image(o)
		if got := imageOf(words, len(o.spanner)); string(got) != string(img) {
			t.Fatalf("k=%d: image is not the values at their widths", k)
		}
		o2, err := decodeImage(g, img)
		if err != nil {
			t.Fatalf("k=%d: decode: %v", k, err)
		}
		if o2.K() != o.K() || o2.Size() != o.Size() {
			t.Fatalf("k=%d: K/Size changed: %d/%d vs %d/%d", k, o2.K(), o2.Size(), o.K(), o.Size())
		}
		for u := int32(0); int(u) < g.N(); u++ {
			for v := int32(0); int(v) < g.N(); v++ {
				if a, b := o.Query(u, v), o2.Query(u, v); a != b {
					t.Fatalf("k=%d: Query(%d,%d) changed: %d vs %d", k, u, v, a, b)
				}
			}
		}
		if o2.Spanner().Len() != o.Spanner().Len() {
			t.Fatalf("k=%d: spanner size changed", k)
		}
		o.Spanner().ForEach(func(u, v int32) {
			if !o2.Spanner().Has(u, v) {
				t.Fatalf("k=%d: spanner lost edge (%d,%d)", k, u, v)
			}
		})
		// Determinism: encoding twice (and encoding the decoded oracle)
		// yields the identical values and bytes.
		again := o.Words()
		reenc := o2.Words()
		if len(again) != len(words) || len(reenc) != len(words) || o.ImageLen() != len(img) {
			t.Fatalf("k=%d: stream length unstable", k)
		}
		for i := range words {
			if words[i] != again[i] || words[i] != reenc[i] {
				t.Fatalf("k=%d: stream differs at word %d", k, i)
			}
		}
		if string(image(o2)) != string(img) {
			t.Fatalf("k=%d: decoded oracle re-encodes to different bytes", k)
		}
	}
}

func TestCodecRejectsCorruptStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.ConnectedGnp(40, 0.1, rng)
	o, err := New(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	img := image(o)
	if _, err := decodeImage(g, img[:len(img)/2]); err == nil {
		t.Fatal("truncated stream must error")
	}
	if _, err := decodeImage(g, nil); err == nil {
		t.Fatal("empty stream must error")
	}
	if _, err := decodeImage(graph.Path(3), img); err == nil {
		t.Fatal("wrong graph size must error")
	}
	bad := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(bad, 99) // implausible k
	if _, err := decodeImage(g, bad); err == nil {
		t.Fatal("implausible k must error")
	}
	// Decode reads exactly its section: whatever follows is left unread.
	r := codec.NewReader(append(append([]byte(nil), img...), 0, 0, 0, 0))
	if _, err := Decode(g, r); err != nil || r.Left() != 4 {
		t.Fatalf("section followed by 4 bytes: %v, %d bytes left", err, r.Left())
	}
}

// TestCodecRejectsNonCanonical checks that Decode accepts only images
// Encode could have written: reordered or duplicated bunch keys, reordered
// spanner keys and a witness beyond n would all decode to an oracle whose
// image differs from its input, so each must error. (A value that does not
// fit an int32 has no 4-byte image to be written in.)
func TestCodecRejectsNonCanonical(t *testing.T) {
	g := graph.ConnectedGnp(60, 0.1, rand.New(rand.NewSource(8)))
	o, err := New(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	words := o.Words()
	n := g.N()
	// Find the first bunch with at least two entries.
	pos := 2 + n + 2*o.K()*n
	for words[pos] < 2 {
		pos += 1 + 2*max(int(words[pos]), 0)
	}
	first := pos + 1 // key of the bunch's first entry
	// The spanner section follows the n bunches.
	spanKeys := 2 + n + 2*o.K()*n
	for v := 0; v < n; v++ {
		spanKeys += 1 + 2*max(int(words[spanKeys]), 0)
	}
	spanKeys++ // skip the spanner length word

	cases := map[string]func(w []int64){
		"bunch keys swapped": func(w []int64) {
			w[first], w[first+2] = w[first+2], w[first]
			w[first+1], w[first+3] = w[first+3], w[first+1]
		},
		"bunch key duplicated": func(w []int64) { w[first+2] = w[first] },
		"spanner keys swapped": func(w []int64) { w[spanKeys], w[spanKeys+1] = w[spanKeys+1], w[spanKeys] },
		"witness beyond n":     func(w []int64) { w[2+n] = int64(n) },
	}
	for name, corrupt := range cases {
		bad := append([]int64(nil), words...)
		corrupt(bad)
		if _, err := decodeImage(g, imageOf(bad, len(o.spanner))); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
