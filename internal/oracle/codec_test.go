package oracle

import (
	"math/rand"
	"testing"

	"spanner/internal/graph"
)

func TestCodecRoundTripIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 2, 3} {
		g := graph.ConnectedGnp(120, 0.06, rng)
		o, err := New(g, k, 7)
		if err != nil {
			t.Fatal(err)
		}
		words := o.Words()
		o2, err := FromWords(g, words)
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
		// yields the identical stream.
		again := o.Words()
		reenc := o2.Words()
		if len(again) != len(words) || len(reenc) != len(words) {
			t.Fatalf("k=%d: stream length unstable", k)
		}
		for i := range words {
			if words[i] != again[i] || words[i] != reenc[i] {
				t.Fatalf("k=%d: stream differs at word %d", k, i)
			}
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
	words := o.Words()
	if _, err := FromWords(g, words[:len(words)/2]); err == nil {
		t.Fatal("truncated stream must error")
	}
	if _, err := FromWords(g, nil); err == nil {
		t.Fatal("empty stream must error")
	}
	if _, err := FromWords(graph.Path(3), words); err == nil {
		t.Fatal("wrong graph size must error")
	}
	bad := append([]int64(nil), words...)
	bad[0] = 99 // implausible k
	if _, err := FromWords(g, bad); err == nil {
		t.Fatal("implausible k must error")
	}
	if _, err := FromWords(g, append(append([]int64(nil), words...), 0)); err == nil {
		t.Fatal("trailing words must error")
	}
}

// TestCodecRejectsNonCanonical checks that FromWords accepts only streams
// Words could have written: reordered or duplicated bunch keys, reordered
// spanner keys and values that do not fit an int32 would all decode to an
// oracle whose Words differ from its input, so each must error.
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
		"witness beyond int32": func(w []int64) { w[2+n] += 1 << 32 },
	}
	for name, corrupt := range cases {
		bad := append([]int64(nil), words...)
		corrupt(bad)
		if _, err := FromWords(g, bad); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
