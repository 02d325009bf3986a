package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spanner/internal/codec"
	"spanner/internal/graph"
)

// imageOf renders a routing section's logical values as its image: every
// value takes 4 bytes.
func imageOf(words []int64) []byte {
	w := codec.NewWriter(0)
	for _, v := range words {
		w.Int(int64(int32(v)))
	}
	return w.Bytes()
}

// image encodes s's section.
func image(s *Scheme) []byte {
	w := codec.NewWriter(s.ImageLen())
	s.Encode(w)
	return w.Bytes()
}

// decodeImage decodes a section image over g; bytes the section leaves
// unread are an error.
func decodeImage(g *graph.Graph, img []byte) (*Scheme, error) {
	r := codec.NewReader(img)
	s, err := Decode(g, r)
	if err == nil && r.Left() != 0 {
		err = fmt.Errorf("%d trailing bytes", r.Left())
	}
	return s, err
}

func TestCodecRoundTripIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.ConnectedGnp(150, 0.05, rng)
	s, err := New(g, 11)
	if err != nil {
		t.Fatal(err)
	}
	words, img := s.Words(), image(s)
	if !slices.Equal(imageOf(words), img) {
		t.Fatal("image is not the values at 4 bytes each")
	}
	s2, err := decodeImage(g, img)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(s2.Landmarks()) != len(s.Landmarks()) {
		t.Fatal("landmark set changed")
	}
	for v := int32(0); int(v) < g.N(); v++ {
		if s2.AddressOf(v) != s.AddressOf(v) {
			t.Fatalf("address of %d changed", v)
		}
		if s2.TableSize(v) != s.TableSize(v) {
			t.Fatalf("table size of %d changed: %d vs %d", v, s2.TableSize(v), s.TableSize(v))
		}
	}
	for u := int32(0); int(u) < g.N(); u += 3 {
		for v := int32(0); int(v) < g.N(); v += 5 {
			// Hop-for-hop identity of the full route, not just success.
			p1, e1 := s.Route(u, v)
			p2, e2 := s2.Route(u, v)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("Route(%d,%d) error changed: %v vs %v", u, v, e1, e2)
			}
			if len(p1) != len(p2) {
				t.Fatalf("Route(%d,%d) length changed", u, v)
			}
			for i := range p1 {
				if p1[i] != p2[i] {
					t.Fatalf("Route(%d,%d) hop %d changed: %d vs %d", u, v, i, p1[i], p2[i])
				}
			}
			a := s.AddressOf(v)
			h1, ok1 := s.NextHop(u, a)
			h2, ok2 := s2.NextHop(u, a)
			if h1 != h2 || ok1 != ok2 {
				t.Fatalf("NextHop(%d,%d) changed", u, v)
			}
		}
	}
	// Determinism of the stream itself.
	reenc := s2.Words()
	if len(reenc) != len(words) {
		t.Fatal("stream length unstable")
	}
	for i := range words {
		if words[i] != reenc[i] {
			t.Fatalf("stream differs at word %d", i)
		}
	}
	if !slices.Equal(image(s2), img) {
		t.Fatal("decoded scheme re-encodes to different bytes")
	}
}

func TestCodecRejectsCorruptStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.ConnectedGnp(40, 0.1, rng)
	s, err := New(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	words := s.Words()
	img := imageOf(words)
	if _, err := decodeImage(g, img[:len(img)/3]); err == nil {
		t.Fatal("truncated stream must error")
	}
	if _, err := decodeImage(graph.Path(5), img); err == nil {
		t.Fatal("wrong graph size must error")
	}
	bad := append([]int64(nil), words...)
	bad[2] = int64(g.N()) + 5 // out-of-range landmark
	if _, err := decodeImage(g, imageOf(bad)); err == nil {
		t.Fatal("out-of-range landmark must error")
	}
}

func TestLandmarkDistancesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.ConnectedGnp(120, 0.05, rng)
	s, err := New(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	dists := s.LandmarkDistances()
	if len(dists) != len(s.Landmarks()) {
		t.Fatal("one array per landmark expected")
	}
	for t2, l := range s.Landmarks() {
		want := g.BFS(l)
		for v := 0; v < g.N(); v++ {
			if dists[t2][v] != want[v] {
				t.Fatalf("landmark %d: depth of %d = %d, want BFS distance %d",
					l, v, dists[t2][v], want[v])
			}
		}
	}
}

// TestCodecRejectsNonCanonical checks that Decode accepts only images
// Encode could have written: reordered or duplicated direct-table keys, an
// address whose DFS index disagrees with its landmark's tree, and a tree
// whose root is not its own parent must all error.
func TestCodecRejectsNonCanonical(t *testing.T) {
	g := graph.ConnectedGnp(80, 0.06, rand.New(rand.NewSource(9)))
	s, err := New(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	words := s.Words()
	n, lm := g.N(), len(s.Landmarks())
	// Find the first direct table with at least two entries.
	tables := 2 + lm + lm*n
	pos := tables
	for words[pos] < 2 {
		pos += 1 + 2*max(int(words[pos]), 0)
	}
	first := pos + 1 // key of the table's first entry
	addrs := tables
	for v := 0; v < n; v++ {
		addrs += 1 + 2*max(int(words[addrs]), 0)
	}
	root := s.Landmarks()[0]

	cases := map[string]func(w []int64){
		"table keys swapped": func(w []int64) {
			w[first], w[first+2] = w[first+2], w[first]
			w[first+1], w[first+3] = w[first+3], w[first+1]
		},
		"table key duplicated": func(w []int64) { w[first+2] = w[first] },
		"address DFS off":      func(w []int64) { w[addrs+1]++ },
		"tree root reparented": func(w []int64) { w[2+lm+int(root)] = int64(g.Neighbors(root)[0]) },
	}
	for name, corrupt := range cases {
		bad := append([]int64(nil), words...)
		corrupt(bad)
		if _, err := decodeImage(g, imageOf(bad)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
