package routing

import (
	"fmt"
	"slices"

	"spanner/internal/graph"
)

// Flat word-stream codec for a built routing scheme, following the same
// conventions as the oracle codec and the distsim checkpoints: length
// prefixes, sorted map emission, bounds-checked decoding. Only the
// irreducible state is serialized — the landmark set, the per-tree BFS
// parent arrays, the vicinity-ball tables and the addresses; DFS intervals
// and children lists are recomputed deterministically on decode (the same
// tree.index call New makes), so a decoded scheme's NextHop and Route
// decisions are identical to the encoded one's. Decoding is canonical: it
// accepts only streams Words could have written (direct-table keys strictly
// increasing, addresses consistent with the trees), so a decoded scheme
// re-encodes to exactly the words it came from.

// Words serializes the scheme (everything except the graph) to a flat word
// stream. Encoding the same scheme twice yields identical streams.
func (s *Scheme) Words() []int64 {
	n := s.g.N()
	t := len(s.landmarks)
	w := make([]int64, 0, 2+t*(1+n)+3*n)
	w = append(w, int64(n), int64(t))
	for _, l := range s.landmarks {
		w = append(w, int64(l))
	}
	for i := 0; i < t; i++ {
		for v := 0; v < n; v++ {
			w = append(w, int64(s.trees[i].parent[v]))
		}
	}
	for v := 0; v < n; v++ {
		d := s.direct[v]
		if d == nil {
			w = append(w, -1)
			continue
		}
		keys := make([]int32, 0, len(d))
		for u := range d {
			keys = append(keys, u)
		}
		slices.Sort(keys)
		w = append(w, int64(len(keys)))
		for _, u := range keys {
			w = append(w, int64(u), int64(d[u]))
		}
	}
	for v := 0; v < n; v++ {
		a := s.addr[v]
		w = append(w, int64(a.Landmark), int64(a.DFS))
	}
	return w
}

// wordReader consumes a codec word stream with bounds checking.
type wordReader struct {
	buf []int64
	pos int
	err error
}

func (r *wordReader) get() int64 {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.err = fmt.Errorf("routing: truncated stream (offset %d)", r.pos)
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

// FromWords reconstructs a scheme over g from a Words stream.
func FromWords(g *graph.Graph, words []int64) (*Scheme, error) {
	r := &wordReader{buf: words}
	n := int(r.get())
	t := int(r.get())
	if r.err != nil {
		return nil, r.err
	}
	if n != g.N() {
		return nil, fmt.Errorf("routing: stream is for %d vertices, graph has %d", n, g.N())
	}
	if t < 0 || t > n {
		return nil, fmt.Errorf("routing: implausible landmark count %d", t)
	}
	s := &Scheme{
		g:           g,
		landmarkIdx: make(map[int32]int, t),
		trees:       make([]tree, t),
		direct:      make([]map[int32]int32, n),
		addr:        make([]Address, n),
	}
	s.landmarks = make([]int32, t)
	for i := 0; i < t; i++ {
		l := r.get()
		if r.err == nil && (l < 0 || int(l) >= n) {
			return nil, fmt.Errorf("routing: landmark %d out of range [0,%d)", l, n)
		}
		s.landmarks[i] = int32(l)
		if _, dup := s.landmarkIdx[int32(l)]; dup && r.err == nil {
			return nil, fmt.Errorf("routing: duplicate landmark %d", l)
		}
		s.landmarkIdx[int32(l)] = i
	}
	for i := 0; i < t; i++ {
		parent := make([]int32, n)
		for v := 0; v < n; v++ {
			p := r.get()
			if r.err == nil && (p < int64(graph.Unreachable) || int(p) >= n) {
				return nil, fmt.Errorf("routing: tree %d parent of %d out of range: %d", i, v, p)
			}
			parent[v] = int32(p)
		}
		if r.err == nil && parent[s.landmarks[i]] != s.landmarks[i] {
			return nil, fmt.Errorf("routing: tree %d root %d is not its own parent", i, s.landmarks[i])
		}
		s.trees[i].parent = parent
	}
	if r.err != nil {
		return nil, r.err
	}
	// Rebuild the DFS intervals exactly as New does.
	for i, l := range s.landmarks {
		s.trees[i].index(l)
	}
	for v := 0; v < n; v++ {
		c := r.get()
		if r.err != nil {
			return nil, r.err
		}
		if c < 0 {
			if c != -1 {
				return nil, fmt.Errorf("routing: corrupt table length %d", c)
			}
			continue
		}
		if c > int64(len(words)-r.pos)/2 {
			return nil, fmt.Errorf("routing: truncated table of vertex %d", v)
		}
		d := make(map[int32]int32, c)
		for j, prev := int64(0), int64(-1); j < c; j++ {
			u, hop := r.get(), r.get()
			if u <= prev || u >= int64(n) {
				return nil, fmt.Errorf("routing: table key %d of vertex %d not sorted in range", u, v)
			}
			if hop < 0 || hop >= int64(n) {
				return nil, fmt.Errorf("routing: next hop %d out of range", hop)
			}
			prev = u
			d[int32(u)] = int32(hop)
		}
		s.direct[v] = d
	}
	for v := 0; v < n; v++ {
		l := r.get()
		dfs := r.get()
		if r.err != nil {
			return nil, r.err
		}
		want := int64(0) // an address without a landmark has DFS 0
		if l != int64(graph.Unreachable) {
			t, ok := s.landmarkIdx[int32(l)]
			if !ok || l != int64(s.landmarks[t]) {
				return nil, fmt.Errorf("routing: address of %d names non-landmark %d", v, l)
			}
			want = int64(s.trees[t].dfs[v])
		}
		if dfs != want {
			return nil, fmt.Errorf("routing: address of %d has DFS %d, its tree says %d", v, dfs, want)
		}
		s.addr[v] = Address{V: int32(v), Landmark: int32(l), DFS: int32(dfs)}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(words) {
		return nil, fmt.Errorf("routing: %d trailing words", len(words)-r.pos)
	}
	return s, nil
}

// LandmarkIndexOf returns the tree index of landmark l.
func (s *Scheme) LandmarkIndexOf(l int32) (int, bool) {
	i, ok := s.landmarkIdx[l]
	return i, ok
}

// LandmarkDistances returns, for each landmark tree t, the exact distance
// from every vertex to landmark t along its BFS tree (graph.Unreachable for
// vertices outside the landmark's component). The arrays are derived from
// the parent pointers by memoized pointer-chasing, so computing them costs
// O(t·n); the serving layer caches the result once per loaded snapshot and
// reads it lock-free afterwards.
func (s *Scheme) LandmarkDistances() [][]int32 {
	n := s.g.N()
	out := make([][]int32, len(s.landmarks))
	for t, l := range s.landmarks {
		depth := make([]int32, n)
		for v := range depth {
			depth[v] = graph.Unreachable
		}
		if n == 0 {
			out[t] = depth
			continue
		}
		depth[l] = 0
		parent := s.trees[t].parent
		chain := make([]int32, 0, 64)
		for v := int32(0); int(v) < n; v++ {
			if depth[v] != graph.Unreachable || parent[v] == graph.Unreachable {
				continue
			}
			chain = chain[:0]
			x := v
			// Walk up until a resolved vertex, a dead end, or (on corrupt
			// parent data) a cycle detected by the chain-length bound.
			for depth[x] == graph.Unreachable && parent[x] != graph.Unreachable && parent[x] != x && len(chain) <= n {
				chain = append(chain, x)
				x = parent[x]
			}
			base := depth[x]
			for i := len(chain) - 1; i >= 0; i-- {
				if base != graph.Unreachable {
					base++
				}
				depth[chain[i]] = base
			}
		}
		out[t] = depth
	}
	return out
}
