package routing

import (
	"fmt"

	"spanner/internal/codec"
	"spanner/internal/flatmap"
	"spanner/internal/graph"
)

// The routing scheme's section of the artifact image (package codec),
// following the same conventions as the oracle's: length prefixes, tables
// written in key order, bounds-checked decoding, and every value bounded
// by n, so each takes 4 bytes. Only the irreducible state is serialized —
// the landmark set, the per-tree BFS parent arrays, the vicinity-ball
// tables and the addresses; DFS intervals, children lists and depth rows
// are recomputed deterministically on decode (the same numbering New
// uses), so a decoded scheme's NextHop and Route decisions are identical
// to the encoded one's. Decoding is canonical: it accepts only images
// Encode could have written (direct-table keys strictly increasing,
// addresses consistent with the trees), so a decoded scheme re-encodes to
// exactly the bytes it came from.

// Words returns the section's logical values (everything except the
// graph). Encoding the same scheme twice yields identical values.
func (s *Scheme) Words() []int64 {
	w := codec.NewWords(s.WordLen())
	s.Encode(w)
	return w.Words()
}

// WordLen returns the number of values Encode writes.
func (s *Scheme) WordLen() int {
	n, t := s.g.N(), len(s.landmarks)
	return 2 + t + t*n + s.direct.WordLen() + 2*n
}

// ImageLen returns the number of bytes Encode writes into an image.
func (s *Scheme) ImageLen() int { return 4 * s.WordLen() }

// Encode writes the section, reading the vicinity tables in key order from
// their storage.
func (s *Scheme) Encode(w *codec.Writer) {
	w.Int(int64(s.g.N()))
	w.Int(int64(len(s.landmarks)))
	w.Int32s(s.landmarks)
	for i := range s.trees {
		w.Int32s(s.trees[i].parent)
	}
	s.direct.Encode(w)
	for _, a := range s.addr {
		w.Int(int64(a.Landmark))
		w.Int(int64(a.DFS))
	}
}

// Decode reads a section Encode wrote for a scheme over g.
func Decode(g *graph.Graph, r *codec.Reader) (*Scheme, error) {
	n, t := int(r.Int()), int(r.Int())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n != g.N() {
		return nil, fmt.Errorf("routing: section is for %d vertices, graph has %d", n, g.N())
	}
	if t < 0 || t > n {
		return nil, fmt.Errorf("routing: implausible landmark count %d", t)
	}
	if (1+n)*t > r.Left()/4 {
		return nil, fmt.Errorf("routing: %w: %d trees of %d vertices", codec.ErrTruncated, t, n)
	}
	landmarks := make([]int32, t)
	r.Int32s(landmarks)
	if err := r.Err(); err != nil {
		return nil, err
	}
	seen := make([]bool, n)
	for _, l := range landmarks {
		if l < 0 || int(l) >= n {
			return nil, fmt.Errorf("routing: landmark %d out of range [0,%d)", l, n)
		}
		if seen[l] {
			return nil, fmt.Errorf("routing: duplicate landmark %d", l)
		}
		seen[l] = true
	}
	s := newScheme(g, landmarks)
	for i, l := range landmarks {
		parent := s.trees[i].parent
		r.Int32s(parent)
		if err := r.Err(); err != nil {
			return nil, err
		}
		for v, p := range parent {
			if p < graph.Unreachable || int(p) >= n {
				return nil, fmt.Errorf("routing: tree %d parent of %d out of range: %d", i, v, p)
			}
		}
		if parent[l] != l {
			return nil, fmt.Errorf("routing: tree %d root %d is not its own parent", i, l)
		}
	}
	// Rebuild the DFS intervals with New's numbering: a BFS from each root
	// over its ascending child lists gives an order the numbering takes
	// and writes the depth row in the same pass.
	var kids childLists
	queue := make([]int32, 0, n)
	for i, l := range s.landmarks {
		tr := &s.trees[i]
		kids.link(tr.parent)
		queue = kids.walk(l, tr.depth, queue)
		tr.number(queue)
	}
	var err error
	if s.direct, err = flatmap.Decode(r, n, n); err != nil {
		return nil, fmt.Errorf("routing: table %w", err)
	}
	for v := 0; v < n; v++ {
		l, dfs := r.Int(), r.Int()
		if err := r.Err(); err != nil {
			return nil, err
		}
		want := int64(0) // an address without a landmark has DFS 0
		if l != int64(graph.Unreachable) {
			t, ok := s.LandmarkIndexOf(int32(l))
			if !ok {
				return nil, fmt.Errorf("routing: address of %d names non-landmark %d", v, l)
			}
			want = int64(s.trees[t].dfs[v])
		}
		if dfs != want {
			return nil, fmt.Errorf("routing: address of %d has DFS %d, its tree says %d", v, dfs, want)
		}
		s.addr[v] = Address{V: int32(v), Landmark: int32(l), DFS: int32(dfs)}
	}
	return s, nil
}

// childLists is the decoder's scratch: one tree's child lists in CSR form,
// the children of v being kids[off[v]:off[v+1]] in ascending order.
type childLists struct{ off, kids []int32 }

// link fills the child lists from parent pointers with a counting sort over
// ascending v.
func (c *childLists) link(parent []int32) {
	n := len(parent)
	if len(c.off) != n+1 {
		c.off, c.kids = make([]int32, n+1), make([]int32, n)
	}
	clear(c.off)
	for v, p := range parent {
		if p != graph.Unreachable && p != int32(v) {
			c.off[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		c.off[v+1] += c.off[v]
	}
	for v, p := range parent {
		if p != graph.Unreachable && p != int32(v) {
			c.kids[c.off[p]] = int32(v)
			c.off[p]++
		}
	}
	// The fill advanced off[p] to off[p+1]; shift back.
	copy(c.off[1:], c.off[:n])
	c.off[0] = 0
}

// walk lists the tree's vertices in BFS order from root over the child
// lists, writing each one's depth; vertices the lists do not connect to
// root — whose parent chain ends elsewhere — get graph.Unreachable. queue
// is scratch; the order is returned in it.
func (c *childLists) walk(root int32, depth, queue []int32) []int32 {
	for v := range depth {
		depth[v] = graph.Unreachable
	}
	depth[root] = 0
	queue = append(queue[:0], root)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, k := range c.kids[c.off[v]:c.off[v+1]] {
			depth[k] = depth[v] + 1
			queue = append(queue, k)
		}
	}
	return queue
}

// LandmarkIndexOf returns the tree index of landmark l.
func (s *Scheme) LandmarkIndexOf(l int32) (int, bool) {
	if l < 0 || int(l) >= len(s.treeOf) || s.treeOf[l] < 0 {
		return 0, false
	}
	return int(s.treeOf[l]), true
}

// LandmarkDistances returns, for each landmark tree t, the exact distance
// from every vertex to landmark t along its BFS tree (graph.Unreachable for
// vertices outside the landmark's component). The rows are the depth rows
// each tree's BFS (or, after decoding, each tree's walk) wrote; they are
// shared with the scheme and must not be modified.
func (s *Scheme) LandmarkDistances() [][]int32 {
	out := make([][]int32, len(s.trees))
	for t := range s.trees {
		out[t] = s.trees[t].depth
	}
	return out
}
