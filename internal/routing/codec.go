package routing

import (
	"fmt"

	"spanner/internal/flatmap"
	"spanner/internal/graph"
)

// Flat word-stream codec for a built routing scheme, following the same
// conventions as the oracle codec and the distsim checkpoints: length
// prefixes, tables emitted in key order, bounds-checked decoding. Only the
// irreducible state is serialized — the landmark set, the per-tree BFS
// parent arrays, the vicinity-ball tables and the addresses; DFS intervals
// children lists and depth rows are recomputed deterministically on decode
// (the same numbering New uses), so a decoded scheme's NextHop and Route
// decisions are identical to the encoded one's. Decoding is canonical: it
// accepts only streams Words could have written (direct-table keys strictly
// increasing, addresses consistent with the trees), so a decoded scheme
// re-encodes to exactly the words it came from.

// Words serializes the scheme (everything except the graph) to a flat word
// stream. Encoding the same scheme twice yields identical streams.
func (s *Scheme) Words() []int64 {
	w := make([]int64, 0, s.WordLen())
	s.EncodeWords(func(chunk []int64) { w = append(w, chunk...) })
	return w
}

// WordLen returns the length of the Words stream without building it.
func (s *Scheme) WordLen() int {
	n, t := s.g.N(), len(s.landmarks)
	return 2 + t + t*n + s.direct.WordLen() + 2*n
}

// encodeChunk is the number of words EncodeWords gathers before handing
// them on.
const encodeChunk = 4096

// EncodeWords streams the Words stream through emit in consecutive chunks,
// reading the vicinity tables in key order from their storage. A chunk is
// only valid during its emit call.
func (s *Scheme) EncodeWords(emit func([]int64)) {
	n := s.g.N()
	w := make([]int64, 0, encodeChunk)
	put := func(x int64) {
		w = append(w, x)
		if len(w) >= encodeChunk {
			emit(w)
			w = w[:0]
		}
	}
	put(int64(n))
	put(int64(len(s.landmarks)))
	for _, l := range s.landmarks {
		put(int64(l))
	}
	for i := range s.trees {
		for _, p := range s.trees[i].parent {
			put(int64(p))
		}
	}
	for v := int32(0); int(v) < n; v++ {
		w = s.direct.AppendWords(w, v)
		if len(w) >= encodeChunk {
			emit(w)
			w = w[:0]
		}
	}
	for _, a := range s.addr {
		put(int64(a.Landmark))
		put(int64(a.DFS))
	}
	emit(w)
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
	landmarks := make([]int32, t)
	seen := make([]bool, n)
	for i := 0; i < t; i++ {
		l := r.get()
		if r.err == nil && (l < 0 || int(l) >= n) {
			return nil, fmt.Errorf("routing: landmark %d out of range [0,%d)", l, n)
		}
		if r.err == nil && seen[l] {
			return nil, fmt.Errorf("routing: duplicate landmark %d", l)
		}
		if r.err == nil {
			seen[l] = true
		}
		landmarks[i] = int32(l)
	}
	if r.err != nil {
		return nil, r.err
	}
	s := newScheme(g, landmarks)
	for i := 0; i < t; i++ {
		parent := s.trees[i].parent
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
	}
	if r.err != nil {
		return nil, r.err
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
	// Every table entry takes two words and every other table one, so the
	// words left bound the entries.
	b := flatmap.NewBuilder(n, max(len(words)-r.pos-n, 0)/2)
	for v := 0; v < n; v++ {
		c := r.get()
		if r.err != nil {
			return nil, r.err
		}
		if c < 0 {
			if c != -1 {
				return nil, fmt.Errorf("routing: corrupt table length %d", c)
			}
			b.End(false)
			continue
		}
		if c > int64(len(words)-r.pos)/2 {
			return nil, fmt.Errorf("routing: truncated table of vertex %d", v)
		}
		for j, prev := int64(0), int64(-1); j < c; j++ {
			u, hop := r.get(), r.get()
			if u <= prev || u >= int64(n) {
				return nil, fmt.Errorf("routing: table key %d of vertex %d not sorted in range", u, v)
			}
			if hop < 0 || hop >= int64(n) {
				return nil, fmt.Errorf("routing: next hop %d out of range", hop)
			}
			prev = u
			b.Add(int32(u), int32(hop))
		}
		b.End(true)
	}
	s.direct = b.Rows()
	for v := 0; v < n; v++ {
		l := r.get()
		dfs := r.get()
		if r.err != nil {
			return nil, r.err
		}
		want := int64(0) // an address without a landmark has DFS 0
		if l != int64(graph.Unreachable) {
			t, ok := s.LandmarkIndexOf(int32(l))
			if !ok || l != int64(int32(l)) {
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
