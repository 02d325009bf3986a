package verify

import (
	"math/bits"
	"runtime"
	"slices"

	"spanner/internal/graph"
)

// Certificates is the edge-certificate check of a spanner S against its
// graph G: S is a t-spanner of G iff every G-edge (u,v) has δ_S(u,v) ≤ t,
// since paths compose edge by edge.
type Certificates struct {
	// Worst is the largest spanner distance of a certified edge.
	Worst int32
	// Violated lists the edges (u,v), u < v, with no spanner path within
	// the radius, in ascending order.
	Violated [][2]int32
	// Keys lists the certified edges' keys in ascending order and Paths[i]
	// the spanner-edge keys of Keys[i]'s witness path, from v back to u:
	// each step goes to the first neighbour, in span's order, one level
	// closer to u — the path a single-source BFS from u picks. Both are
	// nil unless witnesses were asked for.
	Keys  []int64
	Paths [][]int64
}

// Certify checks every edge of g against span, the spanner as a graph on
// g's vertices, for a spanner path of at most radius hops (radius < 0: of
// any length). Every vertex u with a forward edge (u,v), v > u, is a source
// of graph's bit-parallel BFS over span; its search ends once its forward
// neighbours are reached, at the radius, or when its component is
// exhausted. With witnesses set, every certified edge gets its witness
// path. Sweeps are spread over runtime.GOMAXPROCS(0) workers and merged in
// source order, so the result does not depend on the worker count.
func Certify(g, span *graph.Graph, radius int32, witnesses bool) *Certificates {
	var src []int32
	for u := int32(0); int(u) < g.N(); u++ {
		if len(forward(g, u)) > 0 {
			src = append(src, u)
		}
	}
	res := make([]Certificates, (len(src)+graph.SweepWidth-1)/graph.SweepWidth)
	span.Sweeps(src, runtime.GOMAXPROCS(0), func() func(*graph.MSBFS, int, []int32) {
		c := &certifier{g: g, radius: radius, span: span, pend: make([]uint64, g.N())}
		if witnesses {
			c.lvl0, c.lvl1 = make([]uint64, g.N()), make([]uint64, g.N())
		}
		return func(w *graph.MSBFS, j int, src []int32) { res[j] = c.sweep(w, src) }
	})
	all, certified := &Certificates{}, 0
	for _, r := range res {
		certified += len(r.Keys)
	}
	if witnesses {
		all.Keys, all.Paths = make([]int64, 0, certified), make([][]int64, 0, certified)
	}
	for _, r := range res {
		all.Worst = max(all.Worst, r.Worst)
		all.Violated = append(all.Violated, r.Violated...)
		all.Keys = append(all.Keys, r.Keys...)
		all.Paths = append(all.Paths, r.Paths...)
	}
	return all
}

// forward returns u's neighbours v > u in g (a suffix, since lists are
// sorted and simple).
func forward(g *graph.Graph, u int32) []int32 {
	ns := g.Neighbors(u)
	i, _ := slices.BinarySearch(ns, u)
	return ns[i:]
}

// certifier is one worker's scratch for Certify, reused across its sweeps.
type certifier struct {
	g, span *graph.Graph
	radius  int32
	// pend[v] has bit i while v is a forward neighbour of search i's source
	// that the search has not reached; left[i] counts them.
	pend []uint64
	left [graph.SweepWidth]int
	// Bit i of lvl0[x] and lvl1[x] are bits 0 and 1 of the level at which
	// search i reached x. Two bits tell a neighbour's level apart from x's,
	// which differs by at most one. They are valid only where the sweep has
	// seen x with bit i, so they are never reset. Nil when no witnesses are
	// walked.
	lvl0, lvl1 []uint64
}

// sweep certifies the forward edges of up to 64 sources, source src[i] on
// bit i.
func (c *certifier) sweep(w *graph.MSBFS, src []int32) Certificates {
	w.Start(src)
	var live uint64
	for i, u := range src {
		fwd := forward(c.g, u)
		c.left[i] = len(fwd)
		for _, v := range fwd {
			c.pend[v] |= 1 << i
		}
		if c.lvl0 != nil {
			c.lvl0[u] &^= 1 << i
			c.lvl1[u] &^= 1 << i
		}
		live |= 1 << i
	}
	var r Certificates
	for level := int32(1); live != 0 && (c.radius < 0 || level <= c.radius); level++ {
		var reached, done uint64
		set0, set1 := -(uint64(level) & 1), -(uint64(level) >> 1 & 1)
		for _, y := range w.Level(live, nil) {
			m := w.Frontier(y)
			reached |= m
			if c.lvl0 != nil {
				c.lvl0[y] = c.lvl0[y]&^m | m&set0
				c.lvl1[y] = c.lvl1[y]&^m | m&set1
			}
			if p := c.pend[y] & m; p != 0 {
				c.pend[y] &^= p
				r.Worst = level // levels only grow
				for ; p != 0; p &= p - 1 {
					i := bits.TrailingZeros64(p)
					if c.left[i]--; c.left[i] == 0 {
						done |= 1 << i
					}
				}
			}
		}
		// A search ends once its forward neighbours are all reached, or
		// when a level reaches nothing new (its component is exhausted).
		// Either way it has settled every vertex a witness walk reads.
		live &= reached &^ done
	}
	var flat []int64
	var ends []int
	for i, u := range src {
		for _, v := range forward(c.g, u) {
			c.pend[v] = 0
			switch {
			case w.Seen(v)>>i&1 == 0:
				r.Violated = append(r.Violated, [2]int32{u, v})
			case c.lvl0 != nil:
				flat = c.walk(w, flat, i, u, v)
				r.Keys = append(r.Keys, graph.EdgeKey(u, v))
				ends = append(ends, len(flat))
			}
		}
	}
	r.Paths = make([][]int64, len(ends))
	lo := 0
	for k, hi := range ends {
		r.Paths[k], lo = flat[lo:hi:hi], hi
	}
	return r
}

// walk appends the edge keys of the witness path from v back to source
// src[i] = u.
func (c *certifier) walk(w *graph.MSBFS, keys []int64, i int, u, v int32) []int64 {
	for x := v; x != u; {
		closer := (c.level(x, i) - 1) & 3
		next := int32(-1)
		for _, y := range c.span.Neighbors(x) {
			if w.Seen(y)>>i&1 != 0 && c.level(y, i) == closer {
				next = y
				break
			}
		}
		keys = append(keys, graph.EdgeKey(x, next))
		x = next
	}
	return keys
}

// level returns the level at which search i reached x, mod 4.
func (c *certifier) level(x int32, i int) uint64 {
	return c.lvl0[x]>>i&1 | (c.lvl1[x]>>i&1)<<1
}
