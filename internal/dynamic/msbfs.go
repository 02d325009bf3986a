package dynamic

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"spanner/internal/graph"
)

// This file holds the kernel behind the witness index and DeriveBound: a
// multi-source, bit-parallel BFS over the spanner (MS-BFS, Then et al.,
// PVLDB 2014). Every vertex u with a forward graph edge (u,v), v > u, is a
// source; a sweep runs 64 of them at once, keeping per vertex one uint64
// each of frontier, seen and pending-forward-neighbour bits, so one pass
// over a vertex's spanner neighbours advances all 64 searches. A sweep
// costs O(L·(n+|S|)) for depth L, so the whole index costs
// O(⌈n/64⌉·L·(n+|S|)). Sweeps are independent and spread over
// runtime.GOMAXPROCS(0) workers, each with its own scratch; results come
// back in source order.

// adjCSR is a snapshot of an adjacency in CSR form: the neighbours of v are
// adj[off[v]:off[v+1]], in the order the snapshot was taken in.
type adjCSR struct {
	off, adj []int32
}

func csrOf(n int, nbrs func(v int32) []int32) adjCSR {
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(len(nbrs(int32(v))))
	}
	adj := make([]int32, off[n])
	for v := 0; v < n; v++ {
		copy(adj[off[v]:], nbrs(int32(v)))
	}
	return adjCSR{off: off, adj: adj}
}

func (c adjCSR) nbrs(v int32) []int32 { return c.adj[c.off[v]:c.off[v+1]] }

// forward returns u's neighbours v > u in g (a suffix, since lists are
// sorted and simple).
func forward(g *graph.Graph, u int32) []int32 {
	ns := g.Neighbors(u)
	i, _ := slices.BinarySearch(ns, u)
	return ns[i:]
}

// sweepResult is one sweep's share of the index.
type sweepResult struct {
	// worst is the largest spanner distance of a reached forward edge.
	worst int32
	// bad counts forward edges with no spanner path within the limit;
	// badAt is the first source that has any (-1 when bad is 0) and badAtN
	// how many it has.
	bad, badAtN int
	badAt       int32
	// keys are the certified graph-edge keys, source by source; the
	// witness path of keys[i] is flat[ends[i-1]:ends[i]] (from 0 for i=0).
	keys []int64
	ends []int32
	flat []int64
}

// msbfs is one worker's scratch, reused across its sweeps.
type msbfs struct {
	front, next, seen, pend []uint64
	// dist[x<<6|i] is the level at which source i reached x; it is valid
	// only where seen[x] has bit i, so it is never reset. Nil when no
	// witnesses are walked.
	dist []int32
	left [64]int // pending forward neighbours per source
}

// sweepAll runs the kernel over span from every vertex with a forward edge
// in g. With limit > 0 no search goes past limit hops; with limit ≤ 0 each
// runs until its forward neighbours are reached or its component is
// exhausted. Searches stop early once all their forward neighbours are
// reached, which settles every vertex a witness walk reads. When walk is
// set, every reached forward edge gets its witness path (see walk).
func sweepAll(g *graph.Graph, span adjCSR, limit int32, walk bool) []sweepResult {
	var src []int32
	for u := int32(0); int(u) < g.N(); u++ {
		if len(forward(g, u)) > 0 {
			src = append(src, u)
		}
	}
	res := make([]sweepResult, (len(src)+63)/64)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := min(runtime.GOMAXPROCS(0), len(res)); k > 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newMSBFS(g.N(), walk)
			for {
				j := int(next.Add(1) - 1)
				if j >= len(res) {
					return
				}
				res[j] = w.sweep(g, span, src[64*j:min(64*j+64, len(src))], limit)
			}
		}()
	}
	wg.Wait()
	return res
}

func newMSBFS(n int, walk bool) *msbfs {
	w := &msbfs{
		front: make([]uint64, n),
		next:  make([]uint64, n),
		seen:  make([]uint64, n),
		pend:  make([]uint64, n),
	}
	if walk {
		w.dist = make([]int32, n<<6)
	}
	return w
}

// sweep runs up to 64 searches, source src[i] on bit i. Each level pulls:
// a vertex not yet seen by every live search ORs its neighbours' frontier
// masks, so the pass is branch-light and writes only the vertex itself.
func (w *msbfs) sweep(g *graph.Graph, span adjCSR, src []int32, limit int32) sweepResult {
	clear(w.front)
	clear(w.seen)
	clear(w.pend)
	var live uint64
	for i, u := range src {
		b := uint64(1) << i
		w.front[u] = b
		w.seen[u] = b
		if w.dist != nil {
			w.dist[int(u)<<6|i] = 0
		}
		fwd := forward(g, u)
		w.left[i] = len(fwd)
		for _, v := range fwd {
			w.pend[v] |= b
		}
		live |= b
	}
	r := sweepResult{badAt: -1}
	off, adj := span.off, span.adj
	for level := int32(1); live != 0 && (limit <= 0 || level <= limit); level++ {
		var reached, done uint64
		for y := range w.seen {
			want := live &^ w.seen[y]
			if want == 0 {
				w.next[y] = 0
				continue
			}
			var m uint64
			for _, x := range adj[off[y]:off[y+1]] {
				m |= w.front[x]
			}
			m &= want
			w.next[y] = m
			if m == 0 {
				continue
			}
			reached |= m
			w.seen[y] |= m
			if w.dist != nil {
				for b := m; b != 0; b &= b - 1 {
					w.dist[y<<6|bits.TrailingZeros64(b)] = level
				}
			}
			if p := w.pend[y] & m; p != 0 {
				w.pend[y] &^= p
				r.worst = level // levels only grow
				for ; p != 0; p &= p - 1 {
					i := bits.TrailingZeros64(p)
					if w.left[i]--; w.left[i] == 0 {
						done |= 1 << i
					}
				}
			}
		}
		w.front, w.next = w.next, w.front
		// A search ends once its forward neighbours are all reached, or
		// when a level reaches nothing new (its component is exhausted).
		live &= reached &^ done
	}
	for i, u := range src {
		if w.left[i] == 0 {
			continue
		}
		r.bad += w.left[i]
		if r.badAt < 0 {
			r.badAt, r.badAtN = u, w.left[i]
		}
	}
	if w.dist != nil {
		for i, u := range src {
			for _, v := range forward(g, u) {
				if w.seen[v]>>i&1 != 0 {
					r.flat = w.walk(span, r.flat, i, u, v)
					r.keys = append(r.keys, graph.EdgeKey(u, v))
					r.ends = append(r.ends, int32(len(r.flat)))
				}
			}
		}
	}
	return r
}

// walk appends the edge keys of the witness path from v back to source
// src[i] = u: each step goes to the first neighbour, in span's order, one
// level closer to u — the path a single-source BFS from u picks.
func (w *msbfs) walk(span adjCSR, keys []int64, i int, u, v int32) []int64 {
	b := uint64(1) << i
	for x, dx := v, w.dist[int(v)<<6|i]; x != u; dx-- {
		next := int32(-1)
		for _, y := range span.nbrs(x) {
			if w.seen[y]&b != 0 && w.dist[int(y)<<6|i] == dx-1 {
				next = y
				break
			}
		}
		keys = append(keys, graph.EdgeKey(x, next))
		x = next
	}
	return keys
}
