// Package graph provides the simple undirected, unweighted graphs that every
// spanner algorithm in this module operates on, together with generators,
// breadth-first search utilities and structural metrics.
//
// A Graph is immutable once built. Vertices are the integers 0..N()-1 and are
// stored in a compressed sparse row (CSR) layout: both adjacency offsets and
// neighbor lists use int32, which keeps the working set small enough to run
// the paper's experiments on graphs with millions of edges.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable simple undirected unweighted graph in CSR form.
// The zero value is the empty graph on zero vertices.
type Graph struct {
	off []int32 // len n+1; adjacency of v is adj[off[v]:off[v+1]]
	adj []int32 // concatenated, per-vertex sorted neighbor lists
}

// N returns the number of vertices.
func (g *Graph) N() int {
	if len(g.off) == 0 {
		return 0
	}
	return len(g.off) - 1
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

// HasEdge reports whether the undirected edge (u,v) is present.
func (g *Graph) HasEdge(u, v int32) bool {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// ForEachEdge calls f exactly once per undirected edge, with u < v.
func (g *Graph) ForEachEdge(f func(u, v int32)) {
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				f(u, v)
			}
		}
	}
}

// Edges returns all undirected edges with u < v, in lexicographic order.
func (g *Graph) Edges() [][2]int32 {
	es := make([][2]int32, 0, g.M())
	g.ForEachEdge(func(u, v int32) { es = append(es, [2]int32{u, v}) })
	return es
}

// MaxDegree returns the largest vertex degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := int32(0); v < int32(g.N()); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average vertex degree 2M/N, or 0 for the empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.N())
}

// String returns a short human-readable summary such as "graph{n=10 m=45}".
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}

// Builder accumulates edges and produces an immutable Graph. Duplicate edges
// and self-loops are discarded, so callers may add edges freely. The zero
// value is not usable; construct with NewBuilder.
type Builder struct {
	n     int
	edges []int64 // packed keys, see EdgeKey
}

// NewBuilder returns a builder for a graph on n vertices (0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge (u,v). Self-loops are ignored.
// Vertices outside [0,n) cause a panic: edges are produced by generators and
// algorithms, so an out-of-range endpoint is a programming error.
func (b *Builder) AddEdge(u, v int32) {
	if u == v {
		return
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.edges = append(b.edges, EdgeKey(u, v))
}

// N returns the number of vertices the builder was created with.
func (b *Builder) N() int { return b.n }

// NumAdded returns the number of AddEdge calls that were kept so far
// (possibly counting duplicates, which Build removes).
func (b *Builder) NumAdded() int { return len(b.edges) }

// Build produces the immutable graph. The builder may be reused afterwards;
// further AddEdge calls affect only subsequent Build calls.
func (b *Builder) Build() *Graph {
	slices.Sort(b.edges)
	b.edges = slices.Compact(b.edges)
	return FromKeys(b.n, b.edges)
}

// FromKeys builds a graph on n vertices from canonical edge keys (see
// EdgeKey) in strictly increasing order, all with endpoints in [0,n). Filling
// the lists in key order leaves each one sorted: v's lower neighbours u
// arrive with the keys (u,v) in ascending u, all before v's own keys (v,w)
// in ascending w. keys is not retained.
func FromKeys(n int, keys []int64) *Graph {
	off := make([]int32, n+1)
	for _, e := range keys {
		u, v := UnpackEdgeKey(e)
		off[u+1]++
		off[v+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adj := make([]int32, 2*len(keys))
	next := make([]int32, n)
	copy(next, off[:n])
	for _, e := range keys {
		u, v := UnpackEdgeKey(e)
		adj[next[u]] = v
		next[u]++
		adj[next[v]] = u
		next[v]++
	}
	return &Graph{off: off, adj: adj}
}

// FromEdges builds a graph on n vertices from an explicit edge list.
func FromEdges(n int, edges [][2]int32) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// EdgeKey packs an undirected edge into a canonical int64 key with the
// smaller endpoint in the high 32 bits. It is the common currency between
// Graph, EdgeSet and the spanner algorithms.
func EdgeKey(u, v int32) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// UnpackEdgeKey is the inverse of EdgeKey; it returns u <= v.
func UnpackEdgeKey(k int64) (u, v int32) {
	return int32(k >> 32), int32(k & 0xffffffff)
}
