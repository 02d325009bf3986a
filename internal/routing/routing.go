// Package routing implements a compact routing scheme with stretch 3 and
// expected Õ(√n)-word tables, in the style of Thorup–Zwick [37] and Cowen
// [11] — the third application family the paper's conclusion highlights.
// The paper's closing open problem asks whether stretch (3−ε)d + polylog
// is achievable with o(n)-size tables; this package provides the stretch-3
// baseline that the question wants beaten, so the tradeoff is measurable.
//
// Scheme. Sample a landmark set L (rate √(ln n / n)). Every vertex v
// stores:
//
//   - a next hop toward every landmark (|L| entries);
//   - a next hop toward every w whose "vicinity ball" contains v, where
//     ball(w) = { x : δ(x,w) < δ(w, L) }. E|ball(w)| ≤ √(n/ln n) by the
//     geometric argument of the paper's Lemma 7, so these tables also have
//     expected size Õ(√n);
//   - for each landmark's BFS tree: its parent, its DFS interval and its
//     children's intervals (amortized O(1) per tree).
//
// Trees. Each landmark's tree is a shortest-path tree: a vertex's parent
// is its first neighbour one level closer to the landmark, scanning its
// sorted neighbour list cyclically from index v mod deg(v). The start
// depends only on v, so one scan serves every tree a sweep of graph's
// multi-source BFS builds (see landmarkTrees), and rotating it spreads
// children over a vertex's closer neighbours. Starting every scan at index
// 0 (the lowest-id rule) would make low-id vertices the parents of most of
// their neighbours in every tree: on G(n,p) at n=5000 the largest table
// grows from 1.9× the mean to 3.9×. Children are numbered depth-first in
// ascending id.
//
// The address of w is (w, ℓ_w, dfs_w), where dfs_w is w's DFS index in its
// own landmark's tree. Routing from v to w: if some table on the way knows
// w directly, follow those shortest-path hops; otherwise head to ℓ_w and
// descend its tree by DFS intervals. If δ(v,w) < δ(w,ℓ_w) then v lies in
// ball(w) and the route is exact; otherwise δ(w,ℓ_w) ≤ δ(v,w) and the
// route length is at most δ(v,ℓ_w) + δ(ℓ_w,w) ≤ δ(v,w) + 2δ(w,ℓ_w) ≤
// 3·δ(v,w). The ball's "closer-than" definition makes direct entries
// monotone along shortest paths, so handoffs between the two modes never
// lose progress.
package routing

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"spanner/internal/flatmap"
	"spanner/internal/graph"
)

// Address is the routing header target: what a sender must know about the
// destination (constant size).
type Address struct {
	V        int32 // destination vertex
	Landmark int32 // ℓ_V, the destination's nearest landmark
	DFS      int32 // V's DFS index in ℓ_V's tree
}

// Scheme holds all per-vertex routing tables.
type Scheme struct {
	g         *graph.Graph
	landmarks []int32
	// treeOf[v] is the tree index of landmark v, -1 for other vertices.
	treeOf []int32

	// trees[t] is landmark t's BFS tree; every tree's arrays are cut from
	// one slab.
	trees []tree

	// Row v of direct maps w to the next hop from v toward w, for each w
	// with v ∈ ball(w); the row is absent when v lies in no ball.
	direct *flatmap.Rows

	// addr[v] is v's address.
	addr []Address
}

// tree is one landmark's BFS tree with its interval-routing index.
type tree struct {
	// parent[v] = next hop from v toward the landmark.
	parent []int32
	// depth[v] = v's distance to the landmark along the tree, which is its
	// graph distance; graph.Unreachable outside the landmark's component.
	depth []int32
	// dfs[v] = DFS index of v; end[v] = largest DFS index in v's subtree.
	dfs, end []int32
	// pre[d] is the vertex with DFS index d. v's children, in ascending
	// vertex order, are pre[dfs[v]+1], then each next one at the index
	// after the previous one's subtree, up to end[v].
	pre []int32
}

// treeWords is the number of int32s one tree takes from the slab: parent,
// depth, dfs, end and pre at n each.
func treeWords(n int) int { return 5 * n }

// newScheme returns a scheme over g with its tree arrays allocated from
// one slab for the given landmarks.
func newScheme(g *graph.Graph, landmarks []int32) *Scheme {
	n := g.N()
	s := &Scheme{
		g:         g,
		landmarks: landmarks,
		treeOf:    make([]int32, n),
		trees:     make([]tree, len(landmarks)),
		addr:      make([]Address, n),
	}
	for v := range s.treeOf {
		s.treeOf[v] = -1
	}
	slab := make([]int32, len(landmarks)*treeWords(n))
	cut := func() []int32 {
		part := slab[:n:n]
		slab = slab[n:]
		return part
	}
	for i, l := range landmarks {
		s.treeOf[l] = int32(i)
		tr := &s.trees[i]
		tr.parent, tr.depth, tr.dfs, tr.end, tr.pre = cut(), cut(), cut(), cut(), cut()
	}
	return s
}

// New builds the scheme. Expected preprocessing O(√n·m); expected table
// size Õ(√n) words per vertex.
func New(g *graph.Graph, seed int64) (*Scheme, error) {
	n := g.N()
	if n == 0 {
		s := newScheme(g, nil)
		s.direct = flatmap.FromStaged(0, nil)
		return s, nil
	}
	rng := rand.New(rand.NewSource(seed))
	nf := float64(n)
	p := math.Sqrt(math.Log(nf)+1) / math.Sqrt(nf)
	var landmarks []int32
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			landmarks = append(landmarks, int32(v))
		}
	}
	// Every component needs a landmark (for tree-phase reachability).
	labels, count := g.ConnectedComponents()
	hit := make([]bool, count)
	for _, l := range landmarks {
		hit[labels[l]] = true
	}
	for v := int32(0); int(v) < n; v++ {
		if !hit[labels[v]] {
			hit[labels[v]] = true
			landmarks = append(landmarks, v)
		}
	}
	s := newScheme(g, landmarks)

	// δ(·,L) and each vertex's own landmark.
	distL, nearestL, _ := g.MultiSourceBFS(s.landmarks)

	// Landmark trees with DFS intervals, 64 landmarks per sweep. A search
	// stops once the landmark's whole component is reached.
	size := make([]int, count)
	for _, c := range labels {
		size[c]++
	}
	reach := make([]int, len(s.landmarks))
	for i, l := range s.landmarks {
		reach[i] = size[labels[l]]
	}
	landmarkTrees(g, s.landmarks, s.trees, reach)

	for v := int32(0); int(v) < n; v++ {
		lv := nearestL[v]
		a := Address{V: v, Landmark: lv}
		if lv != graph.Unreachable {
			a.DFS = s.trees[s.treeOf[lv]].dfs[v]
		}
		s.addr[v] = a
	}

	// Vicinity balls: truncated BFS from each non-landmark w to radius
	// δ(w,L)−1, recording next hops (BFS parents point back toward w).
	// Balls are grown in ascending w, so every row is staged in key order.
	// A ball holds at most about 1/p vertices in expectation, which sizes
	// the staging.
	scratchDist := g.NewDistScratch()
	scratchHop := make([]int32, n)
	stage := make([]flatmap.Staged, 0, n*int(math.Ceil(1/p)))
	var reached []int32
	for w := int32(0); int(w) < n; w++ {
		radius := distL[w] - 1
		if radius < 0 {
			continue // w is a landmark (or isolated with one)
		}
		reached = g.TruncatedBFSInto(w, radius, scratchDist, reached)
		// Walk the reached list in BFS order to assign next hops toward w.
		scratchHop[w] = w
		for _, x := range reached {
			if x == w {
				continue
			}
			// Find a neighbor one step closer to w; BFS order guarantees
			// its hop is already set.
			for _, y := range g.Neighbors(x) {
				if scratchDist[y] == scratchDist[x]-1 {
					if scratchDist[y] == 0 {
						scratchHop[x] = w
					} else {
						scratchHop[x] = y
					}
					break
				}
			}
			stage = append(stage, flatmap.Staged{Row: x, Entry: flatmap.Entry{Key: w, Val: scratchHop[x]}})
		}
		graph.ResetDistScratch(scratchDist, reached)
	}
	s.direct = flatmap.FromStaged(n, stage)
	return s, nil
}

// landmarkTrees writes every tree's parent and depth rows and numbers it,
// 64 landmarks per sweep of graph's bit-parallel BFS, whose scan rule picks
// the parents. It runs on one goroutine: every generation rebuild runs it.
// trees[i] is landmarks[i]'s tree, fresh from the slab; reach[i] is the
// number of vertices in landmarks[i]'s connected component, which ends its
// search as soon as it has reached them all, without a last level that
// finds nothing. Vertices reached at a level join their tree's order in
// ascending id, which is the order the numbering wants.
func landmarkTrees(g *graph.Graph, landmarks []int32, trees []tree, reach []int) {
	n := g.N()
	w := g.NewMSBFS()
	orders := make([]int32, min(graph.SweepWidth, len(landmarks))*n)
	var order, parent [graph.SweepWidth][]int32
	for lo := 0; lo < len(landmarks); lo += graph.SweepWidth {
		src := landmarks[lo:min(lo+graph.SweepWidth, len(landmarks))]
		ts, want := trees[lo:lo+len(src)], reach[lo:lo+len(src)]
		w.Start(src)
		var live uint64
		for i, l := range src {
			ts[i].parent[l], ts[i].depth[l] = l, 0
			parent[i] = ts[i].parent
			order[i] = append(orders[i*n:i*n:(i+1)*n], l)
			if want[i] > 1 {
				live |= 1 << i
			}
		}
		for level := int32(1); live != 0; level++ {
			var reached uint64
			for _, y := range w.Level(live, parent[:len(src)]) {
				got := w.Frontier(y)
				reached |= got
				for ; got != 0; got &= got - 1 {
					i := bits.TrailingZeros64(got)
					ts[i].depth[y] = level
					order[i] = append(order[i], y)
				}
			}
			// A level that reaches nothing also ends a search, so a wrong
			// count cannot keep it running.
			live &= reached
			for b := live; b != 0; b &= b - 1 {
				if i := bits.TrailingZeros64(b); len(order[i]) == want[i] {
					live &^= 1 << i
				}
			}
		}
		for i := range src {
			tr := &ts[i]
			if len(order[i]) < n {
				for v := int32(0); int(v) < n; v++ {
					if w.Seen(v)>>i&1 == 0 {
						tr.parent[v], tr.depth[v] = graph.Unreachable, graph.Unreachable
					}
				}
			}
			tr.number(order[i])
		}
	}
}

// childCount returns the number of v's children.
func (tr *tree) childCount(v int32) int {
	if tr.dfs[v] == graph.Unreachable {
		return 0
	}
	c := 0
	for d := tr.dfs[v] + 1; d <= tr.end[v]; d = tr.end[tr.pre[d]] + 1 {
		c++
	}
	return c
}

// contains reports whether DFS index d lies in v's subtree.
func (tr *tree) contains(v, d int32) bool {
	return tr.dfs[v] <= d && d <= tr.end[v]
}

// AddressOf returns the routing address of v (what senders must know).
func (s *Scheme) AddressOf(v int32) Address { return s.addr[v] }

// Landmarks returns the sampled landmark set.
func (s *Scheme) Landmarks() []int32 { return s.landmarks }

// TableSize returns the number of table entries stored at v: landmark next
// hops, direct ball entries, and its tree-interval records.
func (s *Scheme) TableSize(v int32) int {
	size := len(s.landmarks) // next hop toward each landmark
	size += len(s.direct.Row(v))
	for t := range s.trees {
		size += 1 + s.trees[t].childCount(v) // own interval + children intervals
	}
	return size
}

// NextHop computes the next hop from the current vertex toward the
// destination address, using only x's local tables and the header. The
// second return is false when the destination is unreachable from x.
func (s *Scheme) NextHop(x int32, dst Address) (int32, bool) {
	if x == dst.V {
		return x, true
	}
	// Direct (vicinity ball) entry wins: it is a shortest-path hop.
	if hop, ok := s.direct.Get(x, dst.V); ok {
		return hop, true
	}
	t, ok := s.LandmarkIndexOf(dst.Landmark)
	if !ok {
		return 0, false
	}
	tr := &s.trees[t]
	if tr.dfs[x] != graph.Unreachable && tr.contains(x, dst.DFS) {
		// Tree phase: descend to the child whose interval contains dst,
		// stepping from each child to the next past its subtree.
		for d := tr.dfs[x] + 1; d <= tr.end[x]; {
			c := tr.pre[d]
			if tr.contains(c, dst.DFS) {
				return c, true
			}
			d = tr.end[c] + 1
		}
		return 0, false // corrupt header
	}
	// Landmark phase: climb toward ℓ_w.
	hop := tr.parent[x]
	if hop == graph.Unreachable || hop == x {
		return 0, false
	}
	return hop, true
}

// Route simulates a packet from u to v and returns the traversed path
// (starting at u, ending at v) or an error if routing fails or loops.
func (s *Scheme) Route(u, v int32) ([]int32, error) {
	dst := s.addr[v]
	path := []int32{u}
	x := u
	limit := 4*s.g.N() + 4
	for x != v {
		if len(path) > limit {
			return nil, fmt.Errorf("routing: loop detected from %d to %d", u, v)
		}
		hop, ok := s.NextHop(x, dst)
		if !ok {
			return nil, fmt.Errorf("routing: no route from %d to %d (stuck at %d)", u, v, x)
		}
		if hop != x && !s.g.HasEdge(x, hop) {
			return nil, fmt.Errorf("routing: table produced non-edge (%d,%d)", x, hop)
		}
		x = hop
		path = append(path, x)
	}
	return path, nil
}
