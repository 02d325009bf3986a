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
	"math/rand"

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
	// landmarkIdx maps a landmark vertex to its tree index.
	landmarkIdx map[int32]int

	// trees[t] is landmark t's BFS tree.
	trees []tree

	// direct[v] = next hop from v toward each w with v ∈ ball(w).
	direct []map[int32]int32

	// addr[v] is v's address.
	addr []Address
}

// tree is one landmark's BFS tree with its interval-routing index.
type tree struct {
	// parent[v] = next hop from v toward the landmark.
	parent []int32
	// dfs[v] = DFS index of v; end[v] = largest DFS index in v's subtree.
	dfs, end []int32
	// Child lists in CSR form: the children of v are kids[off[v]:off[v+1]],
	// in ascending vertex order.
	off, kids []int32
}

// New builds the scheme. Expected preprocessing O(√n·m); expected table
// size Õ(√n) words per vertex.
func New(g *graph.Graph, seed int64) (*Scheme, error) {
	n := g.N()
	s := &Scheme{
		g:           g,
		landmarkIdx: make(map[int32]int),
		direct:      make([]map[int32]int32, n),
		addr:        make([]Address, n),
	}
	if n == 0 {
		return s, nil
	}
	rng := rand.New(rand.NewSource(seed))
	nf := float64(n)
	p := math.Sqrt(math.Log(nf)+1) / math.Sqrt(nf)
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			s.landmarks = append(s.landmarks, int32(v))
		}
	}
	// Every component needs a landmark (for tree-phase reachability).
	labels, count := g.ConnectedComponents()
	hit := make([]bool, count)
	for _, l := range s.landmarks {
		hit[labels[l]] = true
	}
	for v := int32(0); int(v) < n; v++ {
		if !hit[labels[v]] {
			hit[labels[v]] = true
			s.landmarks = append(s.landmarks, v)
		}
	}
	for i, l := range s.landmarks {
		s.landmarkIdx[l] = i
	}

	// δ(·,L) and each vertex's own landmark.
	distL, nearestL, _ := g.MultiSourceBFS(s.landmarks)

	// Landmark trees with DFS intervals; one dist scratch and queue serve
	// every tree's BFS.
	s.trees = make([]tree, len(s.landmarks))
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for i, l := range s.landmarks {
		tr := &s.trees[i]
		tr.parent = make([]int32, n)
		queue = g.BFSInto(l, dist, tr.parent, queue)
		tr.index(l)
	}

	for v := int32(0); int(v) < n; v++ {
		lv := nearestL[v]
		a := Address{V: v, Landmark: lv}
		if lv != graph.Unreachable {
			a.DFS = s.trees[s.landmarkIdx[lv]].dfs[v]
		}
		s.addr[v] = a
	}

	// Vicinity balls: truncated BFS from each non-landmark w to radius
	// δ(w,L)−1, recording next hops (BFS parents point back toward w).
	scratchDist := g.NewDistScratch()
	scratchHop := make([]int32, n)
	for w := int32(0); int(w) < n; w++ {
		radius := distL[w] - 1
		if radius < 0 {
			continue // w is a landmark (or isolated with one)
		}
		reached := g.TruncatedBFS(w, radius, scratchDist, nil)
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
			if s.direct[x] == nil {
				s.direct[x] = make(map[int32]int32, 4)
			}
			s.direct[x][w] = scratchHop[x]
		}
		graph.ResetDistScratch(scratchDist, reached)
	}
	return s, nil
}

// index computes, from the parent pointers of the tree rooted at root, a
// DFS numbering, per-vertex subtree intervals [dfs, end], and the children
// in CSR form. A counting sort over ascending v fills each child list in
// ascending vertex order, which is the DFS visiting order.
func (tr *tree) index(root int32) {
	n := len(tr.parent)
	tr.dfs = make([]int32, n)
	tr.end = make([]int32, n)
	tr.off = make([]int32, n+1)
	for v, p := range tr.parent {
		if p != graph.Unreachable && p != int32(v) {
			tr.off[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		tr.off[v+1] += tr.off[v]
	}
	tr.kids = make([]int32, tr.off[n])
	next := tr.dfs // fill cursors; dfs is reset below
	copy(next, tr.off[:n])
	for v, p := range tr.parent {
		if p != graph.Unreachable && p != int32(v) {
			tr.kids[next[p]] = int32(v)
			next[p]++
		}
	}
	for v := range tr.dfs {
		tr.dfs[v] = graph.Unreachable
		tr.end[v] = graph.Unreachable
	}
	// Iterative DFS; a frame's next is its position in kids.
	type frame struct{ v, next int32 }
	stack := []frame{{v: root, next: tr.off[root]}}
	tr.dfs[root] = 0
	counter := int32(1)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < tr.off[f.v+1] {
			c := tr.kids[f.next]
			f.next++
			tr.dfs[c] = counter
			counter++
			stack = append(stack, frame{v: c, next: tr.off[c]})
			continue
		}
		tr.end[f.v] = counter - 1
		stack = stack[:len(stack)-1]
	}
}

// children returns v's children, in ascending vertex order.
func (tr *tree) children(v int32) []int32 {
	return tr.kids[tr.off[v]:tr.off[v+1]]
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
	size += len(s.direct[v])
	for t := range s.trees {
		size += 1 + len(s.trees[t].children(v)) // own interval + children intervals
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
	if hop, ok := s.direct[x][dst.V]; ok {
		return hop, true
	}
	if dst.Landmark == graph.Unreachable {
		return 0, false
	}
	tr := &s.trees[s.landmarkIdx[dst.Landmark]]
	if tr.dfs[x] != graph.Unreachable && tr.contains(x, dst.DFS) {
		// Tree phase: descend to the child whose interval contains dst.
		for _, c := range tr.children(x) {
			if tr.contains(c, dst.DFS) {
				return c, true
			}
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
