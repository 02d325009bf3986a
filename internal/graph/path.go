package graph

// PathScratch is the reusable state of ShortestPath. The zero value is
// ready to use: it grows to the graph's order on first use and is left
// clean after every search, so one scratch serves any number of searches,
// on graphs of any size, from one goroutine at a time.
type PathScratch struct {
	// mark[x] is d+1 for a vertex at distance d from u, -(d+1) for one at
	// distance d from v, and 0 for an unvisited vertex.
	mark []int32
	// parent[x] is the vertex x was discovered from: one step closer to the
	// end of x's side.
	parent []int32
	// qu and qv are the two sides' visited vertices in discovery order; a
	// side's frontier is the suffix its last level added.
	qu, qv []int32
}

// Visited returns how many vertices the last search discovered, both
// sides together (u == v runs no search and leaves it unchanged).
func (s *PathScratch) Visited() int { return len(s.qu) + len(s.qv) }

// ShortestPath returns a shortest u…v path as its vertex sequence (u first,
// v last), or nil when v is unreachable from u. Once s has grown to the
// graph's order, the returned slice is the call's only allocation.
//
// The search is a level-synchronous bidirectional BFS. Each step expands
// one whole level of the side with the smaller frontier (u's side on ties),
// scanning the frontier in discovery order and each adjacency list in CSR
// order, and stops at the first edge x–y joining the two sides. Every
// vertex closer to either end has been settled by then, so u…x–y…v is a
// shortest path, and the same graph always gives the same path.
func (g *Graph) ShortestPath(u, v int32, s *PathScratch) []int32 {
	if u == v {
		return []int32{u}
	}
	x, y, ok := g.meet(u, v, s)
	if !ok {
		s.reset()
		return nil
	}
	du, dv := s.mark[x]-1, -s.mark[y]-1
	path := make([]int32, du+dv+2)
	path[du], path[du+1] = x, y
	for i := du; i > 0; i-- {
		path[i-1] = s.parent[path[i]]
	}
	for i := du + 1; i < int32(len(path))-1; i++ {
		path[i+1] = s.parent[path[i]]
	}
	s.reset()
	return path
}

// Dist computes the single-pair distance between u and v, or Unreachable,
// with ShortestPath's search.
func (g *Graph) Dist(u, v int32) int32 {
	if u == v {
		return 0
	}
	var s PathScratch
	x, y, ok := g.meet(u, v, &s)
	if !ok {
		return Unreachable
	}
	return s.mark[x] - s.mark[y] - 1
}

// meet runs ShortestPath's search and returns the join edge, x on u's side
// and y on v's, or ok false when the two ends are not connected. The marks
// stay set for the caller to read; s.reset clears them.
func (g *Graph) meet(u, v int32, s *PathScratch) (x, y int32, ok bool) {
	if n := g.N(); len(s.mark) < n {
		s.mark, s.parent = make([]int32, n), make([]int32, n)
	}
	s.mark[u], s.mark[v] = 1, -1
	qu, qv := append(s.qu[:0], u), append(s.qv[:0], v)
	hu, hv := 0, 0 // start of each side's frontier
	for hu < len(qu) && hv < len(qv) {
		var a, b int32
		if len(qu)-hu <= len(qv)-hv {
			next := len(qu)
			qu, a, b = g.expand(qu, hu, 1, s)
			hu = next
			x, y = a, b
		} else {
			next := len(qv)
			qv, a, b = g.expand(qv, hv, -1, s)
			hv = next
			x, y = b, a
		}
		if b != Unreachable {
			ok = true
			break
		}
	}
	s.qu, s.qv = qu, qv
	return x, y, ok
}

// expand scans the level q[head:] of the side with the given sign (+1 for
// u's, -1 for v's), appending the vertices it discovers to q. It stops at
// the first edge a–b from the level to the other side and returns it;
// b is Unreachable when the level has no such edge.
func (g *Graph) expand(q []int32, head int, sign int32, s *PathScratch) ([]int32, int32, int32) {
	mark, parent := s.mark, s.parent
	for _, a := range q[head:] {
		d := mark[a] + sign
		for _, b := range g.Neighbors(a) {
			switch m := mark[b]; {
			case m == 0:
				mark[b], parent[b] = d, a
				q = append(q, b)
			case (m > 0) != (sign > 0):
				return q, a, b
			}
		}
	}
	return q, Unreachable, Unreachable
}

// reset unmarks every vertex the last search visited.
func (s *PathScratch) reset() {
	for _, x := range s.qu {
		s.mark[x] = 0
	}
	for _, x := range s.qv {
		s.mark[x] = 0
	}
}
