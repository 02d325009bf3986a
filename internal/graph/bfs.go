package graph

// Unreachable is the distance value reported for vertices not connected to
// any BFS source.
const Unreachable int32 = -1

// BFS computes single-source shortest-path distances from src.
// dist[v] == Unreachable for vertices in other components.
func (g *Graph) BFS(src int32) []int32 {
	dist, _ := g.BFSWithParents(src)
	return dist
}

// BFSWithParents computes distances and a shortest-path tree from src.
// parent[src] == src; parent[v] == Unreachable for unreached v.
func (g *Graph) BFSWithParents(src int32) (dist, parent []int32) {
	n := g.N()
	dist, parent = make([]int32, n), make([]int32, n)
	g.BFSInto(src, dist, parent, make([]int32, 0, n))
	return dist, parent
}

// BFSInto is the single-source FIFO kernel behind BFSWithParents, writing
// into caller-owned slices so repeated searches reuse their scratch. dist
// and parent must have length N; their previous contents are overwritten.
// parent[v] is the first dequeued neighbor of v, which is the tree
// MultiSourceBFS builds from the single source src. queue is scratch; the
// returned slice holds the reached vertices in BFS order and can be passed
// back in as the next call's queue.
func (g *Graph) BFSInto(src int32, dist, parent, queue []int32) []int32 {
	return g.BFSComponentInto(src, g.N(), dist, parent, queue)
}

// BFSComponentInto is BFSInto for a source whose connected component has
// size vertices (ConnectedComponents gives it). The search stops scanning
// adjacency lists once size vertices are queued: no later scan could
// discover a vertex, so dist, parent and the returned order are exactly
// BFSInto's.
func (g *Graph) BFSComponentInto(src int32, size int, dist, parent, queue []int32) []int32 {
	for i := range dist {
		dist[i] = Unreachable
		parent[i] = Unreachable
	}
	dist[src], parent[src] = 0, src
	queue = append(queue[:0], src)
	for head := 0; head < len(queue) && len(queue) < size; head++ {
		u := queue[head]
		du := dist[u] + 1
		for _, v := range g.Neighbors(u) {
			if dist[v] == Unreachable {
				dist[v], parent[v] = du, u
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// MultiSourceBFS runs a breadth-first search from all sources at once.
//
// It returns, for every vertex v:
//   - dist[v]: the distance to the nearest source (Unreachable if none),
//   - nearest[v]: the identity of that source, with ties broken in favor of
//     the source with the minimum vertex id — the paper's rule for choosing
//     the parent p_i(v) among equidistant V_i vertices (Sect. 4.1),
//   - parent[v]: the predecessor of v on a shortest path to nearest[v]
//     consistent with the tie-breaking (parent[s] == s for sources).
//
// The min-id tie-break is implemented by seeding the queue in increasing
// source id order and propagating the owning source with each token; a vertex
// adopts the first owner to reach it, and among same-round arrivals the
// smallest owner wins because lower-id owners are dequeued first within a
// level only if their BFS token was enqueued first. To make that ordering
// deterministic regardless of adjacency layout, arrivals at the same level
// compare owners explicitly.
func (g *Graph) MultiSourceBFS(sources []int32) (dist, nearest, parent []int32) {
	n := g.N()
	dist = make([]int32, n)
	nearest = make([]int32, n)
	parent = make([]int32, n)
	for i := range dist {
		dist[i] = Unreachable
		nearest[i] = Unreachable
		parent[i] = Unreachable
	}
	queue := make([]int32, 0, n)
	for _, s := range sources {
		if dist[s] == 0 && nearest[s] != Unreachable {
			continue // duplicate source
		}
		dist[s] = 0
		nearest[s] = s
		parent[s] = s
		queue = append(queue, s)
	}
	// Process level by level so the min-owner rule can be applied within a
	// level before expanding the next one.
	for head := 0; head < len(queue); {
		levelEnd := len(queue)
		// First pass: settle owners for the next level.
		for i := head; i < levelEnd; i++ {
			u := queue[i]
			du, owner := dist[u], nearest[u]
			for _, v := range g.Neighbors(u) {
				switch {
				case dist[v] == Unreachable:
					dist[v] = du + 1
					nearest[v] = owner
					parent[v] = u
					queue = append(queue, v)
				case dist[v] == du+1 && owner < nearest[v]:
					nearest[v] = owner
					parent[v] = u
				}
			}
		}
		head = levelEnd
	}
	return dist, nearest, parent
}

// TruncatedBFS computes distances from src up to and including radius;
// vertices farther away keep distance Unreachable. visit is called once per
// reached vertex (including src) in nondecreasing distance order; a nil visit
// is allowed. It returns the reached vertices so callers can cheaply reset
// shared scratch state.
func (g *Graph) TruncatedBFS(src int32, radius int32, dist []int32, visit func(v, d int32)) []int32 {
	return g.truncatedBFS(src, radius, dist, visit, nil)
}

// TruncatedBFSInto is TruncatedBFS without a visit callback, returning the
// reached vertices in reached's storage so repeated searches reuse one
// slice.
func (g *Graph) TruncatedBFSInto(src int32, radius int32, dist, reached []int32) []int32 {
	return g.truncatedBFS(src, radius, dist, nil, reached)
}

func (g *Graph) truncatedBFS(src int32, radius int32, dist []int32, visit func(v, d int32), reached []int32) []int32 {
	if dist[src] != Unreachable {
		panic("graph: TruncatedBFS scratch dist not reset")
	}
	dist[src] = 0
	reached = append(reached[:0], src)
	if visit != nil {
		visit(src, 0)
	}
	for head := 0; head < len(reached); head++ {
		u := reached[head]
		du := dist[u]
		if du == radius {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if dist[v] != Unreachable {
				continue
			}
			dist[v] = du + 1
			reached = append(reached, v)
			if visit != nil {
				visit(v, du+1)
			}
		}
	}
	return reached
}

// NewDistScratch allocates a distance slice pre-filled with Unreachable for
// use with TruncatedBFS. Reset reached entries with ResetDistScratch.
func (g *Graph) NewDistScratch() []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	return dist
}

// ResetDistScratch restores the given entries of dist to Unreachable.
func ResetDistScratch(dist []int32, reached []int32) {
	for _, v := range reached {
		dist[v] = Unreachable
	}
}

// PathTo reconstructs the path from a BFS tree given by parent pointers,
// walking v -> root. The returned path starts at v and ends at the root.
// It returns nil if v was not reached.
func PathTo(parent []int32, v int32) []int32 {
	if parent[v] == Unreachable {
		return nil
	}
	path := []int32{v}
	for parent[v] != v {
		v = parent[v]
		path = append(path, v)
	}
	return path
}

// Dist computes the single-pair distance between u and v, or Unreachable.
func (g *Graph) Dist(u, v int32) int32 {
	if u == v {
		return 0
	}
	return g.BFS(u)[v]
}
