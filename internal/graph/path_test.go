package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// pathFixtures are the shapes the bidirectional kernel is checked on: dense
// and sparse random graphs, the long-diameter grid and path, the star (one
// hub every pair meets at), a forest with isolated vertices, and n = 1.
func pathFixtures() map[string]*Graph {
	rng := rand.New(rand.NewSource(24))
	forest := NewBuilder(70)
	for _, tree := range []struct{ off, n int }{{0, 25}, {30, 12}, {45, 20}} {
		t := RandomTree(tree.n, rng)
		t.ForEachEdge(func(u, v int32) {
			forest.AddEdge(u+int32(tree.off), v+int32(tree.off))
		})
	}
	return map[string]*Graph{
		"gnp-sparse": Gnp(80, 0.03, rng),
		"gnp-dense":  Gnp(60, 0.15, rng),
		"grid":       Grid(9, 7),
		"path":       Path(40),
		"star":       Star(30),
		"forest":     forest.Build(), // 25..29, 42..44 and 65..69 isolated
		"n=1":        NewBuilder(1).Build(),
	}
}

// checkPath reports why path is not a shortest u…v walk of g of length
// want (Unreachable: path must be nil), or "" when it is.
func checkPath(g *Graph, u, v int32, path []int32, want int32) string {
	if want == Unreachable {
		if path != nil {
			return fmt.Sprintf("unreachable pair returned %v", path)
		}
		return ""
	}
	if int32(len(path)) != want+1 {
		return fmt.Sprintf("path %v has %d hops, BFS distance is %d", path, len(path)-1, want)
	}
	if path[0] != u || path[len(path)-1] != v {
		return fmt.Sprintf("path %v does not run from %d to %d", path, u, v)
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(path[i-1], path[i]) {
			return fmt.Sprintf("path %v: %d–%d is not an edge", path, path[i-1], path[i])
		}
	}
	return ""
}

// TestShortestPathMatchesBFS checks the kernel on every ordered pair of
// every fixture against full-BFS distances: each path is a walk of graph
// edges from u to v of exactly the BFS length, unreachable pairs give nil
// (and Dist gives Unreachable), and a second call, with the same reused
// scratch or a fresh one, gives the same path.
func TestShortestPathMatchesBFS(t *testing.T) {
	var s PathScratch // shared by every fixture, largest and smallest alike
	for name, g := range pathFixtures() {
		t.Run(name, func(t *testing.T) {
			for u := int32(0); int(u) < g.N(); u++ {
				dist := g.BFS(u)
				for v := int32(0); int(v) < g.N(); v++ {
					path := g.ShortestPath(u, v, &s)
					if msg := checkPath(g, u, v, path, dist[v]); msg != "" {
						t.Fatalf("ShortestPath(%d, %d): %s", u, v, msg)
					}
					if again := g.ShortestPath(u, v, new(PathScratch)); !slices.Equal(again, path) {
						t.Fatalf("ShortestPath(%d, %d) = %v, then %v with a fresh scratch", u, v, path, again)
					}
					if again := g.ShortestPath(u, v, &s); !slices.Equal(again, path) {
						t.Fatalf("ShortestPath(%d, %d) = %v, then %v on a reused scratch", u, v, path, again)
					}
					if d := g.Dist(u, v); d != dist[v] {
						t.Fatalf("Dist(%d, %d) = %d, BFS distance is %d", u, v, d, dist[v])
					}
				}
			}
		})
	}
	for i, m := range s.mark {
		if m != 0 {
			t.Fatalf("scratch mark[%d] = %d after the last search, want 0", i, m)
		}
	}
}

// TestShortestPathVisitsLess pins the point of the kernel: between two
// far leaves of a complete binary tree, one-sided BFS floods nearly the
// whole tree, while the two sides meet at the root having each searched
// only around their own leaf.
func TestShortestPathVisitsLess(t *testing.T) {
	const n = 1<<12 - 1 // depth 11: leaves n/2..n-1
	b := NewBuilder(n)
	for v := int32(1); v < n; v++ {
		b.AddEdge(v, (v-1)/2)
	}
	g := b.Build()
	var s PathScratch
	if p := g.ShortestPath(n/2, n-1, &s); len(p) != 23 {
		t.Fatalf("path = %v, want 22 hops through the root", p)
	}
	if s.Visited() > n/8 {
		t.Fatalf("visited %d of %d vertices, want at most %d", s.Visited(), n, n/8)
	}
}

// TestShortestPathAllocs holds a warm ShortestPath to exactly one
// allocation: the returned path.
func TestShortestPathAllocs(t *testing.T) {
	g := Gnp(2000, 0.002, rand.New(rand.NewSource(3)))
	var s PathScratch
	var u, v int32
	for v = 1; g.Dist(u, v) < 3; v++ {
	}
	g.ShortestPath(u, v, &s) // grow the scratch
	allocs := testing.AllocsPerRun(200, func() {
		if g.ShortestPath(u, v, &s) == nil {
			t.Fatal("pair lost")
		}
	})
	if allocs != 1 {
		t.Fatalf("warm ShortestPath: %.1f allocs/op, want 1", allocs)
	}
}
