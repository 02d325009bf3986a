package routing

import (
	"math"
	"math/rand"
	"testing"

	"spanner/internal/graph"
)

func TestRouteReachesAndStretch3(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 3; seed++ {
		g := graph.ConnectedGnp(200, 0.05, rng)
		s, err := New(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		for u := int32(0); int(u) < g.N(); u += 7 {
			dist := g.BFS(u)
			for v := int32(0); int(v) < g.N(); v += 5 {
				if u == v {
					continue
				}
				path, err := s.Route(u, v)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if path[0] != u || path[len(path)-1] != v {
					t.Fatalf("path endpoints wrong: %v", path)
				}
				routeLen := int32(len(path) - 1)
				if routeLen < dist[v] {
					t.Fatalf("route shorter than distance?! %d < %d", routeLen, dist[v])
				}
				if routeLen > 3*dist[v] {
					t.Fatalf("seed %d: route %d→%d has length %d > 3·δ = %d",
						seed, u, v, routeLen, 3*dist[v])
				}
			}
		}
	}
}

func TestRouteExactWithinBall(t *testing.T) {
	// If u is strictly closer to w than w's landmark, routing is exact.
	rng := rand.New(rand.NewSource(2))
	g := graph.ConnectedGnp(150, 0.06, rng)
	s, err := New(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact := 0
	for w := int32(0); int(w) < g.N(); w += 3 {
		dw := g.BFS(w)
		for u := int32(0); int(u) < g.N(); u += 4 {
			if u == w || dw[u] < 1 {
				continue
			}
			if _, ok := s.direct.Get(u, w); !ok {
				continue
			}
			path, err := s.Route(u, w)
			if err != nil {
				t.Fatal(err)
			}
			if int32(len(path)-1) != dw[u] {
				t.Fatalf("in-ball route %d→%d has length %d, want exact %d",
					u, w, len(path)-1, dw[u])
			}
			exact++
		}
	}
	if exact == 0 {
		t.Fatal("no in-ball pairs sampled; test vacuous")
	}
}

func TestTableSizesNearSqrtN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.ConnectedGnp(3000, 8.0/3000, rng)
	s, err := New(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(g.N())
	total := 0
	for v := int32(0); int(v) < g.N(); v++ {
		total += s.TableSize(v)
	}
	avg := float64(total) / n
	bound := 10 * math.Sqrt(n*math.Log(n)) // Õ(√n) with generous constant
	if avg > bound {
		t.Fatalf("average table size %v above Õ(√n) = %v", avg, bound)
	}
	if len(s.Landmarks()) == 0 {
		t.Fatal("no landmarks sampled")
	}
}

func TestDisconnectedRouting(t *testing.T) {
	b := graph.NewBuilder(20)
	for v := int32(1); v < 10; v++ {
		b.AddEdge(v-1, v)
	}
	for v := int32(11); v < 20; v++ {
		b.AddEdge(v-1, v)
	}
	g := b.Build()
	s, err := New(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Route(0, 15); err == nil {
		t.Fatal("cross-component route should fail")
	}
	path, err := s.Route(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if int32(len(path)-1) > 3*9 {
		t.Fatal("in-component route too long")
	}
}

func TestTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		g := graph.Complete(n)
		s, err := New(g, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n == 2 {
			path, err := s.Route(0, 1)
			if err != nil || len(path) != 2 {
				t.Fatalf("K2 route failed: %v %v", path, err)
			}
		}
	}
}

func TestAddressesAreConstantSize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.ConnectedGnp(100, 0.08, rng)
	s, err := New(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < g.N(); v++ {
		a := s.AddressOf(v)
		if a.V != v {
			t.Fatal("address vertex wrong")
		}
		if a.Landmark == graph.Unreachable {
			t.Fatal("connected graph: every vertex needs a landmark")
		}
	}
}

func TestRouteOnStructuredGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := map[string]*graph.Graph{
		"ring":  graph.Ring(80),
		"grid":  graph.Grid(10, 10),
		"star":  graph.Star(60),
		"tree":  graph.RandomTree(90, rng),
		"dense": graph.Complete(30),
	}
	for name, g := range graphs {
		s, err := New(g, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for u := int32(0); int(u) < g.N(); u += 5 {
			dist := g.BFS(u)
			for v := int32(0); int(v) < g.N(); v += 7 {
				if u == v {
					continue
				}
				path, err := s.Route(u, v)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if int32(len(path)-1) > 3*dist[v] {
					t.Fatalf("%s: stretch violated for (%d,%d): %d > 3·%d",
						name, u, v, len(path)-1, dist[v])
				}
			}
		}
	}
}
