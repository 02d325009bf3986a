package verify_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spanner/internal/baseline"
	"spanner/internal/core"
	"spanner/internal/dynamic"
	"spanner/internal/graph"
	"spanner/internal/verify"
)

// refViolatedEdges is ViolatedEdges as it was before the multi-source
// kernel, the reference the kernel must reproduce edge for edge and in
// order: one truncated BFS of radius bound in S per vertex (a negative
// radius never truncates).
func refViolatedEdges(g *graph.Graph, s *graph.EdgeSet, bound int) [][2]int32 {
	sg := s.ToGraph(g.N())
	dist := sg.NewDistScratch()
	var viol [][2]int32
	for u := int32(0); int(u) < g.N(); u++ {
		if len(g.Neighbors(u)) == 0 {
			continue
		}
		reached := sg.TruncatedBFSInto(u, int32(bound), dist, nil)
		for _, v := range g.Neighbors(u) {
			if v > u && dist[v] == graph.Unreachable {
				viol = append(viol, [2]int32{u, v})
			}
		}
		graph.ResetDistScratch(dist, reached)
	}
	return viol
}

// checkViolated compares ViolatedEdges with the reference at bounds 0, 1
// and 2, at the derived bound and one short of it, and with no radius.
func checkViolated(t *testing.T, g *graph.Graph, s *graph.EdgeSet) {
	t.Helper()
	bounds := []int{0, 1, 2, -1}
	if d, err := dynamic.DeriveBound(g, s); err == nil {
		bounds = append(bounds, d, d-1)
	}
	for _, b := range bounds {
		got, want := verify.ViolatedEdges(g, s, b), refViolatedEdges(g, s, b)
		if !slices.Equal(got, want) {
			t.Fatalf("bound %d: %d violated edges, reference %d (or order differs)", b, len(got), len(want))
		}
	}
}

// bfsForest is a BFS spanning forest of g: a spanner whose stretch grows
// with the depth of its trees.
func bfsForest(g *graph.Graph) *graph.EdgeSet {
	s := graph.NewEdgeSet(g.N())
	seen := make([]bool, g.N())
	for r := int32(0); int(r) < g.N(); r++ {
		if seen[r] {
			continue
		}
		_, parent := g.BFSWithParents(r)
		for v, p := range parent {
			if p != graph.Unreachable {
				seen[v] = true
				s.Add(int32(v), p)
			}
		}
	}
	return s
}

func greedy(t *testing.T, g *graph.Graph, k int) *graph.EdgeSet {
	t.Helper()
	res, err := baseline.Greedy(g, k)
	if err != nil {
		t.Fatal(err)
	}
	return res.Spanner
}

// path returns the path 0–1–…–(n−1) as an edge set.
func path(n int) *graph.EdgeSet {
	s := graph.NewEdgeSet(n)
	graph.Path(n).ForEachEdge(s.Add)
	return s
}

// TestViolatedEdgesMatchesReference runs the families the witness-index
// kernel is checked on: vertex counts around one 64-source sweep, three
// graph families, spanners from tight (greedy) to deep (BFS forests, a
// ring missing one edge), the distributed skeleton, a chord far past 255
// hops and a disconnected certificate.
func TestViolatedEdgesMatchesReference(t *testing.T) {
	grids := map[int][2]int{1: {1, 1}, 63: {7, 9}, 64: {8, 8}, 65: {5, 13}}
	for _, n := range []int{1, 63, 64, 65} {
		rng := rand.New(rand.NewSource(int64(n)))
		ring := graph.Ring(n)
		open := graph.NewEdgeSet(n)
		ring.ForEachEdge(open.Add)
		open.Remove(0, int32(n-1))
		cases := map[string]*graph.Graph{
			"gnp":  graph.Gnp(n, 6/float64(n), rng),
			"grid": graph.Grid(grids[n][0], grids[n][1]),
			"ring": ring,
		}
		for name, g := range cases {
			t.Run(fmt.Sprintf("%s-n%d", name, n), func(t *testing.T) {
				checkViolated(t, g, greedy(t, g, 2))
				checkViolated(t, g, greedy(t, g, 3))
				checkViolated(t, g, bfsForest(g))
				if name == "ring" {
					checkViolated(t, g, open)
				}
			})
		}
	}

	const n = 300
	b := graph.NewBuilder(n)
	graph.Path(n).ForEachEdge(b.AddEdge)
	b.AddEdge(0, n-1)
	chord := b.Build()
	checkViolated(t, chord, path(n))
	cut := path(n)
	cut.Remove(150, 151)
	checkViolated(t, chord, cut)

	if testing.Short() {
		t.Skip("n=1500 skeleton builds")
	}
	for seed := int64(1); seed <= 2; seed++ {
		g := graph.ConnectedGnp(1500, 16.0/1500, rand.New(rand.NewSource(seed)))
		res, err := core.BuildSkeletonDistributed(g, core.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		checkViolated(t, g, res.Spanner)
	}
}

// TestViolatedEdgesBoundZero pins that bound 0 is a radius of 0, not "no
// radius": every edge is violated, even by the graph itself as its own
// spanner.
func TestViolatedEdgesBoundZero(t *testing.T) {
	g := graph.Grid(6, 5)
	s := graph.NewEdgeSet(g.M())
	g.ForEachEdge(s.Add)
	if viol := verify.ViolatedEdges(g, s, 0); !slices.Equal(viol, g.Edges()) {
		t.Fatalf("bound 0 violates %d of %d edges, want all", len(viol), g.M())
	}
	if viol := verify.ViolatedEdges(g, s, 1); len(viol) != 0 {
		t.Fatalf("bound 1 violates %d edges of the graph itself", len(viol))
	}
}

var sinkViolated [][2]int32

// BenchmarkViolatedEdges checks the distributed skeleton at servebench's
// shape (G(n,p) at n=5000, average degree 16, seed 1) against its derived
// bound, with the multi-source kernel and with the per-vertex reference.
// Run it with -cpu 1 and -cpu 2.
func BenchmarkViolatedEdges(b *testing.B) {
	g := graph.ConnectedGnp(5000, 16.0/5000, rand.New(rand.NewSource(1)))
	res, err := core.BuildSkeletonDistributed(g, core.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	bound, err := dynamic.DeriveBound(g, res.Spanner)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		f    func(*graph.Graph, *graph.EdgeSet, int) [][2]int32
	}{{"kernel", verify.ViolatedEdges}, {"reference", refViolatedEdges}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkViolated = c.f(g, res.Spanner, bound)
			}
			if len(sinkViolated) != 0 {
				b.Fatalf("%d edges violate the derived bound %d", len(sinkViolated), bound)
			}
		})
	}
}
