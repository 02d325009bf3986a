package routing

import (
	"math/rand"
	"slices"
	"testing"

	"spanner/internal/graph"
)

// TestLandmarkTrees checks the bit-parallel kernel tree by tree against
// single-source searches: on every shape and for landmark counts on both
// sides of one and two full sweeps, each tree's depth row is g.BFS from its
// landmark, its parent row is the rotated-scan rule applied to those
// distances (refParents), and its numbering is the reference stack DFS's,
// with pre inverting dfs.
func TestLandmarkTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	forest := graph.NewBuilder(160)
	for _, r := range [][2]int{{0, 50}, {50, 110}} {
		for v := r[0] + 1; v < r[1]; v++ {
			forest.AddEdge(int32(v), int32(r[0]+rng.Intn(v-r[0])))
		}
	}
	shapes := map[string]*graph.Graph{
		"gnp":    graph.Gnp(200, 0.04, rng),
		"grid":   graph.Grid(15, 12),
		"path":   graph.Path(150),
		"star":   graph.Star(150),
		"forest": forest.Build(),
		"n=1":    graph.Complete(1),
	}
	for name, g := range shapes {
		n := g.N()
		labels, count := g.ConnectedComponents()
		size := make([]int, count)
		for _, c := range labels {
			size[c]++
		}
		for _, k := range []int{1, 63, 64, 65, 129} {
			landmarks := make([]int32, 0, k)
			for _, v := range rng.Perm(n)[:min(k, n)] {
				landmarks = append(landmarks, int32(v))
			}
			reach := make([]int, len(landmarks))
			for i, l := range landmarks {
				reach[i] = size[labels[l]]
			}
			s := newScheme(g, landmarks)
			landmarkTrees(g, landmarks, s.trees, reach)
			for i, l := range landmarks {
				tr := &s.trees[i]
				if want := g.BFS(l); !slices.Equal(tr.depth, want) {
					t.Fatalf("%s, %d landmarks: tree %d (landmark %d) depth row differs from BFS", name, k, i, l)
				}
				if want := refParents(g, l); !slices.Equal(tr.parent, want) {
					t.Fatalf("%s, %d landmarks: tree %d (landmark %d) parents differ from the rotated-scan rule", name, k, i, l)
				}
				ref := refTree{parent: tr.parent}
				ref.index(l)
				if !slices.Equal(tr.dfs, ref.dfs) || !slices.Equal(tr.end, ref.end) {
					t.Fatalf("%s, %d landmarks: tree %d (landmark %d) numbering differs from the stack DFS", name, k, i, l)
				}
				for v, d := range tr.dfs {
					if d != graph.Unreachable && tr.pre[d] != int32(v) {
						t.Fatalf("%s, %d landmarks: tree %d pre[%d] = %d, want %d", name, k, i, d, tr.pre[d], v)
					}
				}
			}
		}
	}
}

// TestTableSizeSkew bounds the largest routing table at servebench's shape
// (G(n,p) at n=5000, average degree 16) to three times the mean. Child
// intervals are the part of a table the parent rule decides: the rotated
// scan keeps the largest table under twice the mean (1.89×), as a FIFO
// search's parents did (2.01×), while taking the lowest-id closer
// neighbour piles children on low ids and puts it at 3.88×.
func TestTableSizeSkew(t *testing.T) {
	const n = 5000
	g := graph.ConnectedGnp(n, 16.0/n, rand.New(rand.NewSource(3)))
	s, err := New(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	total, largest := 0, 0
	for v := int32(0); v < n; v++ {
		size := s.TableSize(v)
		total += size
		largest = max(largest, size)
	}
	mean := float64(total) / n
	if float64(largest) > 3*mean {
		t.Fatalf("largest table %d entries, %.2f× the mean %.1f; want at most 3×", largest, float64(largest)/mean, mean)
	}
	t.Logf("%d landmarks, largest table %d, mean %.1f (%.2f×)", len(s.Landmarks()), largest, mean, float64(largest)/mean)
}
