package artifact

import (
	"math/rand"
	"slices"
	"testing"

	"spanner/internal/graph"
)

// mapDiffGraphs is the reference for diffGraphs: both graphs as map edge
// sets, each probed against the other, keys sorted afterwards.
func mapDiffGraphs(base, next *graph.Graph) (add, del []int64) {
	baseEdges := graph.NewEdgeSet(base.M())
	base.ForEachEdge(func(u, v int32) { baseEdges.Add(u, v) })
	nextEdges := graph.NewEdgeSet(next.M())
	next.ForEachEdge(func(u, v int32) { nextEdges.Add(u, v) })
	nextEdges.ForEach(func(u, v int32) {
		if !baseEdges.Has(u, v) {
			add = append(add, graph.EdgeKey(u, v))
		}
	})
	baseEdges.ForEach(func(u, v int32) {
		if !nextEdges.Has(u, v) {
			del = append(del, graph.EdgeKey(u, v))
		}
	})
	slices.Sort(add)
	slices.Sort(del)
	return add, del
}

// randomGraph draws m random edges (duplicates and self-pairs skipped).
func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < m && n > 1; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// TestDiffGraphsMatchesMapReference checks the merge against the map-based
// diff on random graph pairs, including empty, identical and one-sided
// pairs.
func TestDiffGraphsMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		base := randomGraph(rng, n, rng.Intn(3*n+1))
		var next *graph.Graph
		switch trial % 4 {
		case 0:
			next = base
		case 1:
			next = randomGraph(rng, n, 0)
		default:
			next = randomGraph(rng, n, rng.Intn(3*n+1))
		}
		for _, pair := range [][2]*graph.Graph{{base, next}, {next, base}} {
			add, del := diffGraphs(pair[0], pair[1])
			wantAdd, wantDel := mapDiffGraphs(pair[0], pair[1])
			if !slices.Equal(add, wantAdd) || !slices.Equal(del, wantDel) {
				t.Fatalf("trial %d (n=%d): merge add %v del %v, reference add %v del %v",
					trial, n, add, del, wantAdd, wantDel)
			}
		}
	}
}

// TestDiffMatchesMapReference checks Diff's graph keys against the
// reference on real artifact pairs: a changed pair in both directions and
// an identical pair.
func TestDiffMatchesMapReference(t *testing.T) {
	base, next := testDeltaPair(t)
	for _, pair := range [][2]*Artifact{{base, next}, {next, base}, {base, base}} {
		d, err := Diff(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		wantAdd, wantDel := mapDiffGraphs(pair[0].Graph, pair[1].Graph)
		seg := d.Segments[0]
		if !slices.Equal(seg.GraphAdd, wantAdd) || !slices.Equal(seg.GraphDel, wantDel) {
			t.Fatalf("Diff graph keys add %v del %v, reference add %v del %v",
				seg.GraphAdd, seg.GraphDel, wantAdd, wantDel)
		}
	}
}
