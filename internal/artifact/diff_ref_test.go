package artifact

import (
	"errors"
	"fmt"
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

// mapPatchGraph is the reference for Apply's graph patch: the base graph
// as a map edge set, each segment's adds then deletes applied key by key.
func mapPatchGraph(base *graph.Graph, segs []DeltaSegment) (*graph.Graph, error) {
	n := base.N()
	edges := graph.NewEdgeSet(base.M())
	base.ForEachEdge(func(u, v int32) { edges.Add(u, v) })
	for si := range segs {
		seg := &segs[si]
		for _, k := range seg.GraphAdd {
			if err := checkKey(k, n, si, "graph add"); err != nil {
				return nil, err
			}
			if edges.HasKey(k) {
				return nil, fmt.Errorf("%w: segment %d adds existing graph edge %d", ErrCorrupt, si, k)
			}
			edges.AddKey(k)
		}
		for _, k := range seg.GraphDel {
			if err := checkKey(k, n, si, "graph del"); err != nil {
				return nil, err
			}
			if !edges.HasKey(k) {
				return nil, fmt.Errorf("%w: segment %d deletes absent graph edge %d", ErrCorrupt, si, k)
			}
			edges.RemoveKey(k)
		}
	}
	return edges.ToGraph(n), nil
}

// randomSegments draws segments against the evolving edge set of base:
// mostly consistent adds and deletes, and with some probability a key the
// state conflicts with (an existing add, an absent delete, a duplicate or
// an out-of-range key).
func randomSegments(rng *rand.Rand, base *graph.Graph) []DeltaSegment {
	n := base.N()
	state := graph.NewEdgeSet(base.M())
	base.ForEachEdge(func(u, v int32) { state.Add(u, v) })
	var segs []DeltaSegment
	for s := rng.Intn(4) + 1; s > 0; s-- {
		var seg DeltaSegment
		pick := func(present bool) (int64, bool) {
			for try := 0; try < 20; try++ {
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if u != v && state.Has(u, v) == present {
					return graph.EdgeKey(u, v), true
				}
			}
			return 0, false
		}
		for i := rng.Intn(5); i > 0; i-- {
			if k, ok := pick(false); ok && !slices.Contains(seg.GraphAdd, k) {
				seg.GraphAdd = append(seg.GraphAdd, k)
			}
		}
		for _, k := range seg.GraphAdd {
			state.AddKey(k)
		}
		for i := rng.Intn(5); i > 0; i-- {
			if k, ok := pick(true); ok && !slices.Contains(seg.GraphDel, k) {
				seg.GraphDel = append(seg.GraphDel, k)
			}
		}
		for _, k := range seg.GraphDel {
			state.RemoveKey(k)
		}
		switch rng.Intn(8) {
		case 0: // add an edge the state already has
			if k, ok := pick(true); ok {
				seg.GraphAdd = append(seg.GraphAdd, k)
			}
		case 1: // delete an edge the state lacks
			if k, ok := pick(false); ok {
				seg.GraphDel = append(seg.GraphDel, k)
			}
		case 2: // the same key twice in one list
			if len(seg.GraphAdd) > 0 {
				seg.GraphAdd = append(seg.GraphAdd, seg.GraphAdd[0])
			}
		case 3: // a key beyond the vertex range
			seg.GraphDel = append(seg.GraphDel, graph.EdgeKey(0, int32(n)))
		}
		slices.Sort(seg.GraphAdd)
		slices.Sort(seg.GraphDel)
		segs = append(segs, seg)
	}
	return segs
}

// TestPatchGraphMatchesMapReference checks Apply's merge patch against the
// key-by-key map patch on random multi-segment deltas, conflicting ones
// included: the same patched graph, or the same error.
func TestPatchGraphMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	conflicts := 0
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(30) + 2
		base := randomGraph(rng, n, rng.Intn(3*n+1))
		segs := randomSegments(rng, base)
		want, wantErr := mapPatchGraph(base, segs)

		var got *graph.Graph
		var err error
		var edges []int64
		base.ForEachEdge(func(u, v int32) { edges = append(edges, graph.EdgeKey(u, v)) })
		for si := range segs {
			if edges, err = patchGraph(edges, &segs[si], n, si); err != nil {
				break
			}
		}
		if err == nil {
			got = graph.FromKeys(n, edges)
		}
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("trial %d: merge error %v, reference error %v", trial, err, wantErr)
		case err != nil:
			conflicts++
			if !errors.Is(err, ErrCorrupt) || err.Error() != wantErr.Error() {
				t.Fatalf("trial %d: merge error %q, reference %q", trial, err, wantErr)
			}
		case !slices.Equal(got.Edges(), want.Edges()):
			t.Fatalf("trial %d: merge graph %v, reference %v", trial, got.Edges(), want.Edges())
		}
	}
	if conflicts == 0 || conflicts == 2000 {
		t.Fatalf("%d of 2000 trials conflicted; want a mix", conflicts)
	}
}
