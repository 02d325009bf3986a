package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Property-based tests on the core data structures, per the repo's testing
// policy: each property is checked against a straightforward reference
// implementation over randomly generated inputs.

// randomEdgeList is a quick.Generator producing a small random graph spec.
type randomEdgeList struct {
	N     int
	Edges [][2]int32
}

func (randomEdgeList) Generate(r *rand.Rand, size int) reflect.Value {
	n := 2 + r.Intn(40)
	m := r.Intn(3 * n)
	edges := make([][2]int32, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]int32{int32(r.Intn(n)), int32(r.Intn(n))})
	}
	return reflect.ValueOf(randomEdgeList{N: n, Edges: edges})
}

// TestQuickBuilderMatchesReference: the CSR builder agrees with a naive
// map-based adjacency on membership, degree and edge count.
func TestQuickBuilderMatchesReference(t *testing.T) {
	f := func(spec randomEdgeList) bool {
		g := FromEdges(spec.N, spec.Edges)
		ref := make(map[int64]bool)
		deg := make(map[int32]int)
		for _, e := range spec.Edges {
			if e[0] == e[1] || ref[EdgeKey(e[0], e[1])] {
				continue
			}
			ref[EdgeKey(e[0], e[1])] = true
			deg[e[0]]++
			deg[e[1]]++
		}
		if g.M() != len(ref) {
			return false
		}
		for k := range ref {
			u, v := UnpackEdgeKey(k)
			if !g.HasEdge(u, v) || !g.HasEdge(v, u) {
				return false
			}
		}
		for v := int32(0); int(v) < spec.N; v++ {
			if g.Degree(v) != deg[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEdgeSetMatchesReference: EdgeSet behaves as a set.
func TestQuickEdgeSetMatchesReference(t *testing.T) {
	f := func(spec randomEdgeList) bool {
		s := NewEdgeSet(4)
		ref := make(map[int64]bool)
		for _, e := range spec.Edges {
			s.Add(e[0], e[1])
			if e[0] != e[1] {
				ref[EdgeKey(e[0], e[1])] = true
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for k := range ref {
			u, v := UnpackEdgeKey(k)
			if !s.Has(u, v) {
				return false
			}
		}
		g := s.ToGraph(spec.N)
		return g.M() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBFSTriangleInequality: BFS distances satisfy |d(u)−d(v)| ≤ 1
// across every edge, d(src) = 0, and reachable distances are realized by
// parent chains.
func TestQuickBFSTriangleInequality(t *testing.T) {
	f := func(spec randomEdgeList, srcSeed uint8) bool {
		g := FromEdges(spec.N, spec.Edges)
		src := int32(int(srcSeed) % spec.N)
		dist, parent := g.BFSWithParents(src)
		if dist[src] != 0 {
			return false
		}
		ok := true
		g.ForEachEdge(func(u, v int32) {
			du, dv := dist[u], dist[v]
			if (du == Unreachable) != (dv == Unreachable) {
				ok = false
				return
			}
			if du != Unreachable && absDiff(du, dv) > 1 {
				ok = false
			}
		})
		if !ok {
			return false
		}
		for v := int32(0); int(v) < spec.N; v++ {
			if dist[v] <= 0 {
				continue
			}
			// The parent walk from v is a path of dist[v] graph edges.
			x, hops := v, int32(0)
			for ; x != src && hops <= dist[v]; hops++ {
				if !g.HasEdge(x, parent[x]) {
					return false
				}
				x = parent[x]
			}
			if x != src || hops != dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func absDiff(a, b int32) int32 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestQuickComponentsPartition: component labels form a partition
// consistent with edges, and counts match label cardinality.
func TestQuickComponentsPartition(t *testing.T) {
	f := func(spec randomEdgeList) bool {
		g := FromEdges(spec.N, spec.Edges)
		label, count := g.ConnectedComponents()
		seen := make(map[int32]bool)
		for _, l := range label {
			if l < 0 || int(l) >= count {
				return false
			}
			seen[l] = true
		}
		if len(seen) != count {
			return false
		}
		ok := true
		g.ForEachEdge(func(u, v int32) {
			if label[u] != label[v] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTruncatedBFSAgreesWithFull: truncation yields exactly the
// restriction of the full BFS to the radius.
func TestQuickTruncatedBFSAgreesWithFull(t *testing.T) {
	f := func(spec randomEdgeList, srcSeed, radSeed uint8) bool {
		g := FromEdges(spec.N, spec.Edges)
		src := int32(int(srcSeed) % spec.N)
		radius := int32(radSeed % 6)
		full := g.BFS(src)
		scratch := g.NewDistScratch()
		reached := g.TruncatedBFSInto(src, radius, scratch, nil)
		for v := int32(0); int(v) < spec.N; v++ {
			want := full[v]
			if want == Unreachable || want > radius {
				want = Unreachable
			}
			if scratch[v] != want {
				return false
			}
		}
		ResetDistScratch(scratch, reached)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGirthWitness: if Girth reports g, some cycle of that length
// exists (validated by the stronger property: removing any edge of the
// graph never *decreases* girth).
func TestQuickGirthMonotoneUnderEdgeRemoval(t *testing.T) {
	f := func(spec randomEdgeList) bool {
		g := FromEdges(spec.N, spec.Edges)
		if g.M() == 0 {
			return g.Girth() == Unreachable
		}
		girth := g.Girth()
		// Remove one arbitrary edge.
		edges := g.Edges()
		rest := FromEdges(spec.N, edges[1:])
		g2 := rest.Girth()
		if girth == Unreachable {
			return g2 == Unreachable
		}
		return g2 == Unreachable || g2 >= girth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
