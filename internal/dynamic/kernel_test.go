package dynamic

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"spanner/internal/baseline"
	"spanner/internal/core"
	"spanner/internal/graph"
)

// The reference below is the per-source witness-index build and bound
// derivation that the multi-source kernel replaced: one BFS per vertex over
// the spanner, a map of unsettled forward neighbours per vertex in
// DeriveBound. The kernel must reproduce its witnesses, inverted index,
// bound and errors exactly, at every worker count.

// refDeriveBound is DeriveBound with one BFS per vertex.
func refDeriveBound(g *graph.Graph, spanner *graph.EdgeSet) (int, error) {
	sg := spanner.ToGraph(g.N())
	dist := sg.NewDistScratch()
	worst := int32(1)
	for u := int32(0); int(u) < g.N(); u++ {
		rem := make(map[int32]bool) // forward neighbors still unsettled
		for _, v := range g.Neighbors(u) {
			if v > u {
				rem[v] = true
			}
		}
		if len(rem) == 0 {
			continue
		}
		dist[u] = 0
		reached := []int32{u}
		for head := 0; head < len(reached) && len(rem) > 0; head++ {
			x := reached[head]
			for _, y := range sg.Neighbors(x) {
				if dist[y] != graph.Unreachable {
					continue
				}
				dist[y] = dist[x] + 1
				reached = append(reached, y)
				if rem[y] {
					delete(rem, y)
					if dist[y] > worst {
						worst = dist[y]
					}
				}
			}
		}
		graph.ResetDistScratch(dist, reached)
		if len(rem) > 0 {
			return 0, fmt.Errorf("dynamic: cannot derive bound: %d graph edges at vertex %d unreachable in spanner", len(rem), u)
		}
	}
	if worst < 3 {
		worst = 3
	}
	return int(worst), nil
}

// refInitWitnesses is initWitnesses with one truncated BFS per vertex.
func refInitWitnesses(m *Maintainer) error {
	m.witness = make(map[int64][]int64, m.edges.Len())
	m.usedBy = make(map[int64]map[int64]struct{}, m.spanner.Len())
	fwd := make([][]int32, m.n)
	m.edges.ForEach(func(u, v int32) { fwd[u] = append(fwd[u], v) })
	dist := m.dist
	limit := int32(m.bound)
	bad := 0
	for u := int32(0); int(u) < m.n; u++ {
		if len(fwd[u]) == 0 {
			continue
		}
		dist[u] = 0
		reached := []int32{u}
		for head := 0; head < len(reached); head++ {
			x := reached[head]
			dx := dist[x]
			if dx == limit {
				continue
			}
			for _, y := range m.sadj[x] {
				if dist[y] == graph.Unreachable {
					dist[y] = dx + 1
					reached = append(reached, y)
				}
			}
		}
		for _, v := range fwd[u] {
			if dist[v] == graph.Unreachable {
				bad++
				continue
			}
			m.setWitness(graph.EdgeKey(u, v), m.walkWitness(dist, u, v))
		}
		graph.ResetDistScratch(dist, reached)
	}
	if bad > 0 {
		return fmt.Errorf("%w: %d edges stretched past %d", ErrInvalidSpanner, bad, m.bound)
	}
	return nil
}

// refIndex builds the reference index over m's current graph, spanner
// adjacency and bound, leaving m untouched.
func refIndex(m *Maintainer) (*Maintainer, error) {
	r := &Maintainer{n: m.n, bound: m.bound, edges: m.edges, spanner: m.spanner, sadj: m.sadj}
	r.dist = make([]int32, m.n)
	for i := range r.dist {
		r.dist[i] = graph.Unreachable
	}
	return r, refInitWitnesses(r)
}

// refNewMaintainer is NewMaintainer's validation and index build as they
// were: DeriveBound first when no bound is given, then the index.
func refNewMaintainer(g *graph.Graph, spanner *graph.EdgeSet, bound int) (*Maintainer, error) {
	if bound <= 0 {
		b, err := refDeriveBound(g, spanner)
		if err != nil {
			return nil, err
		}
		bound = b
	}
	m := &Maintainer{n: g.N(), bound: bound, edges: graph.NewEdgeSet(g.M()), spanner: spanner.Clone()}
	g.ForEachEdge(func(u, v int32) { m.edges.Add(u, v) })
	m.rebuildAdj()
	return refIndex(m)
}

// sameError reports whether two errors agree in type and text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() && errors.Is(a, ErrInvalidSpanner) == errors.Is(b, ErrInvalidSpanner)
}

// checkIndex compares the kernel's maintainer against the reference at one
// configured bound (0 = derived).
func checkIndex(t *testing.T, g *graph.Graph, s *graph.EdgeSet, bound int) {
	t.Helper()
	want, wantErr := refNewMaintainer(g, s, bound)
	got, err := NewMaintainer(g, s, Config{Bound: bound})
	if !sameError(err, wantErr) {
		t.Fatalf("bound %d: error %v, reference %v", bound, err, wantErr)
	}
	if err != nil {
		return
	}
	if got.Bound() != want.bound {
		t.Fatalf("bound %d: maintains %d, reference %d", bound, got.Bound(), want.bound)
	}
	if !reflect.DeepEqual(got.witness, want.witness) {
		t.Fatalf("bound %d: witness paths differ from the reference", bound)
	}
	if !reflect.DeepEqual(got.usedBy, want.usedBy) {
		t.Fatalf("bound %d: inverted index differs from the reference", bound)
	}
}

// checkAll compares DeriveBound and NewMaintainer against the reference
// with the bound derived, given exactly, given one short (so the edges at
// the worst stretch are rejected) and given as 3.
func checkAll(t *testing.T, g *graph.Graph, s *graph.EdgeSet) int {
	t.Helper()
	want, wantErr := refDeriveBound(g, s)
	got, err := DeriveBound(g, s)
	if got != want || !sameError(err, wantErr) {
		t.Fatalf("DeriveBound = %d, %v; reference %d, %v", got, err, want, wantErr)
	}
	for _, b := range []int{0, want, want - 1, 3} {
		if b != 0 && b < 2 {
			continue
		}
		checkIndex(t, g, s, b)
	}
	return want
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
		seen[r] = true
		queue := []int32{r}
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for _, y := range g.Neighbors(x) {
				if !seen[y] {
					seen[y] = true
					s.Add(x, y)
					queue = append(queue, y)
				}
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

// TestKernelMatchesReferenceSkeleton covers the distributed skeleton, whose
// derived bound makes each search cover most of the graph.
func TestKernelMatchesReferenceSkeleton(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1500 skeleton builds")
	}
	for seed := int64(1); seed <= 2; seed++ {
		g := graph.ConnectedGnp(1500, 16.0/1500, rand.New(rand.NewSource(seed)))
		res, err := core.BuildSkeletonDistributed(g, core.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if b := checkAll(t, g, res.Spanner); b <= 10 {
			t.Fatalf("seed %d: skeleton bound %d, want > 10 to exercise deep searches", seed, b)
		}
	}
}

// TestKernelMatchesReferenceFamilies covers vertex counts around one
// 64-source sweep, three graph families and spanners from tight (greedy)
// to deep (BFS forests, a ring missing one edge).
func TestKernelMatchesReferenceFamilies(t *testing.T) {
	grids := map[int][2]int{1: {1, 1}, 63: {7, 9}, 64: {8, 8}, 65: {5, 13}}
	for _, n := range []int{1, 63, 64, 65} {
		rng := rand.New(rand.NewSource(int64(n)))
		ring := graph.Ring(n)
		open := graph.NewEdgeSet(n)
		ring.ForEachEdge(func(u, v int32) { open.Add(u, v) })
		open.Remove(0, int32(n-1))
		cases := map[string]*graph.Graph{
			"gnp":  graph.Gnp(n, 6/float64(n), rng),
			"grid": graph.Grid(grids[n][0], grids[n][1]),
			"ring": ring,
		}
		for name, g := range cases {
			t.Run(fmt.Sprintf("%s-n%d", name, n), func(t *testing.T) {
				checkAll(t, g, greedy(t, g, 2))
				checkAll(t, g, greedy(t, g, 3))
				checkAll(t, g, bfsForest(g))
				if name == "ring" && n > 2 {
					if b := checkAll(t, g, open); b != max(n-1, 3) {
						t.Fatalf("open ring bound %d, want %d", b, n-1)
					}
				}
			})
		}
	}
}

// TestKernelMatchesReferenceEdgeCases covers a chord far past 255 hops, a
// disconnected certificate and an edge past a given bound.
func TestKernelMatchesReferenceEdgeCases(t *testing.T) {
	const n = 300
	chord := pathGraph(n, [2]int32{0, n - 1})
	if b := checkAll(t, chord, pathSpanner(n)); b != n-1 {
		t.Fatalf("chord bound %d, want %d", b, n-1)
	}

	cut := pathSpanner(n)
	cut.Remove(150, 151)
	checkAll(t, chord, cut)
	if _, err := NewMaintainer(chord, cut, Config{}); err == nil || errors.Is(err, ErrInvalidSpanner) {
		t.Fatalf("derived bound across a disconnected certificate: %v", err)
	}
	if _, err := NewMaintainer(chord, cut, Config{Bound: n}); !errors.Is(err, ErrInvalidSpanner) {
		t.Fatalf("disconnected certificate accepted at a given bound: %v", err)
	}

	past := pathGraph(8, [2]int32{0, 5}, [2]int32{2, 7})
	checkAll(t, past, pathSpanner(8))
	_, err := NewMaintainer(past, pathSpanner(8), Config{Bound: 4})
	if want := "2 edges stretched past 4"; !errors.Is(err, ErrInvalidSpanner) || err.Error() != ErrInvalidSpanner.Error()+": "+want {
		t.Fatalf("edge past a given bound: %v", err)
	}
}

// TestKernelMatchesReferenceAfterRebuild checks the index that a rebuild
// escalation inside ApplyBatch rebuilds from scratch.
func TestKernelMatchesReferenceAfterRebuild(t *testing.T) {
	m, _ := testMaintainer(t, 120, 5, Config{Policy: RebuildPolicy{MaxBatches: 1}})
	batches, err := GenerateStream(m.Graph(), StreamConfig{Seed: 5, Batches: 3, BatchSize: 12})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		rep, err := m.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Rebuilt {
			t.Fatalf("batch %d did not rebuild", i+1)
		}
		want, err := refIndex(m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.witness, want.witness) || !reflect.DeepEqual(m.usedBy, want.usedBy) {
			t.Fatalf("batch %d: rebuilt index differs from the reference", i+1)
		}
	}
}
