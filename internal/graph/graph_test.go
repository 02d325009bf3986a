package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(2, 2) // self-loop dropped
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(3, 2) {
		t.Fatal("expected edges missing")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("unexpected edge (0,2)")
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees = %d,%d, want 1,1", g.Degree(0), g.Degree(1))
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestBuilderReuse(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g1 := b.Build()
	b.AddEdge(1, 2)
	g2 := b.Build()
	if g1.M() != 1 || g2.M() != 2 {
		t.Fatalf("g1.M=%d g2.M=%d, want 1,2", g1.M(), g2.M())
	}
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("zero graph: n=%d m=%d", g.N(), g.M())
	}
	g2 := NewBuilder(5).Build()
	if g2.N() != 5 || g2.M() != 0 {
		t.Fatalf("edgeless graph: n=%d m=%d", g2.N(), g2.M())
	}
	if g2.MaxDegree() != 0 || g2.AvgDegree() != 0 {
		t.Fatal("edgeless graph has nonzero degree stats")
	}
}

func TestEdgeKeyRoundTrip(t *testing.T) {
	f := func(a, b int32) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		u, v := UnpackEdgeKey(EdgeKey(a, b))
		if a <= b {
			return u == a && v == b
		}
		return u == b && v == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Gnp(200, 0.05, rng)
	for v := int32(0); int(v) < g.N(); v++ {
		ns := g.Neighbors(v)
		for i := 1; i < len(ns); i++ {
			if ns[i-1] >= ns[i] {
				t.Fatalf("neighbors of %d not strictly sorted: %v", v, ns)
			}
		}
	}
}

func TestForEachEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := Gnp(150, 0.1, rng)
	count := 0
	g.ForEachEdge(func(u, v int32) {
		if u >= v {
			t.Fatalf("ForEachEdge yielded u=%d >= v=%d", u, v)
		}
		count++
	})
	if count != g.M() {
		t.Fatalf("ForEachEdge visited %d edges, M=%d", count, g.M())
	}
	if len(g.Edges()) != g.M() {
		t.Fatal("Edges() length mismatch")
	}
}

func TestGnpEdgeCountConcentration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, p := 600, 0.05
	expected := p * float64(n) * float64(n-1) / 2
	got := float64(Gnp(n, p, rng).M())
	if got < 0.8*expected || got > 1.2*expected {
		t.Fatalf("Gnp edge count %v far from expectation %v", got, expected)
	}
}

func TestGnpExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if g := Gnp(10, 0, rng); g.M() != 0 {
		t.Fatal("Gnp(p=0) has edges")
	}
	if g := Gnp(10, 1, rng); g.M() != 45 {
		t.Fatalf("Gnp(p=1).M = %d, want 45", g.M())
	}
	if g := Gnp(1, 0.5, rng); g.N() != 1 || g.M() != 0 {
		t.Fatal("Gnp(n=1) wrong")
	}
}

func TestGnmExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := Gnm(50, 200, rng)
	if g.M() != 200 {
		t.Fatalf("Gnm.M = %d, want 200", g.M())
	}
	// m beyond the maximum clamps to complete.
	g2 := Gnm(5, 100, rng)
	if g2.M() != 10 {
		t.Fatalf("clamped Gnm.M = %d, want 10", g2.M())
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, err := RandomRegular(100, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Fatal("odd n*d should error")
	}
	if _, err := RandomRegular(4, 5, rng); err == nil {
		t.Fatal("d >= n should error")
	}
}

func TestStructuredGenerators(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"complete", Complete(6), 6, 15},
		{"bipartite", CompleteBipartite(3, 4), 7, 12},
		{"path", Path(5), 5, 4},
		{"ring", Ring(5), 5, 5},
		{"ring2", Ring(2), 2, 1},
		{"star", Star(7), 7, 6},
		{"grid", Grid(3, 4), 12, 17},
		{"torus", Torus(3, 4), 12, 24},
		{"hypercube", Hypercube(4), 16, 32},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.n || tt.g.M() != tt.m {
				t.Fatalf("got n=%d m=%d, want n=%d m=%d", tt.g.N(), tt.g.M(), tt.n, tt.m)
			}
		})
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomTree(64, rng)
	if g.M() != 63 {
		t.Fatalf("tree M = %d, want 63", g.M())
	}
	if !g.IsConnected() {
		t.Fatal("tree not connected")
	}
	if g.Girth() != Unreachable {
		t.Fatalf("tree has girth %d, want none", g.Girth())
	}
}

func TestConnectedGnp(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 10, 300} {
		g := ConnectedGnp(n, 1.5/float64(n+1), rng)
		if !g.IsConnected() {
			t.Fatalf("ConnectedGnp(n=%d) not connected", n)
		}
	}
}

func TestPreferentialAttachment(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := PreferentialAttachment(200, 3, rng)
	if g.N() != 200 {
		t.Fatal("wrong n")
	}
	if !g.IsConnected() {
		t.Fatal("PA graph should be connected")
	}
}

func TestWattsStrogatz(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	g := WattsStrogatz(300, 4, 0.1, rng)
	if g.N() != 300 {
		t.Fatal("wrong n")
	}
	// Rewiring only drops duplicate/self edges, so m is near n·w.
	if g.M() < 1000 || g.M() > 1200 {
		t.Fatalf("m = %d, expected ≈ 1200", g.M())
	}
	// Small world: diameter far below the circulant's n/(2w).
	if d := g.ApproxDiameter(); d >= 300/(2*4) {
		t.Fatalf("diameter %d not small-world", d)
	}
	// beta = 0 degenerates to the circulant.
	g0 := WattsStrogatz(100, 3, 0, rng)
	c := Circulant(100, 3)
	if g0.M() != c.M() {
		t.Fatal("beta=0 should equal the circulant")
	}
}

func TestCommunities(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := Communities(200, 4, 0.3, 0.005, rng)
	if g.N() != 200 {
		t.Fatal("wrong n")
	}
	// Count intra vs inter edges: intra must dominate heavily.
	intra, inter := 0, 0
	group := func(v int32) int { return int(v) * 4 / 200 }
	g.ForEachEdge(func(u, v int32) {
		if group(u) == group(v) {
			intra++
		} else {
			inter++
		}
	})
	if intra < 5*inter {
		t.Fatalf("community structure weak: intra=%d inter=%d", intra, inter)
	}
}

func TestBFSOnPath(t *testing.T) {
	g := Path(6)
	dist := g.BFS(0)
	for v, d := range dist {
		if d != int32(v) {
			t.Fatalf("dist[%d] = %d, want %d", v, d, v)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := FromEdges(4, [][2]int32{{0, 1}, {2, 3}})
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatalf("dist = %v, want unreachable for 2,3", dist)
	}
}

// bruteDistances computes all-pairs distances by repeated BFS for reference.
func bruteDistances(g *Graph) [][]int32 {
	out := make([][]int32, g.N())
	for v := int32(0); int(v) < g.N(); v++ {
		out[v] = g.BFS(v)
	}
	return out
}

// TestBFSWithParentsMatchesMultiSource pins the single-source kernel to
// MultiSourceBFS from the same source: identical distances and parents,
// also when BFSInto reuses scratch left dirty by an earlier search.
func TestBFSWithParentsMatchesMultiSource(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		g := Gnp(80, 0.05, rng)
		dist, parent := make([]int32, g.N()), make([]int32, g.N())
		var queue []int32
		for src := int32(0); int(src) < g.N(); src++ {
			wantDist, _, wantParent := g.MultiSourceBFS([]int32{src})
			gotDist, gotParent := g.BFSWithParents(src)
			queue = g.BFSInto(src, dist, parent, queue)
			for v := range wantDist {
				if gotDist[v] != wantDist[v] || gotParent[v] != wantParent[v] ||
					dist[v] != wantDist[v] || parent[v] != wantParent[v] {
					t.Fatalf("trial %d src %d vertex %d: dist/parent %d/%d and %d/%d, want %d/%d",
						trial, src, v, gotDist[v], gotParent[v], dist[v], parent[v], wantDist[v], wantParent[v])
				}
			}
			reached := 0
			for _, d := range wantDist {
				if d != Unreachable {
					reached++
				}
			}
			if len(queue) != reached {
				t.Fatalf("trial %d src %d: BFSInto returned %d vertices, %d reached", trial, src, len(queue), reached)
			}
		}
	}
}

// TestBFSComponentIntoMatchesBFSInto: stopping once the source's component
// is fully queued changes nothing. On graphs with several components and
// isolated vertices, from every source, BFSComponentInto and BFSInto give
// the distances, parents and queue order of a search that scans every
// queued vertex's neighbors.
func TestBFSComponentIntoMatchesBFSInto(t *testing.T) {
	fullScan := func(g *Graph, src int32) (dist, parent, order []int32) {
		dist, parent = make([]int32, g.N()), make([]int32, g.N())
		for i := range dist {
			dist[i], parent[i] = Unreachable, Unreachable
		}
		dist[src], parent[src] = 0, src
		order = []int32{src}
		for head := 0; head < len(order); head++ {
			u := order[head]
			for _, v := range g.Neighbors(u) {
				if dist[v] == Unreachable {
					dist[v], parent[v] = dist[u]+1, u
					order = append(order, v)
				}
			}
		}
		return dist, parent, order
	}
	rng := rand.New(rand.NewSource(21))
	graphs := []*Graph{Gnp(1, 0, rng), Path(5), Grid(6, 4)}
	for trial := 0; trial < 8; trial++ {
		// Average degree about 1.5: many components, many isolated vertices.
		graphs = append(graphs, Gnp(120, 1.5/120, rng))
	}
	for gi, g := range graphs {
		labels, count := g.ConnectedComponents()
		size := make([]int, count)
		for _, c := range labels {
			size[c]++
		}
		dist, parent := make([]int32, g.N()), make([]int32, g.N())
		var queue []int32
		for src := int32(0); int(src) < g.N(); src++ {
			wantDist, wantParent, wantOrder := fullScan(g, src)
			for _, kernel := range []string{"component", "full"} {
				if kernel == "component" {
					queue = g.BFSComponentInto(src, size[labels[src]], dist, parent, queue)
				} else {
					queue = g.BFSInto(src, dist, parent, queue)
				}
				if !slices.Equal(dist, wantDist) || !slices.Equal(parent, wantParent) ||
					!slices.Equal(queue, wantOrder) {
					t.Fatalf("graph %d src %d (%s kernel): dist/parent/order differ from a full scan", gi, src, kernel)
				}
			}
		}
	}
}

func TestMultiSourceBFSMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		g := Gnp(60, 0.07, rng)
		all := bruteDistances(g)
		k := 1 + rng.Intn(5)
		sources := make([]int32, 0, k)
		seen := map[int32]bool{}
		for len(sources) < k {
			s := int32(rng.Intn(g.N()))
			if !seen[s] {
				seen[s] = true
				sources = append(sources, s)
			}
		}
		dist, nearest, parent := g.MultiSourceBFS(sources)
		for v := int32(0); int(v) < g.N(); v++ {
			// reference: min distance and min-id argmin
			best, who := Unreachable, Unreachable
			for _, s := range sources {
				d := all[s][v]
				if d == Unreachable {
					continue
				}
				if best == Unreachable || d < best || (d == best && s < who) {
					best, who = d, s
				}
			}
			if dist[v] != best {
				t.Fatalf("dist[%d] = %d, want %d", v, dist[v], best)
			}
			if nearest[v] != who {
				t.Fatalf("nearest[%d] = %d, want %d (dist %d)", v, nearest[v], who, best)
			}
			if best == Unreachable {
				if parent[v] != Unreachable {
					t.Fatalf("unreached %d has parent %d", v, parent[v])
				}
				continue
			}
			// parent consistency: one step closer to the owning source.
			if dist[v] > 0 {
				p := parent[v]
				if !g.HasEdge(p, v) {
					t.Fatalf("parent edge (%d,%d) not in graph", p, v)
				}
				if dist[p] != dist[v]-1 {
					t.Fatalf("parent[%d]=%d at dist %d, want %d", v, p, dist[p], dist[v]-1)
				}
				if nearest[p] != nearest[v] {
					t.Fatalf("parent owner %d != owner %d at v=%d", nearest[p], nearest[v], v)
				}
			}
		}
	}
}

func TestTruncatedBFS(t *testing.T) {
	g := Path(10)
	dist := g.NewDistScratch()
	var visited []int32
	reached := g.TruncatedBFS(4, 2, dist, func(v, d int32) { visited = append(visited, v) })
	if len(reached) != 5 {
		t.Fatalf("reached %d vertices, want 5 (2,3,4,5,6)", len(reached))
	}
	if dist[2] != 2 || dist[6] != 2 || dist[1] != Unreachable || dist[7] != Unreachable {
		t.Fatalf("truncated dist wrong: %v", dist)
	}
	if len(visited) != len(reached) {
		t.Fatal("visit callback count mismatch")
	}
	ResetDistScratch(dist, reached)
	for _, d := range dist {
		if d != Unreachable {
			t.Fatal("scratch not reset")
		}
	}
}

func TestPathTo(t *testing.T) {
	g := Path(6)
	_, parent := g.BFSWithParents(0)
	p := PathTo(parent, 5)
	if len(p) != 6 || p[0] != 5 || p[5] != 0 {
		t.Fatalf("path = %v", p)
	}
	g2 := FromEdges(3, [][2]int32{{0, 1}})
	_, parent2 := g2.BFSWithParents(0)
	if PathTo(parent2, 2) != nil {
		t.Fatal("expected nil path for unreachable vertex")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges(7, [][2]int32{{0, 1}, {1, 2}, {3, 4}})
	label, k := g.ConnectedComponents()
	if k != 4 {
		t.Fatalf("components = %d, want 4", k)
	}
	if label[0] != label[2] || label[3] != label[4] || label[0] == label[3] || label[5] == label[6] {
		t.Fatalf("bad labels %v", label)
	}
}

func TestSameComponents(t *testing.T) {
	g := FromEdges(5, [][2]int32{{0, 1}, {1, 2}, {3, 4}})
	h := FromEdges(5, [][2]int32{{0, 2}, {2, 1}, {4, 3}})
	if !SameComponents(g, h) {
		t.Fatal("equal component structure not recognized")
	}
	h2 := FromEdges(5, [][2]int32{{0, 1}, {3, 4}})
	if SameComponents(g, h2) {
		t.Fatal("splitting a component should be detected")
	}
	if SameComponents(g, FromEdges(4, nil)) {
		t.Fatal("different n should be detected")
	}
}

func TestDiameter(t *testing.T) {
	if d := Path(10).Diameter(); d != 9 {
		t.Fatalf("path diameter %d, want 9", d)
	}
	if d := Ring(10).Diameter(); d != 5 {
		t.Fatalf("ring diameter %d, want 5", d)
	}
	if d := Complete(5).Diameter(); d != 1 {
		t.Fatalf("complete diameter %d, want 1", d)
	}
	if d := Hypercube(5).Diameter(); d != 5 {
		t.Fatalf("hypercube diameter %d, want 5", d)
	}
}

func TestApproxDiameterOnTree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := RandomTree(80, rng)
		if g.ApproxDiameter() != g.Diameter() {
			t.Fatal("double sweep must be exact on trees")
		}
	}
}

func TestGirth(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int32
	}{
		{"triangle", Complete(3), 3},
		{"c5", Ring(5), 5},
		{"c8", Ring(8), 8},
		{"k4", Complete(4), 3},
		{"bipartite", CompleteBipartite(2, 3), 4},
		{"path", Path(6), Unreachable},
		{"hypercube", Hypercube(3), 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Girth(); got != tt.want {
				t.Fatalf("girth = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestEdgeSetBasics(t *testing.T) {
	s := NewEdgeSet(4)
	s.Add(1, 2)
	s.Add(2, 1)
	s.Add(3, 3) // ignored self-loop
	s.AddPath([]int32{0, 1, 2, 3})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !s.Has(2, 3) || s.Has(0, 3) {
		t.Fatal("membership wrong")
	}
	g := s.ToGraph(4)
	if g.M() != 3 || !g.HasEdge(0, 1) {
		t.Fatal("ToGraph wrong")
	}
	other := NewEdgeSet(1)
	other.Add(0, 3)
	s.AddAll(other)
	if s.Len() != 4 {
		t.Fatal("AddAll failed")
	}
	if len(s.Keys()) != 4 {
		t.Fatal("Keys length wrong")
	}
	count := 0
	s.ForEach(func(u, v int32) {
		if u >= v {
			t.Fatal("ForEach order violated")
		}
		count++
	})
	if count != 4 {
		t.Fatal("ForEach count wrong")
	}
}

func TestEdgeSetSubset(t *testing.T) {
	g := Path(5)
	s := NewEdgeSet(2)
	s.Add(0, 1)
	s.Add(1, 2)
	if !s.Subset(g) {
		t.Fatal("valid subset rejected")
	}
	s.Add(0, 4)
	if s.Subset(g) {
		t.Fatal("invalid subset accepted")
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := Star(5).DegreeHistogram()
	if h[1] != 4 || h[4] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestGnpDeterministicWithSeed(t *testing.T) {
	g1 := Gnp(100, 0.1, rand.New(rand.NewSource(42)))
	g2 := Gnp(100, 0.1, rand.New(rand.NewSource(42)))
	if g1.M() != g2.M() {
		t.Fatal("same seed produced different graphs")
	}
	e1, e2 := g1.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("same seed produced different edges")
		}
	}
}

func TestRingWithChords(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := RingWithChords(100, 20, rng)
	if !g.IsConnected() {
		t.Fatal("ring with chords must be connected")
	}
	if g.M() < 100 {
		t.Fatal("chords missing")
	}
}

func TestDistSinglePair(t *testing.T) {
	g := Ring(8)
	if d := g.Dist(0, 4); d != 4 {
		t.Fatalf("Dist = %d, want 4", d)
	}
	if d := g.Dist(3, 3); d != 0 {
		t.Fatalf("Dist self = %d, want 0", d)
	}
}
