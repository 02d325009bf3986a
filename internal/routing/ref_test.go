package routing

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spanner/internal/graph"
)

// refScheme is the routing scheme the flat layout replaced: one Go map
// per vicinity table, a map from landmark to tree, tree parents derived
// from single-source BFS distances, trees numbered by a stack DFS, and
// landmark distances derived by walking parent pointers. It is kept as the
// reference the flat scheme must match hop for hop and word for word.
type refScheme struct {
	g           *graph.Graph
	landmarks   []int32
	landmarkIdx map[int32]int
	trees       []refTree
	direct      []map[int32]int32
	addr        []Address
}

type refTree struct {
	parent, dfs, end, off, kids []int32
}

func newRefScheme(g *graph.Graph, seed int64) *refScheme {
	n := g.N()
	s := &refScheme{
		g:           g,
		landmarkIdx: make(map[int32]int),
		direct:      make([]map[int32]int32, n),
		addr:        make([]Address, n),
	}
	if n == 0 {
		return s
	}
	rng := rand.New(rand.NewSource(seed))
	nf := float64(n)
	p := math.Sqrt(math.Log(nf)+1) / math.Sqrt(nf)
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			s.landmarks = append(s.landmarks, int32(v))
		}
	}
	labels, count := g.ConnectedComponents()
	hit := make([]bool, count)
	for _, l := range s.landmarks {
		hit[labels[l]] = true
	}
	for v := int32(0); int(v) < n; v++ {
		if !hit[labels[v]] {
			hit[labels[v]] = true
			s.landmarks = append(s.landmarks, v)
		}
	}
	for i, l := range s.landmarks {
		s.landmarkIdx[l] = i
	}
	distL, nearestL, _ := g.MultiSourceBFS(s.landmarks)
	s.trees = make([]refTree, len(s.landmarks))
	for i, l := range s.landmarks {
		s.trees[i].parent = refParents(g, l)
		s.trees[i].index(l)
	}
	for v := int32(0); int(v) < n; v++ {
		lv := nearestL[v]
		a := Address{V: v, Landmark: lv}
		if lv != graph.Unreachable {
			a.DFS = s.trees[s.landmarkIdx[lv]].dfs[v]
		}
		s.addr[v] = a
	}
	scratchDist := g.NewDistScratch()
	scratchHop := make([]int32, n)
	for w := int32(0); int(w) < n; w++ {
		radius := distL[w] - 1
		if radius < 0 {
			continue
		}
		reached := g.TruncatedBFSInto(w, radius, scratchDist, nil)
		scratchHop[w] = w
		for _, x := range reached {
			if x == w {
				continue
			}
			for _, y := range g.Neighbors(x) {
				if scratchDist[y] == scratchDist[x]-1 {
					if scratchDist[y] == 0 {
						scratchHop[x] = w
					} else {
						scratchHop[x] = y
					}
					break
				}
			}
			if s.direct[x] == nil {
				s.direct[x] = make(map[int32]int32, 4)
			}
			s.direct[x][w] = scratchHop[x]
		}
		graph.ResetDistScratch(scratchDist, reached)
	}
	return s
}

// refParents derives root's tree from g.BFS distances by the scheme's
// parent rule: each vertex's parent is its first neighbour one level
// closer to root, scanning its sorted neighbour list cyclically from index
// v mod deg(v). root is its own parent; unreached vertices get
// graph.Unreachable.
func refParents(g *graph.Graph, root int32) []int32 {
	dist := g.BFS(root)
	parent := make([]int32, len(dist))
	for v := range parent {
		parent[v] = graph.Unreachable
		if int32(v) == root {
			parent[v] = root
			continue
		}
		if dist[v] == graph.Unreachable {
			continue
		}
		ns := g.Neighbors(int32(v))
		for k := range ns {
			if x := ns[(v+k)%len(ns)]; dist[x] == dist[v]-1 {
				parent[v] = x
				break
			}
		}
	}
	return parent
}

func (tr *refTree) index(root int32) {
	n := len(tr.parent)
	tr.dfs = make([]int32, n)
	tr.end = make([]int32, n)
	tr.off = make([]int32, n+1)
	for v, p := range tr.parent {
		if p != graph.Unreachable && p != int32(v) {
			tr.off[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		tr.off[v+1] += tr.off[v]
	}
	tr.kids = make([]int32, tr.off[n])
	next := tr.dfs
	copy(next, tr.off[:n])
	for v, p := range tr.parent {
		if p != graph.Unreachable && p != int32(v) {
			tr.kids[next[p]] = int32(v)
			next[p]++
		}
	}
	for v := range tr.dfs {
		tr.dfs[v] = graph.Unreachable
		tr.end[v] = graph.Unreachable
	}
	type frame struct{ v, next int32 }
	stack := []frame{{v: root, next: tr.off[root]}}
	tr.dfs[root] = 0
	counter := int32(1)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < tr.off[f.v+1] {
			c := tr.kids[f.next]
			f.next++
			tr.dfs[c] = counter
			counter++
			stack = append(stack, frame{v: c, next: tr.off[c]})
			continue
		}
		tr.end[f.v] = counter - 1
		stack = stack[:len(stack)-1]
	}
}

func (tr *refTree) contains(v, d int32) bool { return tr.dfs[v] <= d && d <= tr.end[v] }

func (s *refScheme) NextHop(x int32, dst Address) (int32, bool) {
	if x == dst.V {
		return x, true
	}
	if hop, ok := s.direct[x][dst.V]; ok {
		return hop, true
	}
	if dst.Landmark == graph.Unreachable {
		return 0, false
	}
	tr := &s.trees[s.landmarkIdx[dst.Landmark]]
	if tr.dfs[x] != graph.Unreachable && tr.contains(x, dst.DFS) {
		for _, c := range tr.kids[tr.off[x]:tr.off[x+1]] {
			if tr.contains(c, dst.DFS) {
				return c, true
			}
		}
		return 0, false
	}
	hop := tr.parent[x]
	if hop == graph.Unreachable || hop == x {
		return 0, false
	}
	return hop, true
}

func (s *refScheme) LandmarkDistances() [][]int32 {
	out := make([][]int32, len(s.landmarks))
	for t, l := range s.landmarks {
		out[t] = refDepth(s.trees[t].parent, l)
	}
	return out
}

// refDepth derives a tree's depth row by walking parent pointers.
func refDepth(parent []int32, root int32) []int32 {
	n := len(parent)
	depth := make([]int32, n)
	for v := range depth {
		depth[v] = graph.Unreachable
	}
	depth[root] = 0
	for v := int32(0); int(v) < n; v++ {
		if depth[v] != graph.Unreachable || parent[v] == graph.Unreachable {
			continue
		}
		var chain []int32
		x := v
		for depth[x] == graph.Unreachable && parent[x] != graph.Unreachable && parent[x] != x && len(chain) <= n {
			chain = append(chain, x)
			x = parent[x]
		}
		base := depth[x]
		for i := len(chain) - 1; i >= 0; i-- {
			if base != graph.Unreachable {
				base++
			}
			depth[chain[i]] = base
		}
	}
	return depth
}

func (s *refScheme) Words() []int64 {
	n := s.g.N()
	w := []int64{int64(n), int64(len(s.landmarks))}
	for _, l := range s.landmarks {
		w = append(w, int64(l))
	}
	for i := range s.trees {
		for v := 0; v < n; v++ {
			w = append(w, int64(s.trees[i].parent[v]))
		}
	}
	for v := 0; v < n; v++ {
		d := s.direct[v]
		if d == nil {
			w = append(w, -1)
			continue
		}
		keys := make([]int32, 0, len(d))
		for u := range d {
			keys = append(keys, u)
		}
		slices.Sort(keys)
		w = append(w, int64(len(keys)))
		for _, u := range keys {
			w = append(w, int64(u), int64(d[u]))
		}
	}
	for v := 0; v < n; v++ {
		w = append(w, int64(s.addr[v].Landmark), int64(s.addr[v].DFS))
	}
	return w
}

// refGraphs are the shapes the flat layout is checked on: a G(n,p) graph,
// a grid, a forest with isolated vertices, and the graphs on zero and one
// vertices.
func refGraphs() map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(17))
	b := graph.NewBuilder(160)
	for _, r := range [][2]int{{0, 50}, {50, 110}} {
		for v := r[0] + 1; v < r[1]; v++ {
			b.AddEdge(int32(v), int32(r[0]+rng.Intn(v-r[0])))
		}
	}
	return map[string]*graph.Graph{
		"gnp":    graph.Gnp(200, 0.04, rng),
		"grid":   graph.Grid(15, 12),
		"forest": b.Build(),
		"n=0":    graph.Complete(0),
		"n=1":    graph.Complete(1),
	}
}

// sameScheme checks that s takes every routing decision, and reports every
// landmark distance, address, table size and word, exactly as the
// reference does.
func sameScheme(t *testing.T, name string, s *Scheme, ref *refScheme) {
	t.Helper()
	n := int32(s.g.N())
	if !slices.Equal(s.Landmarks(), ref.landmarks) {
		t.Fatalf("%s: landmarks differ", name)
	}
	for v := int32(0); v < n; v++ {
		if s.AddressOf(v) != ref.addr[v] {
			t.Fatalf("%s: address of %d = %+v, reference %+v", name, v, s.AddressOf(v), ref.addr[v])
		}
		want := len(ref.landmarks) + len(ref.direct[v])
		for _, tr := range ref.trees {
			want += 1 + int(tr.off[v+1]-tr.off[v])
		}
		if got := s.TableSize(v); got != want {
			t.Fatalf("%s: TableSize(%d) = %d, reference %d", name, v, got, want)
		}
	}
	for x := int32(0); x < n; x++ {
		for v := int32(0); v < n; v++ {
			dst := ref.addr[v]
			gh, gok := s.NextHop(x, dst)
			wh, wok := ref.NextHop(x, dst)
			if gh != wh || gok != wok {
				t.Fatalf("%s: NextHop(%d, %d) = %d,%v, reference %d,%v", name, x, v, gh, gok, wh, wok)
			}
		}
	}
	got, want := s.LandmarkDistances(), ref.LandmarkDistances()
	if len(got) != len(want) {
		t.Fatalf("%s: %d landmark rows, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: landmark row %d differs", name, i)
		}
	}
	for i := range ref.trees {
		if !slices.Equal(s.trees[i].dfs, ref.trees[i].dfs) || !slices.Equal(s.trees[i].end, ref.trees[i].end) {
			t.Fatalf("%s: tree %d numbering differs", name, i)
		}
	}
	words := s.Words()
	if !slices.Equal(words, ref.Words()) {
		t.Fatalf("%s: Words differ from the reference", name)
	}
	if s.WordLen() != len(words) {
		t.Fatalf("%s: WordLen %d, Words has %d", name, s.WordLen(), len(words))
	}
}

// TestFlatSchemeMatchesMapReference compares the flat scheme with the
// map-based reference on every (vertex, destination) pair of every
// reference graph, as built and after decoding its own words.
func TestFlatSchemeMatchesMapReference(t *testing.T) {
	for name, g := range refGraphs() {
		for _, seed := range []int64{1, 2} {
			s, err := New(g, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefScheme(g, seed)
			sameScheme(t, name, s, ref)
			dec, err := decodeImage(g, image(s))
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			sameScheme(t, name+" decoded", dec, ref)
		}
	}
}

// TestDecodeNumberingMatchesReference numbers decoded parent arrays the
// way Decode does — child lists, a walk from the root, then the
// numbering — and checks the DFS intervals and depth row against the
// reference's stack DFS and pointer walk, including parents that hold a
// cycle off the tree, a second self-parent and an unreached vertex.
func TestDecodeNumberingMatchesReference(t *testing.T) {
	const u = graph.Unreachable
	cases := map[string][]int32{
		"tree":  {0, 0, 0, 1, 1, 2, 5, 5},
		"cycle": {0, 0, 0, 1, 1, 6, 5, u},
		"roots": {0, 0, 2, 2, 1, 4, 3, 6},
		"path":  {1, 2, 3, 4, 5, 6, 7, 7},
	}
	for name, parent := range cases {
		root := int32(0)
		if name == "path" {
			root = 7
		}
		n := len(parent)
		tr := tree{parent: parent, depth: make([]int32, n), dfs: make([]int32, n), end: make([]int32, n), pre: make([]int32, n)}
		var kids childLists
		kids.link(parent)
		tr.number(kids.walk(root, tr.depth, nil))
		ref := refTree{parent: parent}
		ref.index(root)
		if !slices.Equal(tr.dfs, ref.dfs) || !slices.Equal(tr.end, ref.end) {
			t.Fatalf("%s: dfs/end = %v/%v, reference %v/%v", name, tr.dfs, tr.end, ref.dfs, ref.end)
		}
		if want := refDepth(parent, root); !slices.Equal(tr.depth, want) {
			t.Fatalf("%s: depth = %v, reference %v", name, tr.depth, want)
		}
	}
}

// TestNextHopZeroAlloc pins the flat table lookup and the tree walk at
// zero allocations per hop.
func TestNextHopZeroAlloc(t *testing.T) {
	g := graph.ConnectedGnp(500, 0.02, rand.New(rand.NewSource(4)))
	s, err := New(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	i := int32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		s.NextHop(i%500, s.AddressOf((i*7919)%500))
		i++
	})
	if allocs != 0 {
		t.Fatalf("NextHop: %.1f allocs/op, want 0", allocs)
	}
}
