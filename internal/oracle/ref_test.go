package oracle

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spanner/internal/graph"
)

// refOracle is the map-based oracle the flat layout replaced: one Go map
// per bunch and a map edge set for the spanner. It is kept as the
// reference the flat oracle must match answer for answer and word for
// word.
type refOracle struct {
	g       *graph.Graph
	k       int
	level   []int8
	witness [][]int32
	distTo  [][]int32
	bunch   []map[int32]int32
	spanner *graph.EdgeSet
}

func newRef(g *graph.Graph, k int, seed int64) *refOracle {
	n := g.N()
	o := &refOracle{
		g:       g,
		k:       k,
		level:   make([]int8, n),
		witness: make([][]int32, k),
		distTo:  make([][]int32, k),
		bunch:   make([]map[int32]int32, n),
		spanner: graph.NewEdgeSet(2 * n),
	}
	if n == 0 {
		return o
	}
	rng := rand.New(rand.NewSource(seed))
	p := math.Pow(float64(n), -1/float64(k))
	for v := 0; v < n; v++ {
		lvl := int8(0)
		for i := 1; i < k; i++ {
			if rng.Float64() < p {
				lvl = int8(i)
			} else {
				break
			}
		}
		o.level[v] = lvl
	}
	if k > 1 {
		labels, count := g.ConnectedComponents()
		hit := make([]bool, count)
		for v := 0; v < n; v++ {
			if o.level[v] == int8(k-1) {
				hit[labels[v]] = true
			}
		}
		for v := 0; v < n; v++ {
			if !hit[labels[v]] {
				hit[labels[v]] = true
				o.level[v] = int8(k - 1)
			}
		}
	}
	levelSets := make([][]int32, k)
	for v := int32(0); int(v) < n; v++ {
		for i := 0; i <= int(o.level[v]); i++ {
			levelSets[i] = append(levelSets[i], v)
		}
	}
	for i := 0; i < k; i++ {
		dist, near, parentArr := g.MultiSourceBFS(levelSets[i])
		o.distTo[i] = dist
		o.witness[i] = near
		for v := int32(0); int(v) < n; v++ {
			if dist[v] >= 1 {
				o.spanner.Add(v, parentArr[v])
			}
		}
	}
	seen := make([]int32, n)
	queue := make([]int32, 0, n)
	for i := 0; i < k; i++ {
		var nextDist []int32
		if i+1 < k {
			nextDist = o.distTo[i+1]
		}
		for _, w := range levelSets[i] {
			if int(o.level[w]) == i {
				queue = o.floodCluster(w, nextDist, seen, queue)
			}
		}
	}
	return o
}

func (o *refOracle) floodCluster(w int32, nextDist, seen, queue []int32) []int32 {
	blocked := func(x, d int32) bool {
		if nextDist == nil {
			return false
		}
		nd := nextDist[x]
		return nd != graph.Unreachable && nd <= d
	}
	if blocked(w, 0) {
		return queue
	}
	stamp := w + 1
	seen[w] = stamp
	o.addBunch(w, w, 0)
	queue = append(queue[:0], w)
	for head, d := 0, int32(1); head < len(queue); d++ {
		for levelEnd := len(queue); head < levelEnd; head++ {
			x := queue[head]
			for _, y := range o.g.Neighbors(x) {
				if seen[y] == stamp || blocked(y, d) {
					continue
				}
				seen[y] = stamp
				o.addBunch(y, w, d)
				o.spanner.Add(y, x)
				queue = append(queue, y)
			}
		}
	}
	return queue
}

func (o *refOracle) addBunch(x, w, d int32) {
	if o.bunch[x] == nil {
		o.bunch[x] = make(map[int32]int32, 4)
	}
	o.bunch[x][w] = d
}

func (o *refOracle) Query(u, v int32) int32 {
	if u == v {
		return 0
	}
	w := u
	i := 0
	for {
		if dv, ok := o.bunch[v][w]; ok {
			return o.distTo[i][u] + dv
		}
		i++
		if i >= o.k {
			return graph.Unreachable
		}
		u, v = v, u
		w = o.witness[i][u]
		if w == graph.Unreachable {
			return graph.Unreachable
		}
	}
}

func (o *refOracle) PruneBunches(keep []bool) *refOracle {
	p := *o
	p.bunch = make([]map[int32]int32, len(o.bunch))
	for v := range p.bunch {
		if v < len(keep) && keep[v] {
			p.bunch[v] = o.bunch[v]
		}
	}
	return &p
}

func (o *refOracle) Covered(v int32) bool {
	return v >= 0 && int(v) < len(o.bunch) && o.bunch[v] != nil
}

func (o *refOracle) Words() []int64 {
	n := o.g.N()
	w := []int64{int64(o.k), int64(n)}
	for _, l := range o.level {
		w = append(w, int64(l))
	}
	for i := 0; i < o.k; i++ {
		for v := 0; v < n; v++ {
			w = append(w, int64(o.witness[i][v]), int64(o.distTo[i][v]))
		}
	}
	for v := 0; v < n; v++ {
		b := o.bunch[v]
		if b == nil {
			w = append(w, -1)
			continue
		}
		keys := make([]int32, 0, len(b))
		for u := range b {
			keys = append(keys, u)
		}
		slices.Sort(keys)
		w = append(w, int64(len(keys)))
		for _, u := range keys {
			w = append(w, int64(u), int64(b[u]))
		}
	}
	spk := o.spanner.Keys()
	slices.Sort(spk)
	w = append(w, int64(len(spk)))
	return append(w, spk...)
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

// sameOracle checks that o answers every query, coverage test and word
// of the encoding exactly as the reference does.
func sameOracle(t *testing.T, name string, o *Oracle, ref *refOracle) {
	t.Helper()
	n := int32(o.g.N())
	for u := int32(0); u < n; u++ {
		if o.Covered(u) != ref.Covered(u) {
			t.Fatalf("%s: Covered(%d) = %v, reference %v", name, u, o.Covered(u), ref.Covered(u))
		}
		for v := int32(0); v < n; v++ {
			if got, want := o.Query(u, v), ref.Query(u, v); got != want {
				t.Fatalf("%s: Query(%d,%d) = %d, reference %d", name, u, v, got, want)
			}
		}
	}
	if o.Covered(-1) || o.Covered(n) {
		t.Fatalf("%s: out-of-range vertex reported covered", name)
	}
	words := o.Words()
	if !slices.Equal(words, ref.Words()) {
		t.Fatalf("%s: Words differ from the reference", name)
	}
	if o.WordLen() != len(words) {
		t.Fatalf("%s: WordLen %d, Words has %d", name, o.WordLen(), len(words))
	}
	got, want := o.Spanner().Keys(), ref.spanner.Keys()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: spanner has %d edges, reference %d", name, len(got), len(want))
	}
}

// TestFlatOracleMatchesMapReference compares the flat oracle with the
// map-based reference on every pair of every reference graph, for k = 1,
// 2 and 3: as built, after decoding its own words, and with a pruned part.
func TestFlatOracleMatchesMapReference(t *testing.T) {
	for name, g := range refGraphs() {
		for k := 1; k <= 3; k++ {
			o, err := New(g, k, 5)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRef(g, k, 5)
			sameOracle(t, name, o, ref)

			dec, err := decodeImage(g, image(o))
			if err != nil {
				t.Fatalf("%s k=%d: decode: %v", name, k, err)
			}
			sameOracle(t, name+" decoded", dec, ref)

			keep := make([]bool, g.N())
			for v := range keep {
				keep[v] = v%3 != 1
			}
			pruned := o.PruneBunches(keep)
			sameOracle(t, name+" pruned", pruned, ref.PruneBunches(keep))
			dec, err = decodeImage(g, image(pruned))
			if err != nil {
				t.Fatalf("%s k=%d: decode pruned: %v", name, k, err)
			}
			sameOracle(t, name+" pruned decoded", dec, ref.PruneBunches(keep))
		}
	}
}

// TestOracleQueryZeroAlloc pins the flat bunch lookup at zero allocations per
// query.
func TestOracleQueryZeroAlloc(t *testing.T) {
	g := graph.ConnectedGnp(500, 0.02, rand.New(rand.NewSource(3)))
	o, err := New(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	i := int32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		o.Query(i%500, (i*7919)%500)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Query: %.1f allocs/op, want 0", allocs)
	}
}
