package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"spanner/internal/graph"
)

// goldenForest is three random trees over [0,100), [100,220) and
// [220,300) plus 100 isolated vertices: every component needs its own
// landmark and its own top-level oracle witness.
func goldenForest(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(400)
	for _, r := range [][2]int{{0, 100}, {100, 220}, {220, 300}} {
		for v := r[0] + 1; v < r[1]; v++ {
			b.AddEdge(int32(v), int32(r[0]+rng.Intn(v-r[0])))
		}
	}
	return b.Build()
}

// goldenNext derives a deterministic next generation from base: the five
// smallest spanner edges leave graph and spanner, and the five smallest
// absent pairs join both.
func goldenNext(t *testing.T, base *Artifact) *Artifact {
	t.Helper()
	n := base.Graph.N()
	edges := graph.NewEdgeSet(base.Graph.M())
	base.Graph.ForEachEdge(func(u, v int32) { edges.Add(u, v) })
	span := base.Spanner.Clone()
	keys := span.Keys()
	slices.Sort(keys)
	for _, k := range keys[:5] {
		edges.RemoveKey(k)
		span.RemoveKey(k)
	}
	added := 0
	for u := int32(0); u < int32(n) && added < 5; u++ {
		for v := u + 1; v < int32(n) && added < 5; v++ {
			if !edges.Has(u, v) && !slices.Contains(keys[:5], graph.EdgeKey(u, v)) {
				edges.Add(u, v)
				span.Add(u, v)
				added++
			}
		}
	}
	next, err := Build(edges.ToGraph(n), span, base.Algo, base.K, base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// TestGoldenBytes pins the exact bytes the builders produce: SHA-256 of
// Marshal for fixed seeds on a G(n,p) graph, a grid, a forest with
// isolated vertices, and one Diff→Apply generation. Any change to the
// oracle, routing or artifact kernels that moves a single word fails here.
func TestGoldenBytes(t *testing.T) {
	gnp := testArtifact(t, 500, 3, 21)
	grid := graph.Grid(30, 20)
	gridArt, err := Build(grid, bfsSpanner(grid), "grid", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	forest := goldenForest(6)
	forestArt, err := Build(forest, bfsSpanner(forest), "forest", 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	next := goldenNext(t, gnp)
	d, err := Diff(gnp, next)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := d.Apply(gnp)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		art  *Artifact
		want string
	}{
		{"gnp", gnp, "26c32dce9d89662968b210693336f301df0b168225a373632de1e4e671fa8a20"},
		{"grid", gridArt, "f3a06bfef0ffcfee570692dce309c4aadf1a95b36b92b8ebde889b905604c332"},
		{"forest", forestArt, "0f52a9131e3f933e6be972ec839d21fcd9986d5c28e119f8dbc20a0a6ba8c115"},
		{"delta-apply", applied, "47a95125c508211c5da69bb4a2e119204d73254c061ffc385ac13779b3e7064f"},
	}
	for _, c := range cases {
		sum := sha256.Sum256(c.art.Marshal())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: Marshal SHA-256 = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBuildAllocs bounds the allocations of one Build at n=5000 (G(n,p),
// average degree 16, k=3). Trees come from one slab, bunches and vicinity
// tables are flat arrays and the BFS scratch is reused, so a build makes
// about a hundred allocations; one map or slice per vertex would put the
// count in the thousands, one per vertex and tree above half a million.
func TestBuildAllocs(t *testing.T) {
	const n = 5000
	g := graph.ConnectedGnp(n, 16.0/n, rand.New(rand.NewSource(1)))
	sp := bfsSpanner(g)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Build(g, sp, "allocs", 3, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1_000 {
		t.Fatalf("Build at n=%d: %.0f allocations, want <= 1000", n, allocs)
	}
	t.Logf("Build at n=%d: %.0f allocations", n, allocs)
}
