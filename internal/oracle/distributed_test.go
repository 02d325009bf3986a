package oracle

import (
	"math/rand"
	"testing"

	"spanner/internal/graph"
)

func TestDistributedOracleMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 3; seed++ {
		g := graph.ConnectedGnp(150, 0.06, rng)
		seq, err := New(g, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		dist, m, err := NewDistributed(g, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		if m.Rounds == 0 || m.Messages == 0 {
			t.Fatal("no communication recorded")
		}
		// Same hierarchy, witnesses and bunches ⇒ identical query answers.
		for v := 0; v < g.N(); v++ {
			if seq.level[v] != dist.level[v] {
				t.Fatalf("seed %d: levels differ at %d", seed, v)
			}
			sb, db := seq.bunch.Row(int32(v)), dist.bunch.Row(int32(v))
			if len(sb) != len(db) {
				t.Fatalf("seed %d: bunch sizes differ at %d: %d vs %d",
					seed, v, len(sb), len(db))
			}
			for j, e := range sb {
				if db[j] != e {
					t.Fatalf("seed %d: bunch entry (%d,%d) differs", seed, v, e.Key)
				}
			}
		}
		for u := int32(0); int(u) < g.N(); u += 7 {
			for v := int32(0); int(v) < g.N(); v += 11 {
				if seq.Query(u, v) != dist.Query(u, v) {
					t.Fatalf("seed %d: Query(%d,%d) differs", seed, u, v)
				}
			}
		}
	}
}

func TestDistributedOracleStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.ConnectedGnp(120, 0.07, rng)
	k := 2
	o, _, err := NewDistributed(g, k, 5)
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); int(u) < g.N(); u += 5 {
		dist := g.BFS(u)
		for v := int32(0); int(v) < g.N(); v++ {
			if dist[v] < 1 {
				continue
			}
			got := o.Query(u, v)
			if got < dist[v] || got > int32(2*k-1)*dist[v] {
				t.Fatalf("Query(%d,%d) = %d outside [δ, (2k-1)δ], δ=%d", u, v, got, dist[v])
			}
		}
	}
}

func TestDistributedOracleSpannerSupportsQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.ConnectedGnp(100, 0.08, rng)
	o, _, err := NewDistributed(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := o.Spanner()
	if !s.Subset(g) {
		t.Fatal("spanner not a subgraph")
	}
	sg := s.ToGraph(g.N())
	if !graph.SameComponents(g, sg) {
		t.Fatal("spanner disconnects")
	}
	// Spanner distances are bounded by query answers.
	for u := int32(0); int(u) < g.N(); u += 9 {
		ds := sg.BFS(u)
		for v := int32(0); int(v) < g.N(); v += 7 {
			if u == v || ds[v] == graph.Unreachable {
				continue
			}
			if est := o.Query(u, v); ds[v] > est {
				t.Fatalf("spanner distance %d exceeds oracle estimate %d for (%d,%d)", ds[v], est, u, v)
			}
		}
	}
}

func TestDistributedOracleValidation(t *testing.T) {
	if _, _, err := NewDistributed(graph.Path(3), 0, 1); err == nil {
		t.Fatal("k=0 must error")
	}
	o, m, err := NewDistributed(graph.Complete(0), 2, 1)
	if err != nil || o.Size() != 0 || m.Messages != 0 {
		t.Fatal("empty graph must be trivial")
	}
}
