package serve

import (
	"errors"
	"testing"

	"spanner/internal/graph"
	"spanner/internal/partition"
)

// TestPartEngineAnswers pins the partition serving contract: covered dist
// pairs bit-identical to the unpartitioned engine, uncovered pairs flagged
// Composed with a bracket that sandwiches the truth, path queries exact
// everywhere, route queries refused.
func TestPartEngineAnswers(t *testing.T) {
	a := testArtifact(t, 150, 3)
	n := a.Graph.N()
	res, err := partition.Split(a, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := New(a, Config{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()

	for _, p := range res.Parts {
		eng, err := NewPart(p, Config{CacheSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		spg := a.Spanner.ToGraph(n)
		for u := int32(0); int(u) < n; u += 6 {
			trueDist, _ := a.Graph.BFSWithParents(u)
			for v := int32(0); int(v) < n; v += 7 {
				r := eng.Query(Request{Type: QueryDist, U: u, V: v})
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				if p.Covered(u) && p.Covered(v) || u == v {
					if r.Composed {
						t.Fatalf("part %d: covered pair (%d,%d) flagged Composed", p.ID, u, v)
					}
					if want := a.Oracle.Query(u, v); r.Dist != want {
						t.Fatalf("part %d: dist(%d,%d)=%d, unpartitioned oracle says %d", p.ID, u, v, r.Dist, want)
					}
				} else {
					if !r.Composed {
						t.Fatalf("part %d: uncovered pair (%d,%d) not flagged Composed", p.ID, u, v)
					}
					truth := trueDist[v]
					if truth == graph.Unreachable {
						continue
					}
					if r.Dist < truth || r.Bound > truth {
						t.Fatalf("part %d: composed bracket [%d,%d] misses true dist %d for (%d,%d)",
							p.ID, r.Bound, r.Dist, truth, u, v)
					}
				}
				// Path queries run over the full spanner in every part.
				pr := eng.Query(Request{Type: QueryPath, U: u, V: v})
				if pr.Err != nil {
					t.Fatal(pr.Err)
				}
				wantLen := spg.BFS(u)[v]
				gotLen := int32(graph.Unreachable)
				if pr.Path != nil {
					gotLen = int32(len(pr.Path) - 1)
				}
				if gotLen != wantLen {
					t.Fatalf("part %d: path(%d,%d) length %d, spanner BFS says %d", p.ID, u, v, gotLen, wantLen)
				}
			}
		}
		// Route queries are refused on a part, typed and cache-safe.
		for i := 0; i < 2; i++ {
			rr := eng.Query(Request{Type: QueryRoute, U: 0, V: int32(n - 1)})
			if !errors.Is(rr.Err, ErrPartitioned) {
				t.Fatalf("part %d: route query got %v, want ErrPartitioned", p.ID, rr.Err)
			}
		}
		eng.Close()
	}
}

// TestSwapPart exercises the part hot-swap path: generation advances, part
// metadata follows the swap, and a whole-graph engine can move to a part
// snapshot (the daemon's -partition role after catch-up).
func TestSwapPart(t *testing.T) {
	a := testArtifact(t, 100, 5)
	res, err := partition.Split(a, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewPart(res.Parts[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Snapshot().Part() == nil || eng.Snapshot().Part().ID != 0 {
		t.Fatal("initial snapshot lost its part identity")
	}
	gen0 := eng.SnapshotID()
	id, err := eng.SwapPart(res.Parts[1])
	if err != nil {
		t.Fatal(err)
	}
	if id <= gen0 {
		t.Fatalf("swap did not advance generation: %d -> %d", gen0, id)
	}
	if got := eng.Snapshot().Part(); got == nil || got.ID != 1 {
		t.Fatal("snapshot does not carry the swapped part")
	}
	// Uncovered endpoints of the new part now compose.
	var uncovered int32 = -1
	for v := int32(0); int(v) < a.Graph.N(); v++ {
		if !res.Parts[1].Covered(v) {
			uncovered = v
			break
		}
	}
	if uncovered >= 0 {
		r := eng.Query(Request{Type: QueryDist, U: uncovered, V: (uncovered + 1) % int32(a.Graph.N())})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if !r.Composed && !res.Parts[1].Covered((uncovered+1)%int32(a.Graph.N())) || r.SnapshotID != id {
			t.Fatalf("post-swap reply not from new part generation: %+v", r)
		}
	}
	if _, err := eng.SwapPart(nil); err == nil {
		t.Fatal("nil part swap must error")
	}
}
