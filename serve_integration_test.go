package spanner_test

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"spanner"
)

// buildServeArtifact runs a real pipeline (Baswana–Sen) and freezes it.
func buildServeArtifact(t testing.TB, n int, k int, seed int64) *spanner.Artifact {
	t.Helper()
	g := spanner.ConnectedGnp(n, 8/float64(n), spanner.NewRand(seed))
	res, err := spanner.BaswanaSen(g, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	art, err := spanner.BuildArtifact(g, res.Spanner, "baswana-sen", k, seed)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// TestServeRoundTripFidelity is the acceptance check for the serving layer:
// an engine over a saved-then-loaded artifact must answer exactly what the
// in-process oracle and routing scheme answer — same distances, same hop
// sequences — for every query type.
func TestServeRoundTripFidelity(t *testing.T) {
	art := buildServeArtifact(t, 300, 3, 11)
	path := filepath.Join(t.TempDir(), "build.spanart")
	if err := spanner.SaveArtifact(path, art); err != nil {
		t.Fatal(err)
	}
	loaded, err := spanner.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Algo != art.Algo || loaded.K != art.K || loaded.Seed != art.Seed {
		t.Fatalf("metadata drifted: %+v vs %+v", loaded, art)
	}
	eng, err := spanner.NewServeEngine(loaded, spanner.ServeConfig{CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	spg := art.Spanner.ToGraph(art.Graph.N())
	for u := int32(0); int(u) < art.Graph.N(); u += 13 {
		spDist := spg.BFS(u)
		for v := int32(0); int(v) < art.Graph.N(); v += 7 {
			// Distance: byte-identical to the original oracle.
			d, err := eng.Dist(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if want := art.Oracle.Query(u, v); d != want {
				t.Fatalf("Dist(%d,%d): served %d, direct oracle %d", u, v, d, want)
			}
			// Route: hop-for-hop identical to the original scheme.
			got, gerr := eng.Route(u, v)
			want, werr := art.Routing.Route(u, v)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("Route(%d,%d): error mismatch %v vs %v", u, v, gerr, werr)
			}
			if len(got) != len(want) {
				t.Fatalf("Route(%d,%d): %d hops served, %d direct", u, v, len(got)-1, len(want)-1)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Route(%d,%d): hop %d is %d, direct says %d", u, v, i, got[i], want[i])
				}
			}
			// Path: a true shortest path in the spanner subgraph.
			p, err := eng.Path(u, v)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case spDist[v] == spanner.Unreachable:
				if p != nil {
					t.Fatalf("Path(%d,%d): path for unreachable pair", u, v)
				}
			case int32(len(p)-1) != spDist[v]:
				t.Fatalf("Path(%d,%d): length %d, spanner BFS says %d", u, v, len(p)-1, spDist[v])
			}
		}
	}
}

// TestServeHotSwapUnderLoad swaps artifacts while concurrent clients are
// querying and checks the no-torn-answers guarantee: every reply is stamped
// with a generation, and its payload matches that generation's oracle
// exactly — zero dropped, zero wrong, with the race detector watching when
// run via `make serve`.
func TestServeHotSwapUnderLoad(t *testing.T) {
	artA := buildServeArtifact(t, 200, 3, 21)
	// Same graph and spanner, different oracle seed: a different but equally
	// valid generation.
	artB, err := spanner.BuildArtifact(artA.Graph, artA.Spanner, "baswana-sen", 3, 22)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := spanner.NewServeEngine(artA, spanner.ServeConfig{CacheSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Fixed pair set with both generations' expected answers precomputed.
	const pairs = 64
	type pair struct{ u, v int32 }
	ps := make([]pair, pairs)
	wantA := make([]int32, pairs)
	wantB := make([]int32, pairs)
	for i := range ps {
		u := int32((i * 37) % 200)
		v := int32((i*91 + 13) % 200)
		ps[i] = pair{u, v}
		wantA[i] = artA.Oracle.Query(u, v)
		wantB[i] = artB.Oracle.Query(u, v)
	}
	genA := eng.SnapshotID()

	const workers = 8
	const iters = 300
	var answered atomic.Int64
	var wrong atomic.Int64
	var swapped atomic.Int64 // set to the new generation once the swap lands
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				j := (i + off) % pairs
				r := eng.Query(spanner.ServeRequest{Type: spanner.ServeQueryDist, U: ps[j].u, V: ps[j].v})
				if r.Err != nil {
					t.Errorf("query (%d,%d) failed: %v", ps[j].u, ps[j].v, r.Err)
					return
				}
				answered.Add(1)
				var want int32
				switch r.SnapshotID {
				case genA:
					want = wantA[j]
				case swapped.Load():
					want = wantB[j]
				default:
					t.Errorf("reply from unknown generation %d", r.SnapshotID)
					return
				}
				if r.Dist != want {
					wrong.Add(1)
				}
			}
		}(w * 7)
	}
	// Land the swap mid-load. The new generation id is published to the
	// workers before the swap so a reply can never outrun it.
	swapped.Store(genA + 1)
	genB, err := eng.Swap(artB)
	if err != nil {
		t.Fatal(err)
	}
	if genB != genA+1 {
		t.Fatalf("generation %d after %d", genB, genA)
	}
	wg.Wait()

	if got := answered.Load(); got != workers*iters {
		t.Fatalf("dropped answers: %d of %d", workers*iters-got, workers*iters)
	}
	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d replies did not match their generation's oracle", w)
	}
	// Post-swap, answers must be artB's.
	r := eng.Query(spanner.ServeRequest{Type: spanner.ServeQueryDist, U: ps[0].u, V: ps[0].v})
	if r.SnapshotID != genB || r.Dist != wantB[0] {
		t.Fatalf("post-swap reply %+v, want generation %d dist %d", r, genB, wantB[0])
	}
}
