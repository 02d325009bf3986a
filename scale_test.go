package spanner_test

// Larger-scale integration tests, skipped under -short. These confirm that
// the claims that matter asymptotically (linear size, sublinear rounds,
// near-linear construction time) persist well beyond the unit-test sizes.

import (
	"testing"
	"time"

	"spanner"
)

func TestSkeletonAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test")
	}
	n := 200000
	rng := spanner.NewRand(1)
	g := spanner.ConnectedGnp(n, 12/float64(n), rng)
	start := time.Now()
	res, err := spanner.BuildSkeleton(g, spanner.SkeletonOptions{D: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	ratio := float64(res.Spanner.Len()) / float64(n)
	t.Logf("n=%d m=%d: |S|/n = %.3f in %v", n, g.M(), ratio, elapsed)
	if ratio > 4 {
		t.Fatalf("size ratio %v not linear-like at n=%d", ratio, n)
	}
	if elapsed > 2*time.Minute {
		t.Fatalf("sequential skeleton too slow: %v", elapsed)
	}
	sg := res.Spanner.ToGraph(n)
	// Spot-check connectivity instead of full component comparison.
	dist := sg.BFS(0)
	gDist := g.BFS(0)
	for v := 0; v < n; v += 997 {
		if (dist[v] == spanner.Unreachable) != (gDist[v] == spanner.Unreachable) {
			t.Fatalf("connectivity broken at %d", v)
		}
	}
}

func TestDistributedSkeletonAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test")
	}
	n := 20000
	rng := spanner.NewRand(2)
	g := spanner.ConnectedGnp(n, 12/float64(n), rng)
	res, err := spanner.BuildSkeletonDistributed(g, spanner.SkeletonOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("n=%d: %d rounds, %d messages, maxMsg %d/%d",
		n, res.Metrics.Rounds, res.Metrics.Messages, res.Metrics.MaxMsgWords, res.MaxMsgWords)
	if res.Metrics.Rounds > 120 {
		t.Fatalf("%d rounds at n=%d: should stay O(log n)-ish", res.Metrics.Rounds, n)
	}
	if res.Metrics.MaxMsgWords > res.MaxMsgWords {
		t.Fatal("message cap violated")
	}
}

func TestFibonacciAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test")
	}
	n := 50000
	rng := spanner.NewRand(3)
	g := spanner.ConnectedGnp(n, 16/float64(n), rng)
	start := time.Now()
	res, err := spanner.BuildFibonacci(g, spanner.FibonacciOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("n=%d m=%d: o=%d |S|=%d in %v", n, g.M(), res.Params.Order, res.Spanner.Len(), time.Since(start))
	if float64(res.Spanner.Len()) > res.Params.SizeBound() {
		t.Fatalf("size %d above Lemma 8 bound %v", res.Spanner.Len(), res.Params.SizeBound())
	}
	rep := spanner.Measure(g, res.Spanner, spanner.MeasureOptions{Sources: 8, Rng: rng})
	if !rep.Connected || !rep.Valid {
		t.Fatalf("fibonacci at scale: %v", rep)
	}
}

func TestOracleAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test")
	}
	n := 30000
	rng := spanner.NewRand(4)
	g := spanner.ConnectedGnp(n, 10/float64(n), rng)
	o, err := spanner.NewDistanceOracle(g, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("n=%d: oracle space %d (%.1f/vertex)", n, o.Size(), float64(o.Size())/float64(n))
	for s := 0; s < 5; s++ {
		u := int32(rng.Intn(n))
		dist := g.BFS(u)
		for v := int32(0); int(v) < n; v += 503 {
			if dist[v] < 1 {
				continue
			}
			got := o.Query(u, v)
			if got < dist[v] || got > 5*dist[v] {
				t.Fatalf("oracle stretch violated at (%d,%d): %d vs δ=%d", u, v, got, dist[v])
			}
		}
	}
}

// TestSkeletonBuildAllocs bounds the allocations of one distributed
// skeleton build at servebench's shape (G(n,p), n=5000, average degree 16,
// seed 3). Payloads live in the engine's round arenas, inboxes in one
// array per round, and the buffers and the per-vertex protocol state are
// reused from call to call, so a build makes about 23k allocations. One
// heap payload per message would put it near 750k.
func TestSkeletonBuildAllocs(t *testing.T) {
	g, err := spanner.MakeWorkload("gnp", 5000, 16, spanner.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := spanner.BuildSkeletonDistributed(g, spanner.SkeletonOptions{Seed: 3}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 150_000 {
		t.Fatalf("BuildSkeletonDistributed at n=5000: %.0f allocations, want <= 150000", allocs)
	}
	t.Logf("BuildSkeletonDistributed at n=5000: %.0f allocations", allocs)
}
