package serve

import (
	"errors"
	"testing"

	"spanner/internal/artifact"
	"spanner/internal/graph"
	"spanner/internal/obs"
)

// testDelta returns a delta moving a forward and one moving back: a spanner
// edge is dropped and restored, so both directions are valid patches.
func testDelta(t testing.TB, a *artifact.Artifact) (fwd, back *artifact.Delta, next *artifact.Artifact) {
	t.Helper()
	keys := a.Spanner.Keys()
	min := keys[0]
	for _, k := range keys {
		if k < min {
			min = k
		}
	}
	span := a.Spanner.Clone()
	span.RemoveKey(min)
	next, err := artifact.Build(a.Graph, span, a.Algo, a.K, a.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if fwd, err = artifact.Diff(a, next); err != nil {
		t.Fatal(err)
	}
	if back, err = artifact.Diff(next, a); err != nil {
		t.Fatal(err)
	}
	return fwd, back, next
}

// TestApplyDeltaInstallsNewGeneration checks that an applied delta is a
// real hot swap: the generation advances and answers match an artifact
// patched outside the engine, byte for byte.
func TestApplyDeltaInstallsNewGeneration(t *testing.T) {
	a := testArtifact(t, 120, 7)
	fwd, _, next := testDelta(t, a)
	eng, err := New(a, Config{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	gen0 := eng.SnapshotID()
	gen, err := eng.ApplyDelta(fwd)
	if err != nil {
		t.Fatal(err)
	}
	if gen != gen0+1 {
		t.Fatalf("generation %d after %d", gen, gen0)
	}
	for u := int32(0); int(u) < a.Graph.N(); u += 11 {
		for v := int32(1); int(v) < a.Graph.N(); v += 13 {
			d, err := eng.Dist(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if want := next.Oracle.Query(u, v); d != want {
				t.Fatalf("Dist(%d,%d) after delta: %d, patched artifact says %d", u, v, d, want)
			}
		}
	}
}

func TestApplyDeltaBaseMismatchTyped(t *testing.T) {
	a := testArtifact(t, 80, 9)
	fwd, _, _ := testDelta(t, a)
	eng, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.ApplyDelta(fwd); err != nil {
		t.Fatal(err)
	}
	// Same delta again: the live base has moved on.
	if _, err := eng.ApplyDelta(fwd); !errors.Is(err, artifact.ErrBaseMismatch) {
		t.Fatalf("re-apply error: %v", err)
	}
}

// TestSwapDuringApplyDeltaWins lands a Swap between the delta's patch and
// its install. The swap returned success, so it must stay live: the delta,
// patched against the replaced base, is refused with ErrBaseMismatch.
func TestSwapDuringApplyDeltaWins(t *testing.T) {
	a := testArtifact(t, 80, 9)
	fwd, _, _ := testDelta(t, a)
	x, err := artifact.Build(a.Graph, a.Spanner, "test", 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var swapGen int64
	var swapErr error
	eng.applyHook = func() { swapGen, swapErr = eng.Swap(x) }
	if _, err := eng.ApplyDelta(fwd); !errors.Is(err, artifact.ErrBaseMismatch) {
		t.Fatalf("delta over a concurrent swap: %v, want ErrBaseMismatch", err)
	}
	if swapErr != nil {
		t.Fatal(swapErr)
	}
	if snap := eng.Snapshot(); snap.Art != x || snap.ID != swapGen {
		t.Fatalf("live generation %d is not the swapped-in artifact (swap returned %d)", snap.ID, swapGen)
	}
}

func TestApplyDeltaMetrics(t *testing.T) {
	a := testArtifact(t, 80, 3)
	fwd, _, _ := testDelta(t, a)
	fwd.Segments[0].Stats = artifact.SegmentStats{Admitted: 2, Filtered: 5, Repaired: 1, Rebuilds: 0}
	ob := obs.New()
	eng, err := New(a, Config{Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.ApplyDelta(fwd); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyDelta(fwd); err == nil {
		t.Fatal("stale delta accepted")
	}
	want := map[string]float64{
		"serve.updates":         1,
		"serve.update.errors":   1,
		"serve.update.admitted": 2,
		"serve.update.filtered": 5,
		"serve.update.repaired": 1,
		"serve.swaps":           1,
	}
	got := map[string]float64{}
	for _, mv := range ob.Registry().Snapshot() {
		got[mv.Name] += mv.Value
	}
	for name, w := range want {
		if got[name] != w {
			t.Fatalf("metric %s = %v, want %v (all: %v)", name, got[name], w, got)
		}
	}
	if got["serve.update.latency_us"] < 0 {
		t.Fatal("negative update latency")
	}
}

// TestApplyDeltaCacheInvalidation checks the epoch contract across a delta
// apply: answers cached under the old generation must not leak into the
// new one even when the patch changes spanner paths.
func TestApplyDeltaCacheInvalidation(t *testing.T) {
	a := testArtifact(t, 100, 5)
	fwd, back, next := testDelta(t, a)
	eng, err := New(a, Config{CacheSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Warm the cache under the base generation.
	var pairs [][2]int32
	n := int32(a.Graph.N())
	for u := int32(0); u < n; u += 3 {
		v := (u + 7) % n
		if u != v {
			pairs = append(pairs, [2]int32{u, v})
		}
	}
	for _, p := range pairs {
		if _, err := eng.Path(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.ApplyDelta(fwd); err != nil {
		t.Fatal(err)
	}
	spg := next.Spanner.ToGraph(int(n))
	for _, p := range pairs {
		path, err := eng.Path(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		want := spg.BFS(p[0])[p[1]]
		switch {
		case want == graph.Unreachable:
			if path != nil {
				t.Fatalf("Path(%d,%d): stale cached path after delta", p[0], p[1])
			}
		case int32(len(path)-1) != want:
			t.Fatalf("Path(%d,%d): length %d, patched spanner says %d", p[0], p[1], len(path)-1, want)
		}
	}
	// And back: the reverse delta restores the original answers.
	if _, err := eng.ApplyDelta(back); err != nil {
		t.Fatal(err)
	}
	spg = a.Spanner.ToGraph(int(n))
	for _, p := range pairs {
		path, err := eng.Path(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if want := spg.BFS(p[0])[p[1]]; want != graph.Unreachable && int32(len(path)-1) != want {
			t.Fatalf("Path(%d,%d) after reverse delta: length %d, want %d", p[0], p[1], len(path)-1, want)
		}
	}
}
