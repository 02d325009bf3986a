package clusterserve_test

import (
	"errors"
	"testing"
	"time"

	"spanner/client"
	"spanner/internal/clusterserve"
)

// waitReadyCount polls until the cluster reports exactly want ready
// members (prober cadence is 20ms in tests).
func waitReadyCount(t *testing.T, cl *clusterserve.Router, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for cl.Status().ReadyCount != want {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d ready members: %+v", want, cl.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestQuorumSingleReplica pins the N=1 edge: a one-member cluster has
// quorum 1 (1/2+1), serves exact answers, and accepts mutations — it must
// not deadlock on an unreachable majority.
func TestQuorumSingleReplica(t *testing.T) {
	art := testArtifact(t, 100, 41)
	cl, _ := testCluster(t, 1, art, nil)
	if q := cl.Status().Quorum; q != 1 {
		t.Fatalf("N=1 quorum = %d, want 1", q)
	}
	ctx, cancel := ctxWithTimeout(t, 10*time.Second)
	defer cancel()
	rep, err := cl.Query(ctx, client.Query{Type: "dist", U: 3, V: 42})
	if err != nil || rep.Degraded {
		t.Fatalf("single-replica query: %+v err=%v", rep, err)
	}
	if want := art.Oracle.Query(3, 42); rep.Dist != want {
		t.Fatalf("single-replica dist = %d, oracle says %d", rep.Dist, want)
	}
	art2 := nextGen(t, art)
	path2 := saveArtifact(t, t.TempDir(), "g2.spanart", art2)
	res, err := cl.Swap(ctx, path2)
	if err != nil || res.Gen != 2 || res.Committed != 1 {
		t.Fatalf("single-replica swap: %+v err=%v", res, err)
	}
}

// TestQuorumEvenTies pins the even-N edges: quorum is the strict majority
// n/2+1 (ties round AGAINST availability), so a 2-member cluster needs
// both and a 4-member cluster needs 3 — one member down keeps a 4-cluster
// exact, two down degrade it.
func TestQuorumEvenTies(t *testing.T) {
	art := testArtifact(t, 100, 43)

	t.Run("n2", func(t *testing.T) {
		cl, reps := testCluster(t, 2, art, nil)
		if q := cl.Status().Quorum; q != 2 {
			t.Fatalf("N=2 quorum = %d, want 2", q)
		}
		ctx, cancel := ctxWithTimeout(t, 20*time.Second)
		defer cancel()
		reps[0].stop()
		waitReadyCount(t, cl, 1)
		// One of two is NOT a majority: exactness is refused, dist degrades.
		rep, err := cl.Query(ctx, client.Query{Type: "dist", U: 3, V: 42})
		if err != nil || !rep.Degraded {
			t.Fatalf("N=2 one-down dist should be flagged degraded: %+v err=%v", rep, err)
		}
		if _, err := cl.Swap(ctx, "/nonexistent"); !errors.Is(err, clusterserve.ErrNoQuorum) {
			t.Fatalf("N=2 one-down swap: err = %v, want ErrNoQuorum", err)
		}
	})

	t.Run("n4", func(t *testing.T) {
		cl, reps := testCluster(t, 4, art, nil)
		if q := cl.Status().Quorum; q != 3 {
			t.Fatalf("N=4 quorum = %d, want 3", q)
		}
		ctx, cancel := ctxWithTimeout(t, 20*time.Second)
		defer cancel()
		reps[0].stop()
		waitReadyCount(t, cl, 3)
		// 3 of 4 is a majority: still exact.
		rep, err := cl.Query(ctx, client.Query{Type: "dist", U: 3, V: 42})
		if err != nil || rep.Degraded {
			t.Fatalf("N=4 one-down should stay exact: %+v err=%v", rep, err)
		}
		if want := art.Oracle.Query(3, 42); rep.Dist != want {
			t.Fatalf("N=4 one-down dist = %d, oracle says %d", rep.Dist, want)
		}
		reps[1].stop()
		waitReadyCount(t, cl, 2)
		// 2 of 4 is the tie: NOT a quorum — two disjoint halves could
		// otherwise both claim a majority.
		rep, err = cl.Query(ctx, client.Query{Type: "dist", U: 3, V: 42})
		if err != nil || !rep.Degraded {
			t.Fatalf("N=4 tie dist should be flagged degraded: %+v err=%v", rep, err)
		}
	})
}
