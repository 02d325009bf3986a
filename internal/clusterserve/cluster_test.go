package clusterserve_test

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"spanner/client"
	"spanner/internal/clusterserve"
)

func ctxWithTimeout(t *testing.T, d time.Duration) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), d)
}

// TestBootstrapAndRouting: the router adopts three identical replicas as
// generation 1 and routes queries that match the artifact's own oracle,
// stamped with the cluster generation.
func TestBootstrapAndRouting(t *testing.T) {
	art := testArtifact(t, 100, 1)
	cl, _ := testCluster(t, 3, art, nil)

	st := cl.Status()
	if st.Gen != 1 || st.ReadyCount != 3 || st.Checksum != art.Checksum() {
		t.Fatalf("bootstrap status: %+v", st)
	}
	ctx, cancel := ctxWithTimeout(t, 5*time.Second)
	defer cancel()
	for _, pair := range [][2]int32{{3, 42}, {0, 99}, {17, 58}} {
		rep, err := cl.Query(ctx, client.Query{Type: "dist", U: pair[0], V: pair[1]})
		if err != nil {
			t.Fatalf("dist(%d,%d): %v", pair[0], pair[1], err)
		}
		if want := art.Oracle.Query(pair[0], pair[1]); rep.Dist != want {
			t.Fatalf("dist(%d,%d) = %d, oracle says %d", pair[0], pair[1], rep.Dist, want)
		}
		if rep.Gen != 1 || rep.Degraded {
			t.Fatalf("reply not stamped with gen 1 exact: %+v", rep)
		}
	}
}

// TestTwoPhaseSwapCommit: a cluster-wide swap advances every replica to
// generation 2 atomically; answers immediately afterwards come from the
// new artifact and carry the new generation.
func TestTwoPhaseSwapCommit(t *testing.T) {
	art := testArtifact(t, 100, 2)
	art2 := nextGen(t, art)
	path2 := saveArtifact(t, t.TempDir(), "g2.spanart", art2)
	cl, _ := testCluster(t, 3, art, nil)

	ctx, cancel := ctxWithTimeout(t, 10*time.Second)
	defer cancel()
	res, err := cl.Swap(ctx, path2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 2 || res.Checksum != art2.Checksum() || res.Committed != 3 || len(res.Ejected) != 0 {
		t.Fatalf("swap result: %+v", res)
	}
	for i := 0; i < 20; i++ {
		rep, err := cl.Query(ctx, client.Query{Type: "dist", U: 5, V: int32(40 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Gen != 2 {
			t.Fatalf("post-swap reply at gen %d, want 2: %+v", rep.Gen, rep)
		}
		if want := art2.Oracle.Query(5, int32(40+i)); rep.Dist != want {
			t.Fatalf("post-swap dist = %d, gen-2 oracle says %d", rep.Dist, want)
		}
	}
}

// TestTwoPhaseAbortRollsBack: one replica failing prepare aborts the
// mutation everywhere — the generation does not advance, every replica
// still serves the old artifact, and the cluster keeps answering.
func TestTwoPhaseAbortRollsBack(t *testing.T) {
	art := testArtifact(t, 100, 3)
	art2 := nextGen(t, art)
	path2 := saveArtifact(t, t.TempDir(), "g2.spanart", art2)

	// Build replicas by hand so one can refuse prepares.
	reps := make([]*fakeReplica, 3)
	urls := make([]string, 3)
	for i := range reps {
		if i == 2 {
			// Replica 2 answers 500 to every prepare: disk full, torn
			// artifact, any phase-one failure.
			reps[i] = newFakeReplicaWith(t, art, func(next http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/cluster/prepare" {
						http.Error(w, `{"err":"induced prepare failure"}`, http.StatusInternalServerError)
						return
					}
					next.ServeHTTP(w, r)
				})
			})
		} else {
			reps[i] = newFakeReplica(t, art)
		}
		urls[i] = reps[i].url
	}
	cl := newRouter(t, clusterserve.Config{
		Replicas:      urls,
		ProbeInterval: 20 * time.Millisecond,
		Seed:          7,
	})
	ctx, cancel := ctxWithTimeout(t, 10*time.Second)
	defer cancel()
	if err := cl.WaitReady(ctx, 3); err != nil {
		t.Fatal(err)
	}

	if _, err := cl.Swap(ctx, path2); !errors.Is(err, clusterserve.ErrPrepare) {
		t.Fatalf("swap with failing prepare: err = %v, want ErrPrepare", err)
	}
	st := cl.Status()
	if st.Gen != 1 || st.Checksum != art.Checksum() {
		t.Fatalf("generation advanced after abort: %+v", st)
	}
	// The stage was rolled back: replicas are (or become) ready again and
	// answer from the old artifact.
	if err := cl.WaitReady(ctx, 3); err != nil {
		t.Fatalf("replicas stuck after abort: %v (status %+v)", err, cl.Status())
	}
	rep, err := cl.Query(ctx, client.Query{Type: "dist", U: 3, V: 42})
	if err != nil || rep.Gen != 1 || rep.Dist != art.Oracle.Query(3, 42) {
		t.Fatalf("post-abort answer: %+v err=%v", rep, err)
	}
}

// TestUpdateDeltaAndConflict: a delta advances the cluster; replaying the
// same delta (whose base is now stale) is refused as a conflict without
// advancing anything.
func TestUpdateDeltaAndConflict(t *testing.T) {
	art := testArtifact(t, 100, 4)
	art2 := nextGen(t, art)
	dpath := saveDelta(t, t.TempDir(), "g2.spandelta", art, art2)
	cl, _ := testCluster(t, 3, art, nil)

	ctx, cancel := ctxWithTimeout(t, 10*time.Second)
	defer cancel()
	res, err := cl.Update(ctx, dpath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 2 || res.Checksum != art2.Checksum() || res.Committed != 3 {
		t.Fatalf("update result: %+v", res)
	}
	if _, err := cl.Update(ctx, dpath); !errors.Is(err, clusterserve.ErrConflictPrepare) {
		t.Fatalf("stale-base update: err = %v, want ErrConflictPrepare", err)
	}
	if got := cl.Gen(); got != 2 {
		t.Fatalf("gen after refused update: %d, want 2", got)
	}
}

// TestFailoverAndRejoin: killing a replica under traffic loses no queries
// (failover answers from survivors), the dead replica is ejected, and
// after a restart with the same artifact it is adopted back at the
// committed generation.
func TestFailoverAndRejoin(t *testing.T) {
	art := testArtifact(t, 100, 5)
	cl, reps := testCluster(t, 3, art, nil)
	ctx, cancel := ctxWithTimeout(t, 30*time.Second)
	defer cancel()

	reps[1].stop()
	// Every query must still answer exactly, through failover if routed at
	// the dead replica first.
	for i := 0; i < 30; i++ {
		rep, err := cl.Query(ctx, client.Query{Type: "dist", U: int32(i), V: int32(99 - i)})
		if err != nil {
			t.Fatalf("query %d after kill: %v", i, err)
		}
		if want := art.Oracle.Query(int32(i), int32(99-i)); rep.Dist != want || rep.Degraded {
			t.Fatalf("query %d: got %d degraded=%v, want exact %d", i, rep.Dist, rep.Degraded, want)
		}
	}
	// Ejection: ready count drops to 2.
	deadline := time.Now().Add(10 * time.Second)
	for cl.Status().ReadyCount != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("dead replica never ejected: %+v", cl.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Restart from the same artifact (what the recovery scan would serve).
	// The fresh process lost its cluster generation; the prober re-adopts
	// it because its checksum matches the committed record.
	reps[1].restart(art)
	if err := cl.WaitReady(ctx, 3); err != nil {
		t.Fatalf("replica never rejoined: %v (status %+v)", err, cl.Status())
	}
	st := cl.Status()
	for _, m := range st.Members {
		if m.Gen != 1 {
			t.Fatalf("member %s at gen %d after rejoin, want 1: %+v", m.URL, m.Gen, st)
		}
	}
	if st.Rejoins == 0 || st.Ejections == 0 {
		t.Fatalf("ejection/rejoin not recorded: %+v", st)
	}
}

// TestRestartBetweenProbesNeverAnswersUnadopted restarts a routed replica
// before the prober notices. Until it is adopted again it answers exact
// queries and batches stamped with no cluster generation; the router must
// treat those answers as failed attempts and fail over, never return them.
func TestRestartBetweenProbesNeverAnswersUnadopted(t *testing.T) {
	art := testArtifact(t, 100, 5)
	cl, reps := testCluster(t, 3, art, func(c *clusterserve.Config) {
		c.ProbeInterval = 200 * time.Millisecond
	})
	ctx, cancel := ctxWithTimeout(t, 30*time.Second)
	defer cancel()
	reps[1].restart(art)
	for i := 0; i < 30; i++ {
		q := client.Query{Type: "dist", U: int32(i), V: int32(99 - i)}
		var rep client.Reply
		var err error
		if i%2 == 0 {
			rep, err = cl.Query(ctx, q)
		} else {
			var rs []client.Reply
			if rs, err = cl.Batch(ctx, []client.Query{q}); err == nil {
				rep = rs[0]
			}
		}
		if err != nil {
			t.Fatalf("request %d after restart: %v", i, err)
		}
		if rep.Degraded || rep.Gen != 1 {
			t.Fatalf("request %d: degraded=%v gen %d, want an exact gen-1 answer", i, rep.Degraded, rep.Gen)
		}
	}
}

// TestCatchUpReplay: a replica that missed a swap (dead while the cluster
// advanced) comes back serving the old artifact and is walked to the
// committed generation by replaying the recorded swap before it takes
// traffic again.
func TestCatchUpReplay(t *testing.T) {
	art := testArtifact(t, 100, 6)
	art2 := nextGen(t, art)
	path2 := saveArtifact(t, t.TempDir(), "g2.spanart", art2)
	cl, reps := testCluster(t, 3, art, nil)
	ctx, cancel := ctxWithTimeout(t, 30*time.Second)
	defer cancel()

	reps[2].stop()
	deadline := time.Now().Add(10 * time.Second)
	for cl.Status().ReadyCount != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("dead replica never ejected: %+v", cl.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}
	res, err := cl.Swap(ctx, path2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 2 {
		t.Fatalf("swap: %+v", res)
	}

	// The dead replica restarts with the OLD artifact — its local recovery
	// has no idea a swap happened.
	reps[2].restart(art)
	if err := cl.WaitReady(ctx, 3); err != nil {
		t.Fatalf("stale replica never caught up: %v (status %+v)", err, cl.Status())
	}
	st := cl.Status()
	if st.Catchups == 0 {
		t.Fatalf("catch-up not recorded: %+v", st)
	}
	for _, m := range st.Members {
		if m.Gen != 2 || m.Checksum != art2.Checksum() {
			t.Fatalf("member %s not at committed generation: %+v", m.URL, st)
		}
	}
	// And it answers gen-2 queries exactly.
	rep, err := cl.Query(ctx, client.Query{Type: "dist", U: 7, V: 70})
	if err != nil || rep.Gen != 2 || rep.Dist != art2.Oracle.Query(7, 70) {
		t.Fatalf("post-catch-up answer: %+v err=%v", rep, err)
	}
}

// TestQuorumLossDegrades: with 2 of 3 replicas dead the cluster refuses to
// claim exactness but does not go dark — distance queries come back as
// explicitly flagged landmark bounds, path queries fail with ErrNoQuorum.
func TestQuorumLossDegrades(t *testing.T) {
	art := testArtifact(t, 100, 7)
	cl, reps := testCluster(t, 3, art, nil)
	ctx, cancel := ctxWithTimeout(t, 30*time.Second)
	defer cancel()

	reps[0].stop()
	reps[1].stop()
	deadline := time.Now().Add(10 * time.Second)
	for cl.Status().ReadyCount > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("dead replicas never ejected: %+v", cl.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}

	rep, err := cl.Query(ctx, client.Query{Type: "dist", U: 3, V: 42})
	if err != nil {
		t.Fatalf("quorum-loss dist should degrade, not fail: %v", err)
	}
	if !rep.Degraded {
		t.Fatalf("quorum-loss answer not flagged degraded: %+v", rep)
	}
	if _, err := cl.Query(ctx, client.Query{Type: "path", U: 3, V: 42}); !errors.Is(err, clusterserve.ErrNoQuorum) {
		t.Fatalf("quorum-loss path: err = %v, want ErrNoQuorum", err)
	}
	// Mutations are refused outright: committing on a minority could fork.
	if _, err := cl.Swap(ctx, "/nonexistent"); !errors.Is(err, clusterserve.ErrNoQuorum) {
		t.Fatalf("quorum-loss swap: err = %v, want ErrNoQuorum", err)
	}
	if cl.Status().Degraded == 0 {
		t.Fatalf("degraded answers not counted: %+v", cl.Status())
	}
}

// TestHedgedRequests: a replica with a long tail does not set the
// cluster's latency — the hedge fires a second replica and the fast
// answer wins.
func TestHedgedRequests(t *testing.T) {
	art := testArtifact(t, 100, 8)
	slow := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/query" {
				time.Sleep(800 * time.Millisecond)
			}
			next.ServeHTTP(w, r)
		})
	}
	slowRep := newFakeReplicaWith(t, art, slow)
	fastRep := newFakeReplica(t, art)
	cl := newRouter(t, clusterserve.Config{
		Replicas:      []string{slowRep.url, fastRep.url},
		ProbeInterval: 20 * time.Millisecond,
		Hedge:         30 * time.Millisecond,
		QueryTimeout:  5 * time.Second,
		Quorum:        1,
		Seed:          7,
	})
	ctx, cancel := ctxWithTimeout(t, 30*time.Second)
	defer cancel()
	if err := cl.WaitReady(ctx, 2); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 6; i++ {
		rep, err := cl.Query(ctx, client.Query{Type: "dist", U: int32(i), V: int32(50 + i)})
		if err != nil {
			t.Fatalf("hedged query %d: %v", i, err)
		}
		if want := art.Oracle.Query(int32(i), int32(50+i)); rep.Dist != want {
			t.Fatalf("hedged query %d: %d, want %d", i, rep.Dist, want)
		}
	}
	// 6 queries, ~half routed at the slow replica first. Without hedging
	// those cost 800ms each (~2.4s+); with it every query resolves at
	// hedge-delay + fast-replica time.
	if elapsed := time.Since(start); elapsed > 2400*time.Millisecond {
		t.Fatalf("hedging did not contain tail latency: %v for 6 queries", elapsed)
	}
	if st := cl.Status(); st.Hedges == 0 {
		t.Fatalf("no hedges recorded: %+v", st)
	}
}

// TestSwapUnderLoadPerGenerationExactness is the in-process zero-wrong-
// answers oracle: queries hammer the router while the cluster walks
// through two generation changes; every non-degraded reply must match the
// oracle of exactly the generation stamped on it, and generations must
// never exceed the committed one.
func TestSwapUnderLoadPerGenerationExactness(t *testing.T) {
	art1 := testArtifact(t, 100, 9)
	art2 := nextGen(t, art1)
	art3 := nextGen(t, art2)
	dir := t.TempDir()
	path2 := saveArtifact(t, dir, "g2.spanart", art2)
	dpath3 := saveDelta(t, dir, "g3.spandelta", art2, art3)
	cl, _ := testCluster(t, 3, art1, nil)
	oracles := map[int64]interface {
		Query(u, v int32) int32
	}{
		1: art1.Oracle, 2: art2.Oracle, 3: art3.Oracle,
	}

	ctx, cancel := ctxWithTimeout(t, 60*time.Second)
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u, v := int32((w*31+i)%100), int32((w*17+i*3)%100)
				rep, err := cl.Query(ctx, client.Query{Type: "dist", U: u, V: v})
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
				if rep.Degraded {
					continue
				}
				orc, ok := oracles[rep.Gen]
				if !ok {
					select {
					case errc <- errors.New("reply with unknown generation"):
					default:
					}
					return
				}
				if want := orc.Query(u, v); rep.Dist != want {
					select {
					case errc <- errors.New("WRONG ANSWER for its generation"):
					default:
					}
					return
				}
			}
		}(w)
	}

	if _, err := cl.Swap(ctx, path2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if _, err := cl.Update(ctx, dpath3); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("under churn: %v", err)
	default:
	}
	if got := cl.Gen(); got != 3 {
		t.Fatalf("final gen %d, want 3", got)
	}
}
