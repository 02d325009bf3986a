package main

// The chaos acceptance suite: the client+server pair under every seeded
// serve-path failure class. The bar (ISSUE 7): zero wrong distances, every
// degraded answer flagged, failures typed — never silent corruption.

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spanner/client"
	"spanner/internal/artifact"
	"spanner/internal/graph"
	"spanner/internal/httpchaos"
	"spanner/internal/obs"
	"spanner/internal/serve"
)

// chaosClient builds a client tuned for the suite: tight backoff so runs
// stay fast, a generous retry budget so bounded fault rates cannot starve
// the workload, and a breaker threshold high enough that shedding (tested
// in the client package) does not mask fidelity checks here.
func chaosClient(baseURL string, seed int64) *client.Client {
	return client.New(client.Config{
		BaseURL:          baseURL,
		MaxRetries:       6,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       8 * time.Millisecond,
		BreakerThreshold: 64,
		Seed:             seed,
	})
}

// TestChaosQueryFidelityPerFailureClass drives the retrying client through
// a chaotic server, one failure class at a time: every answer that comes
// back must match the oracle exactly, and every failure must be typed.
func TestChaosQueryFidelityPerFailureClass(t *testing.T) {
	a := testArtifact(t, 100, 41)
	classes := []struct {
		name string
		plan *httpchaos.Plan
	}{
		{"resets", &httpchaos.Plan{Seed: 1, Reset: 0.15}},
		{"err5xx-bursts", &httpchaos.Plan{Seed: 2, Err5xx: 0.08, BurstLen: 2}},
		{"truncated-bodies", &httpchaos.Plan{Seed: 3, Truncate: 0.15, TruncateAfter: 8}},
		{"slow-loris", &httpchaos.Plan{Seed: 4, SlowLoris: 0.2, SlowChunk: 16, SlowPause: time.Millisecond}},
		{"latency-spikes", &httpchaos.Plan{Seed: 5, Delay: 0.3, DelayFor: 2 * time.Millisecond}},
		{"combined", &httpchaos.Plan{Seed: 6, Reset: 0.05, Err5xx: 0.04, BurstLen: 2,
			Truncate: 0.05, Delay: 0.1, DelayFor: time.Millisecond}},
	}
	for _, tc := range classes {
		t.Run(tc.name, func(t *testing.T) {
			ob := obs.New()
			eng, err := serve.New(a, serve.Config{Obs: ob})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(tc.plan.Middleware(newServer(eng, ob, serverOpts{}).routes()))
			t.Cleanup(func() { ts.Close(); eng.Close() })
			cl := chaosClient(ts.URL, 11)

			const queries = 120
			fails := 0
			for i := 0; i < queries; i++ {
				u := int32((i * 7) % 100)
				v := int32((i*13 + 5) % 100)
				rep, err := cl.Dist(context.Background(), u, v)
				if err != nil {
					if !errors.Is(err, client.ErrUnavailable) && !errors.Is(err, client.ErrTimeout) {
						t.Fatalf("query (%d,%d): untyped failure %v", u, v, err)
					}
					fails++
					continue
				}
				if rep.Degraded {
					t.Fatalf("query (%d,%d) flagged degraded with no brownout", u, v)
				}
				if want := a.Oracle.Query(u, v); rep.Dist != want {
					t.Fatalf("query (%d,%d) = %d, oracle says %d — wrong answer under %s",
						u, v, rep.Dist, want, tc.name)
				}
			}
			if st := tc.plan.Stats(); st.Total() == 0 {
				t.Fatalf("chaos plan injected nothing — the class was not exercised")
			} else {
				t.Logf("%s: injected %+v, %d/%d queries failed after retries", tc.name, st, fails, queries)
			}
			if fails > queries/10 {
				t.Fatalf("%d/%d queries failed — unavailability not bounded by the retry budget", fails, queries)
			}
		})
	}
}

// TestChaosBrownoutDegradedFlagged overloads a deliberately tiny engine in
// brownout mode: inexact answers are allowed, but every one must carry the
// Degraded flag and stay a true upper bound, and low-priority traffic must
// shed with the typed rejection. The engine admits one evaluation and a
// test hook holds one in flight, so which replies are over the limit does
// not depend on goroutine timing.
func TestChaosBrownoutDegradedFlagged(t *testing.T) {
	a := testArtifact(t, 100, 43)
	ob := obs.New()
	eng, err := serve.New(a, serve.Config{MaxInFlight: 1, CacheSize: -1, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var held atomic.Bool
	eng.SetTestHook(func() {
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	})
	ts := httptest.NewServer(newServer(eng, ob, serverOpts{}).routes())
	t.Cleanup(func() { ts.Close(); eng.Close() })
	eng.SetBrownout(true)
	cl := chaosClient(ts.URL, 13)

	// Exact answers must equal the oracle; degraded answers are a different
	// estimator (landmark route bounds), so the invariant they owe is being
	// a true upper bound on the real graph distance.
	var degraded, exact int
	query := func(i int) (flagged bool) {
		t.Helper()
		u := int32((i * 11) % 100)
		v := int32((i*29 + 3) % 100)
		rep, err := cl.Dist(context.Background(), u, v)
		if err != nil {
			t.Fatalf("query (%d,%d) failed under overload: %v", u, v, err)
		}
		if rep.Degraded {
			degraded++
			if rep.Dist == graph.Unreachable {
				t.Fatalf("degraded (%d,%d) answered Unreachable on a connected graph", u, v)
			}
			truth, _ := a.Graph.BFSWithParents(u)
			if rep.Dist < truth[v] {
				t.Fatalf("degraded (%d,%d) = %d below the true distance %d — not an upper bound",
					u, v, rep.Dist, truth[v])
			}
			return true
		}
		exact++
		if want := a.Oracle.Query(u, v); rep.Dist != want {
			t.Fatalf("unflagged (%d,%d) = %d, oracle says %d — wrong answer not marked degraded",
				u, v, rep.Dist, want)
		}
		return false
	}

	// One evaluation held: the engine is at its limit, so every distance
	// query gets the landmark bound.
	heldReply := make(chan serve.Reply, 1)
	go func() { heldReply <- eng.Query(serve.Request{Type: serve.QueryDist, U: 5, V: 60}) }()
	<-entered
	const queries = 50
	for i := 0; i < queries; i++ {
		if !query(i) {
			t.Fatalf("query %d answered exactly while the engine was at its in-flight limit", i)
		}
	}
	close(release)
	if rep := <-heldReply; rep.Err != nil || rep.Degraded || rep.Dist != a.Oracle.Query(5, 60) {
		t.Fatalf("held evaluation: %+v", rep)
	}
	// Below the limit again: brownout alone does not degrade high-priority
	// answers.
	for i := 0; i < queries; i++ {
		if query(i) {
			t.Fatalf("query %d degraded below the in-flight limit", i)
		}
	}
	t.Logf("brownout overload: %d degraded (flagged), %d exact", degraded, exact)

	// Low-priority traffic sheds with the typed rejection, not a 5xx.
	_, err = cl.Query(context.Background(), client.Query{Type: "dist", U: 1, V: 2, Priority: "low"})
	if !errors.Is(err, client.ErrRejected) {
		t.Fatalf("low-priority under brownout: %v, want ErrRejected", err)
	}
}

// TestChaosConcurrentSwapUpdateMonotonic races /swap and /update against
// query workers through a chaotic server. The chaos plan uses only
// pre-handler fault classes (resets, injected 5xx) so a failed mutation is
// guaranteed un-applied — which makes the bookkeeping exact: every reply
// must match the oracle of the generation that stamped it (zero wrong),
// every issued query must resolve (zero dropped), per-worker generations
// never go backwards, and the final generation counts every accepted
// mutation exactly once.
func TestChaosConcurrentSwapUpdateMonotonic(t *testing.T) {
	dir := t.TempDir()
	a := testArtifact(t, 120, 47)
	b := nextGen(t, a)
	c := nextGen(t, b)
	aPath := saveGen(t, dir, "a.spanart", a, time.Now())
	bPath := saveGen(t, dir, "b.spanart", b, time.Now())
	saveDeltaBetween(t, dir, "ab.spandelta", a, b)
	saveDeltaBetween(t, dir, "bc.spandelta", b, c)
	abPath := dir + "/ab.spandelta"
	bcPath := dir + "/bc.spandelta"

	ob := obs.New()
	eng, err := serve.New(a, serve.Config{CacheSize: 64, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	plan := &httpchaos.Plan{Seed: 17, Reset: 0.03, Err5xx: 0.03, BurstLen: 2}
	ts := httptest.NewServer(plan.Middleware(newServer(eng, ob, serverOpts{}).routes()))
	t.Cleanup(func() { ts.Close(); eng.Close() })

	// genArt maps every generation the engine has ever served to the
	// artifact behind it; mutators record their accepted generations, so
	// after the run every stamped reply has exactly one answer book.
	var mu sync.Mutex
	genArt := map[int64]*artifact.Artifact{eng.SnapshotID(): a}
	mutations := 0
	record := func(gen int64, art *artifact.Artifact) {
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := genArt[gen]; ok && prev != art {
			t.Errorf("generation %d recorded twice with different artifacts", gen)
		}
		genArt[gen] = art
		mutations++
	}

	type obsReply struct {
		snap int64
		u, v int32
		dist int32
	}
	var wg sync.WaitGroup

	// Swapper: alternates the two on-disk generations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := chaosClient(ts.URL, 101)
		for i := 0; i < 40; i++ {
			path, art := aPath, a
			if i%2 == 1 {
				path, art = bPath, b
			}
			res, err := cl.Swap(context.Background(), path)
			if err != nil {
				if !errors.Is(err, client.ErrUnavailable) && !errors.Is(err, client.ErrTimeout) {
					t.Errorf("swap: untyped failure %v", err)
				}
				continue
			}
			record(res.Snapshot, art)
		}
	}()

	// Updater: deltas bind to a checksum, so most attempts 409 against the
	// moving base — exactly the contract ErrConflict types.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := chaosClient(ts.URL, 103)
		for i := 0; i < 40; i++ {
			path, art := abPath, b
			if i%2 == 1 {
				path, art = bcPath, c
			}
			res, err := cl.Update(context.Background(), path)
			if err != nil {
				if !errors.Is(err, client.ErrConflict) &&
					!errors.Is(err, client.ErrUnavailable) && !errors.Is(err, client.ErrTimeout) {
					t.Errorf("update: untyped failure %v", err)
				}
				continue
			}
			record(res.Snapshot, art)
		}
	}()

	// Query workers: record every answer with the generation that stamped
	// it; validation happens after the mutators finish and the map is full.
	const workers = 4
	const iters = 100
	seen := make([][]obsReply, workers)
	var failed int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := chaosClient(ts.URL, int64(200+w))
			last := int64(0)
			for i := 0; i < iters; i++ {
				u := int32(((i + w*31) * 7) % 120)
				v := int32(((i+w*31)*13 + 5) % 120)
				rep, err := cl.Dist(context.Background(), u, v)
				if err != nil {
					if !errors.Is(err, client.ErrUnavailable) && !errors.Is(err, client.ErrTimeout) {
						t.Errorf("worker %d: untyped failure %v", w, err)
					}
					mu.Lock()
					failed++
					mu.Unlock()
					continue
				}
				if rep.Snapshot < last {
					t.Errorf("worker %d: generation went backwards, %d after %d", w, rep.Snapshot, last)
				}
				last = rep.Snapshot
				seen[w] = append(seen[w], obsReply{rep.Snapshot, u, v, rep.Dist})
			}
		}(w)
	}
	wg.Wait()

	if mutations == 0 {
		t.Fatal("no mutation succeeded — the interleaving was not exercised")
	}
	if got, want := eng.SnapshotID(), int64(1+mutations); got != want {
		t.Fatalf("final generation %d, want %d (1 + %d accepted mutations) — a mutation was dropped or double-counted",
			got, want, mutations)
	}
	answered := 0
	for w := range seen {
		for _, r := range seen[w] {
			art, ok := genArt[r.snap]
			if !ok {
				t.Fatalf("reply stamped by unknown generation %d", r.snap)
			}
			if want := art.Oracle.Query(r.u, r.v); r.dist != want {
				t.Fatalf("(%d,%d) = %d at generation %d, its oracle says %d — wrong answer under churn",
					r.u, r.v, r.dist, r.snap, want)
			}
			answered++
		}
	}
	if int64(answered)+failed != workers*iters {
		t.Fatalf("%d answered + %d failed != %d issued — queries dropped silently", answered, failed, workers*iters)
	}
	if failed > workers*iters/10 {
		t.Fatalf("%d/%d queries failed — unavailability not bounded", failed, workers*iters)
	}
	t.Logf("churn: %d mutations accepted, %d/%d queries answered (%d typed failures), chaos %+v",
		mutations, answered, workers*iters, failed, plan.Stats())
}
