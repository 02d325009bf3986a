package serve

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spanner/internal/artifact"
	"spanner/internal/graph"
)

// testArtifact builds a deterministic artifact: ConnectedGnp graph with a
// BFS-forest-plus-extras spanner.
func testArtifact(t testing.TB, n int, seed int64) *artifact.Artifact {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ConnectedGnp(n, 10/float64(n), rng)
	sp := graph.NewEdgeSet(g.N())
	_, parent := g.BFSWithParents(0)
	for v := int32(0); int(v) < g.N(); v++ {
		if parent[v] != graph.Unreachable && parent[v] != v {
			sp.Add(v, parent[v])
		}
	}
	g.ForEachEdge(func(u, v int32) {
		if (u+2*v)%5 == 0 {
			sp.Add(u, v)
		}
	})
	a, err := artifact.Build(g, sp, "test", 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnswersMatchDirectCalls(t *testing.T) {
	a := testArtifact(t, 200, 1)
	e, err := New(a, Config{CacheSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spg := a.Spanner.ToGraph(a.Graph.N())
	for u := int32(0); int(u) < a.Graph.N(); u += 7 {
		spDist := spg.BFS(u)
		for v := int32(0); int(v) < a.Graph.N(); v += 5 {
			d, err := e.Dist(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if want := a.Oracle.Query(u, v); d != want {
				t.Fatalf("Dist(%d,%d) = %d, want oracle answer %d", u, v, d, want)
			}
			p, err := e.Path(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if spDist[v] == graph.Unreachable {
				if p != nil {
					t.Fatalf("Path(%d,%d) returned a path for a disconnected pair", u, v)
				}
			} else {
				if int32(len(p)-1) != spDist[v] {
					t.Fatalf("Path(%d,%d) length %d, want spanner distance %d", u, v, len(p)-1, spDist[v])
				}
				if p[0] != u || p[len(p)-1] != v {
					t.Fatalf("Path(%d,%d) endpoints wrong: %v", u, v, p)
				}
				for i := 1; i < len(p); i++ {
					if !spg.HasEdge(p[i-1], p[i]) {
						t.Fatalf("Path(%d,%d) uses non-spanner edge (%d,%d)", u, v, p[i-1], p[i])
					}
				}
			}
			rp, err := e.Route(u, v)
			wp, werr := a.Routing.Route(u, v)
			if (err == nil) != (werr == nil) {
				t.Fatalf("Route(%d,%d) error mismatch: %v vs %v", u, v, err, werr)
			}
			if len(rp) != len(wp) {
				t.Fatalf("Route(%d,%d) length mismatch", u, v)
			}
			for i := range rp {
				if rp[i] != wp[i] {
					t.Fatalf("Route(%d,%d) hop %d mismatch", u, v, i)
				}
			}
		}
	}
}

func TestCacheHitsAreIdentical(t *testing.T) {
	a := testArtifact(t, 150, 2)
	e, err := New(a, Config{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, typ := range []QueryType{QueryDist, QueryPath, QueryRoute} {
		first := e.Query(Request{Type: typ, U: 3, V: 77})
		second := e.Query(Request{Type: typ, U: 3, V: 77})
		if first.Cached {
			t.Fatalf("%v: first query must be a miss", typ)
		}
		if !second.Cached {
			t.Fatalf("%v: second query must be a hit", typ)
		}
		if first.Dist != second.Dist || len(first.Path) != len(second.Path) || first.Bound != second.Bound {
			t.Fatalf("%v: cached answer differs", typ)
		}
	}
}

func TestBadInputsAreTyped(t *testing.T) {
	a := testArtifact(t, 50, 3)
	e, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if r := e.Query(Request{Type: QueryDist, U: -1, V: 2}); !errors.Is(r.Err, ErrBadVertex) {
		t.Fatalf("negative vertex: %v", r.Err)
	}
	if r := e.Query(Request{Type: QueryDist, U: 0, V: int32(a.Graph.N())}); !errors.Is(r.Err, ErrBadVertex) {
		t.Fatalf("overflow vertex: %v", r.Err)
	}
	if r := e.Query(Request{Type: QueryType(9), U: 0, V: 1}); !errors.Is(r.Err, ErrBadQuery) {
		t.Fatalf("bad type: %v", r.Err)
	}
	if _, err := ParseQueryType("nope"); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("parse: %v", err)
	}
}

func TestDeadlineRejection(t *testing.T) {
	a := testArtifact(t, 50, 4)
	e, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	r := e.Query(Request{Type: QueryDist, U: 0, V: 1, Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(r.Err, ErrDeadline) {
		t.Fatalf("expired deadline: got %v, want ErrDeadline", r.Err)
	}
}

// holder parks evaluations in the engine's testHook: the first n to start
// block until release is closed, announcing themselves on entered. The
// hook runs after admission and after the snapshot is pinned, so a parked
// evaluation holds an in-flight slot and a generation.
type holder struct {
	entered chan struct{}
	release chan struct{}
	left    atomic.Int32
}

// hold installs a holder for the first n evaluations; call it before any
// query runs.
func hold(e *Engine, n int) *holder {
	h := &holder{entered: make(chan struct{}, n), release: make(chan struct{})}
	h.left.Store(int32(n))
	e.SetTestHook(func() {
		if h.left.Add(-1) >= 0 {
			h.entered <- struct{}{}
			<-h.release
		}
	})
	return h
}

// start runs req on its own goroutine and returns once its evaluation is
// parked in the hook.
func (h *holder) start(e *Engine, req Request) <-chan Reply {
	out := make(chan Reply, 1)
	go func() { out <- e.Query(req) }()
	<-h.entered
	return out
}

func TestAdmissionControlOverload(t *testing.T) {
	a := testArtifact(t, 50, 5)
	e, err := New(a, Config{MaxInFlight: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h := hold(e, 1)
	held := h.start(e, Request{Type: QueryDist, U: 0, V: 1})
	if got := e.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d with one held evaluation, want 1", got)
	}
	if r := e.Query(Request{Type: QueryDist, U: 0, V: 1}); !errors.Is(r.Err, ErrOverloaded) {
		t.Fatalf("at the limit: got %v, want ErrOverloaded", r.Err)
	}
	close(h.release)
	if r := <-held; r.Err != nil || r.Dist != a.Oracle.Query(0, 1) {
		t.Fatalf("admitted query must complete with the oracle answer: %+v", r)
	}
	if got := e.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after the held evaluation finished, want 0", got)
	}
	if r := e.Query(Request{Type: QueryDist, U: 0, V: 1}); r.Err != nil {
		t.Fatalf("below the limit again: %v", r.Err)
	}
}

func TestCloseDrainsInFlightEvaluations(t *testing.T) {
	a := testArtifact(t, 100, 6)
	e, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := hold(e, 2)
	pairs := [][2]int32{{3, 71}, {40, 9}}
	var held []<-chan Reply
	for _, p := range pairs {
		held = append(held, h.start(e, Request{Type: QueryDist, U: p[0], V: p[1]}))
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	for !e.closed.Load() {
		runtime.Gosched()
	}
	// Admission is shut while the held evaluations still run.
	if r := e.Query(Request{Type: QueryDist, U: 0, V: 1}); !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("during close: got %v, want ErrClosed", r.Err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while evaluations were still in flight")
	default:
	}
	close(h.release)
	<-closed
	for i, ch := range held {
		r := <-ch
		if r.Err != nil || r.Dist != a.Oracle.Query(pairs[i][0], pairs[i][1]) {
			t.Fatalf("held query %d not answered during drain: %+v", i, r)
		}
	}
	if r := e.Query(Request{Type: QueryDist, U: 0, V: 1}); !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("post-close: got %v, want ErrClosed", r.Err)
	}
	e.Close() // idempotent
}

// TestHeldRequestLeavesNewerGenerationCache holds a request pinned to
// generation g while Swap installs g+1 and a g+1 query fills its cache
// entry. The held request must answer from g without reading, filling or
// resetting the g+1 partition: the next g+1 query is a correct cache hit.
func TestHeldRequestLeavesNewerGenerationCache(t *testing.T) {
	a1 := testArtifact(t, 150, 7)
	a2, err := artifact.Build(a1.Graph, a1.Spanner, "test", 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	// A pair the two generations answer differently, so a leaked entry in
	// either direction shows up as a wrong distance.
	n := int32(a1.Graph.N())
	var u, v int32
	for i := int32(0); i < n*n; i++ {
		if u, v = i/n, i%n; a1.Oracle.Query(u, v) != a2.Oracle.Query(u, v) {
			break
		}
	}
	if a1.Oracle.Query(u, v) == a2.Oracle.Query(u, v) {
		t.Fatal("no pair tells the two generations apart")
	}
	e, err := New(a1, Config{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h := hold(e, 1)
	req := Request{Type: QueryDist, U: u, V: v}
	held := h.start(e, req)
	gen2, err := e.Swap(a2)
	if err != nil {
		t.Fatal(err)
	}
	if r := e.Query(req); r.Cached || r.SnapshotID != gen2 || r.Dist != a2.Oracle.Query(u, v) {
		t.Fatalf("first g+1 query: %+v", r)
	}
	close(h.release)
	if r := <-held; r.Cached || r.SnapshotID != gen2-1 || r.Dist != a1.Oracle.Query(u, v) {
		t.Fatalf("held g query read the newer cache or answered from the wrong generation: %+v", r)
	}
	if r := e.Query(req); !r.Cached || r.SnapshotID != gen2 || r.Dist != a2.Oracle.Query(u, v) {
		t.Fatalf("g+1 entry was reset or overwritten by the older request: %+v", r)
	}
}

// TestQueryZeroAlloc pins Engine.Query at zero allocations for a distance
// query on a default engine, both uncached and as a cache hit.
func TestQueryZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector allocates; asserted unraced in make serve")
	}
	a := testArtifact(t, 200, 12)
	for _, tc := range []struct {
		name  string
		cache int
	}{{"nocache", -1}, {"hit", 0}} {
		e, err := New(a, Config{CacheSize: tc.cache})
		if err != nil {
			t.Fatal(err)
		}
		req := Request{Type: QueryDist, U: 3, V: 77}
		e.Query(req) // fills the cache in the hit case
		var r Reply
		allocs := testing.AllocsPerRun(500, func() { r = e.Query(req) })
		e.Close()
		if r.Err != nil || r.Cached != (tc.cache >= 0) {
			t.Fatalf("%s: reply %+v", tc.name, r)
		}
		if allocs != 0 {
			t.Fatalf("%s: Engine.Query makes %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestPathQueryOneAlloc holds an uncached path query to one allocation,
// the reply's path slice: the search runs on pooled graph.PathScratch.
func TestPathQueryOneAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector drops sync.Pool entries; asserted unraced in make serve")
	}
	a := testArtifact(t, 200, 12)
	e, err := New(a, Config{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	req := Request{Type: QueryPath, U: 3, V: 77}
	e.Query(req) // grows the pooled scratch
	var r Reply
	allocs := testing.AllocsPerRun(500, func() { r = e.Query(req) })
	if r.Err != nil || len(r.Path) < 4 {
		t.Fatalf("reply %+v, want a path of at least 3 hops", r)
	}
	if allocs != 1 {
		t.Fatalf("uncached path query makes %v allocs/op, want 1", allocs)
	}
}

func TestHotSwapInvalidatesCachesAndChangesAnswers(t *testing.T) {
	a1 := testArtifact(t, 150, 7)
	// Same graph, different oracle/routing seed: answers may differ, and the
	// generation id must tell them apart.
	a2, err := artifact.Build(a1.Graph, a1.Spanner, "test", 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(a1, Config{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	gen1 := e.SnapshotID()
	r1 := e.Query(Request{Type: QueryDist, U: 2, V: 140})
	if r1.SnapshotID != gen1 {
		t.Fatal("reply not stamped with generation")
	}
	if want := a1.Oracle.Query(2, 140); r1.Dist != want {
		t.Fatalf("gen1 answer %d, want %d", r1.Dist, want)
	}
	gen2, err := e.Swap(a2)
	if err != nil {
		t.Fatal(err)
	}
	if gen2 <= gen1 {
		t.Fatal("generation must increase")
	}
	r2 := e.Query(Request{Type: QueryDist, U: 2, V: 140})
	if r2.SnapshotID != gen2 {
		t.Fatalf("post-swap reply from generation %d, want %d", r2.SnapshotID, gen2)
	}
	if r2.Cached {
		t.Fatal("swap must invalidate the cache")
	}
	if want := a2.Oracle.Query(2, 140); r2.Dist != want {
		t.Fatalf("gen2 answer %d, want new oracle's %d", r2.Dist, want)
	}
}

func TestQueryBatchKeepsOrder(t *testing.T) {
	a := testArtifact(t, 120, 8)
	e, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reqs := make([]Request, 0, 90)
	for i := 0; i < 30; i++ {
		u, v := int32(i), int32((i*13+7)%120)
		reqs = append(reqs,
			Request{Type: QueryDist, U: u, V: v},
			Request{Type: QueryPath, U: u, V: v},
			Request{Type: QueryRoute, U: u, V: v})
	}
	replies := e.QueryBatch(reqs)
	if len(replies) != len(reqs) {
		t.Fatal("reply count mismatch")
	}
	for i, r := range replies {
		if r.Type != reqs[i].Type || r.U != reqs[i].U || r.V != reqs[i].V {
			t.Fatalf("reply %d out of order: %+v vs %+v", i, r, reqs[i])
		}
		if r.Type == QueryDist {
			if want := a.Oracle.Query(r.U, r.V); r.Dist != want {
				t.Fatalf("batch dist (%d,%d) = %d, want %d", r.U, r.V, r.Dist, want)
			}
		}
	}
}

func TestRouteBoundIsSound(t *testing.T) {
	a := testArtifact(t, 150, 9)
	e, err := New(a, Config{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap := e.Snapshot()
	for u := int32(0); int(u) < 150; u += 11 {
		for v := int32(0); int(v) < 150; v += 7 {
			if u == v {
				continue
			}
			r := e.Query(Request{Type: QueryRoute, U: u, V: v})
			if r.Err != nil {
				continue
			}
			bound := snap.RouteBound(u, v)
			if bound == graph.Unreachable {
				continue
			}
			// The served route takes the landmark route unless a vicinity
			// ball shortcut is strictly better, so the cached-landmark bound
			// dominates the hop count.
			if r.Dist > bound {
				t.Fatalf("route (%d,%d): %d hops exceeds landmark bound %d", u, v, r.Dist, bound)
			}
		}
	}
}
