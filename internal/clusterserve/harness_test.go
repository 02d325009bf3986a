package clusterserve_test

import (
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"spanner/client"
	"spanner/internal/artifact"
	"spanner/internal/clusterserve"
	"spanner/internal/graph"
	"spanner/internal/serve"
)

// testArtifact builds a small connected graph + BFS-tree spanner artifact
// (the same shape cmd/spannerd's tests use).
func testArtifact(t testing.TB, n int, seed int64) *artifact.Artifact {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ConnectedGnp(n, 8/float64(n), rng)
	sp := graph.NewEdgeSet(g.N())
	_, parent := g.BFSWithParents(0)
	for v := int32(0); int(v) < g.N(); v++ {
		if parent[v] != graph.Unreachable && parent[v] != v {
			sp.Add(v, parent[v])
		}
	}
	a, err := artifact.Build(g, sp, "test", 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// nextGen builds the artifact one spanner edge smaller — a distinct
// generation that diffs cleanly against a.
func nextGen(t testing.TB, a *artifact.Artifact) *artifact.Artifact {
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
	return next
}

func saveArtifact(t testing.TB, dir, name string, a *artifact.Artifact) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := artifact.Save(path, a); err != nil {
		t.Fatal(err)
	}
	return path
}

func saveDelta(t testing.TB, dir, name string, from, to *artifact.Artifact) string {
	t.Helper()
	d, err := artifact.Diff(from, to)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := artifact.SaveDelta(path, d); err != nil {
		t.Fatal(err)
	}
	return path
}

// fakeReplica is an in-process spannerd stand-in: a real serve.Engine and
// clusterserve.Replica behind the minimal wire surface the router uses
// (/query with gen stamping and allowDegraded, /cluster/*). It can be
// killed and restarted on the same port — the in-process analogue of a
// SIGKILL + supervised restart, losing all in-memory state (including the
// adopted cluster generation) like a real crash.
type fakeReplica struct {
	t    *testing.T
	addr string // fixed host:port, survives restarts
	url  string

	// middleware, when non-nil, wraps the handler (fault injection hook).
	middleware func(http.Handler) http.Handler

	mu  sync.Mutex
	eng *serve.Engine
	rep *clusterserve.Replica
	srv *http.Server
}

func newFakeReplica(t *testing.T, art *artifact.Artifact) *fakeReplica {
	return newFakeReplicaWith(t, art, nil)
}

// newFakeReplicaWith wraps the replica's handler in mw (fault injection:
// failing prepares, slow queries).
func newFakeReplicaWith(t *testing.T, art *artifact.Artifact, mw func(http.Handler) http.Handler) *fakeReplica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeReplica{t: t, addr: ln.Addr().String(), middleware: mw}
	f.url = "http://" + f.addr
	f.start(ln, art, nil)
	t.Cleanup(f.stop)
	return f
}

// newFakePartReplica is newFakeReplica serving one partition of a split
// (the in-process analogue of spannerd -partition).
func newFakePartReplica(t *testing.T, part *artifact.Part) *fakeReplica {
	return newFakePartReplicaWith(t, part, nil)
}

func newFakePartReplicaWith(t *testing.T, part *artifact.Part, mw func(http.Handler) http.Handler) *fakeReplica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeReplica{t: t, addr: ln.Addr().String(), middleware: mw}
	f.url = "http://" + f.addr
	f.start(ln, nil, part)
	t.Cleanup(f.stop)
	return f
}

func (f *fakeReplica) start(ln net.Listener, art *artifact.Artifact, part *artifact.Part) {
	var eng *serve.Engine
	var err error
	if part != nil {
		eng, err = serve.NewPart(part, serve.Config{CacheSize: 64})
	} else {
		eng, err = serve.New(art, serve.Config{CacheSize: 64})
	}
	if err != nil {
		f.t.Fatal(err)
	}
	rep := clusterserve.NewReplica(eng, nil)
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		var q client.Query
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		typ, err := serve.ParseQueryType(q.Type)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var rep2 serve.Reply
		if q.AllowDegraded {
			rep2 = eng.DegradedDist(q.U, q.V)
		} else {
			rep2 = eng.Query(serve.Request{Type: typ, U: q.U, V: q.V})
		}
		status := http.StatusOK
		if rep2.Err != nil {
			status = http.StatusInternalServerError
		}
		out := client.Reply{
			Type: q.Type, U: rep2.U, V: rep2.V, Dist: rep2.Dist,
			Path: rep2.Path, Cached: rep2.Cached, Degraded: rep2.Degraded,
			Composed: rep2.Composed, Snapshot: rep2.SnapshotID,
			Gen: rep.GenOf(rep2.SnapshotID),
		}
		if rep2.Composed || rep2.Degraded {
			b := rep2.Bound
			out.Bound = &b
		}
		if rep2.Err != nil {
			out.Err = rep2.Err.Error()
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		var qs []client.Query
		if err := json.NewDecoder(r.Body).Decode(&qs); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := make([]client.Reply, len(qs))
		for i, q := range qs {
			typ, err := serve.ParseQueryType(q.Type)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			rep2 := eng.Query(serve.Request{Type: typ, U: q.U, V: q.V})
			out[i] = client.Reply{
				Type: q.Type, U: rep2.U, V: rep2.V, Dist: rep2.Dist,
				Path: rep2.Path, Cached: rep2.Cached, Degraded: rep2.Degraded,
				Composed: rep2.Composed, Snapshot: rep2.SnapshotID,
				Gen: rep.GenOf(rep2.SnapshotID),
			}
			if rep2.Composed || rep2.Degraded {
				b := rep2.Bound
				out[i].Bound = &b
			}
			if rep2.Err != nil {
				out[i].Err = rep2.Err.Error()
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
	rep.Register(mux)
	var handler http.Handler = mux
	if f.middleware != nil {
		handler = f.middleware(mux)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	f.mu.Lock()
	f.eng, f.rep, f.srv = eng, rep, srv
	f.mu.Unlock()
}

// stop kills the replica: the listener closes, in-flight connections are
// cut, all in-memory state (engine, staged generation, adopted cluster
// generation) is gone.
func (f *fakeReplica) stop() {
	f.mu.Lock()
	srv, eng := f.srv, f.eng
	f.srv, f.eng, f.rep = nil, nil, nil
	f.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	if eng != nil {
		eng.Close()
	}
}

// restart brings the replica back on the same port serving art — what a
// supervised spannerd does after a crash, with art standing in for the
// recovery scan's last-good result.
func (f *fakeReplica) restart(art *artifact.Artifact) {
	f.t.Helper()
	f.start(f.rebind(), art, nil)
}

// restartPart is restart for a partition replica.
func (f *fakeReplica) restartPart(part *artifact.Part) {
	f.t.Helper()
	f.start(f.rebind(), nil, part)
}

func (f *fakeReplica) rebind() net.Listener {
	f.t.Helper()
	f.stop()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", f.addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		f.t.Fatalf("rebinding %s: %v", f.addr, err)
	}
	return ln
}

// newRouter builds the coordinator over cfg and stops it at cleanup.
func newRouter(t *testing.T, cfg clusterserve.Config) *clusterserve.Router {
	t.Helper()
	rt, err := clusterserve.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// testCluster spins up n fake replicas on one artifact plus a router with
// fast probe cadence, and waits for all replicas to be routed.
func testCluster(t *testing.T, n int, art *artifact.Artifact, tweak func(*clusterserve.Config)) (*clusterserve.Router, []*fakeReplica) {
	t.Helper()
	reps := make([]*fakeReplica, n)
	urls := make([]string, n)
	for i := range reps {
		reps[i] = newFakeReplica(t, art)
		urls[i] = reps[i].url
	}
	cfg := clusterserve.Config{
		Replicas:      urls,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  time.Second,
		QueryTimeout:  2 * time.Second,
		Seed:          7,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	cl := newRouter(t, cfg)
	ctx, cancel := ctxWithTimeout(t, 10*time.Second)
	defer cancel()
	if err := cl.WaitReady(ctx, n); err != nil {
		t.Fatalf("cluster never became ready: %v (status %+v)", err, cl.Status())
	}
	return cl, reps
}
