package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spanner/client"
	"spanner/internal/clusterserve"
	"spanner/internal/serve"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// fakeReplicaServer is the minimal in-process replica the router surface
// tests need: a real engine + cluster control plane behind httptest.
func fakeReplicaServer(t *testing.T) *httptest.Server {
	t.Helper()
	art := chaosArtifact(t, 60, 3)
	eng, err := serve.New(art, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
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
		out := eng.Query(serve.Request{Type: typ, U: q.U, V: q.V})
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(client.Reply{
			Type: q.Type, U: out.U, V: out.V, Dist: out.Dist,
			Snapshot: out.SnapshotID, Gen: rep.GenOf(out.SnapshotID),
		})
	})
	rep.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// testRouter wires a routerServer over one fake replica and waits for it
// to be adopted and routed.
func testRouter(t *testing.T) (*httptest.Server, *clusterserve.Cluster) {
	t.Helper()
	replica := fakeReplicaServer(t)
	cl := clusterserve.New(clusterserve.Config{
		Replicas:      []string{replica.URL},
		ProbeInterval: 20 * time.Millisecond,
		Quorum:        1,
		Seed:          3,
	})
	t.Cleanup(cl.Close)
	srv := httptest.NewServer(newRouterServer(cl, discardLogger()).routes())
	t.Cleanup(srv.Close)
	deadline := time.Now().Add(10 * time.Second)
	for cl.Status().ReadyCount == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never adopted: %+v", cl.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return srv, cl
}

// TestRouterHTTPSurface covers the router's wire contract: query forms,
// attribution headers, error statuses, join idempotence, and the status
// endpoints.
func TestRouterHTTPSurface(t *testing.T) {
	srv, cl := testRouter(t)

	// GET query succeeds, stamps generation 1, names the serving replica.
	resp, err := http.Get(srv.URL + "/query?type=dist&u=3&v=17")
	if err != nil {
		t.Fatal(err)
	}
	var rep client.Reply
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Gen != 1 {
		t.Fatalf("GET query: status %d gen %d", resp.StatusCode, rep.Gen)
	}
	if resp.Header.Get("X-Served-By") == "" {
		t.Fatal("missing X-Served-By attribution header")
	}

	// Malformed coordinates and unknown query types are 400s, not 502s.
	for _, q := range []string{"/query?type=dist&u=x&v=2", "/query?type=bogus&u=1&v=2"} {
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}

	// Mutations without the required field are 400s before touching the
	// cluster.
	resp, err = http.Post(srv.URL+"/swap", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty swap body: status %d, want 400", resp.StatusCode)
	}
	// A swap naming an unreadable artifact aborts in prepare (422).
	resp, err = http.Post(srv.URL+"/swap", "application/json", strings.NewReader(`{"artifact":"/no/such/file"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad artifact swap: status %d, want 422", resp.StatusCode)
	}
	if got := cl.Gen(); got != 1 {
		t.Fatalf("failed swap moved the generation to %d", got)
	}

	// Join is idempotent and visible in /statusz.
	for i := 0; i < 2; i++ {
		resp, err = http.Post(srv.URL+"/join", "application/json",
			strings.NewReader(`{"url":"http://127.0.0.1:1"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("join: status %d", resp.StatusCode)
		}
	}
	var st clusterserve.Status
	resp, err = http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if len(st.Members) != 2 {
		t.Fatalf("after duplicate join: %d members, want 2", len(st.Members))
	}

	// healthz is always 200; readyz is 200 while quorum (1) holds even
	// though the joined dead replica can never become ready.
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}
