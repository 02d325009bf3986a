package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spanner/client"
	"spanner/internal/artifact"
	"spanner/internal/clusterserve"
	"spanner/internal/serve"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// fakeReplicaServer is the minimal in-process replica the router surface
// tests need: a real engine + cluster control plane behind httptest. It
// serves part when non-nil (spannerd -partition), else a whole artifact.
func fakeReplicaServer(t *testing.T, part *artifact.Part) *httptest.Server {
	t.Helper()
	var eng *serve.Engine
	var err error
	if part != nil {
		eng, err = serve.NewPart(part, serve.Config{})
	} else {
		eng, err = serve.New(chaosArtifact(t, 60, 3), serve.Config{})
	}
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

// serveRouter builds the router over cfg, serves it over httptest, and
// waits until every group is quorate.
func serveRouter(t *testing.T, cfg clusterserve.Config) (*httptest.Server, *clusterserve.Router) {
	t.Helper()
	cfg.ProbeInterval = 20 * time.Millisecond
	cfg.Quorum = 1
	cfg.Seed = 3
	rt, err := clusterserve.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv := httptest.NewServer(newRouterServer(rt, discardLogger()).routes())
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.WaitReady(ctx, 1); err != nil {
		t.Fatalf("replica never adopted: %v", err)
	}
	return srv, rt
}

// testRouter serves an unpartitioned router over one fake replica.
func testRouter(t *testing.T) (*httptest.Server, *clusterserve.Router) {
	t.Helper()
	return serveRouter(t, clusterserve.Config{Replicas: []string{fakeReplicaServer(t, nil).URL}})
}

// testPartRouter serves a router with a two-partition map, one fake part
// replica per partition.
func testPartRouter(t *testing.T) (*httptest.Server, *clusterserve.Router) {
	t.Helper()
	mapPath, res := writeSplit(t, chaosArtifact(t, 60, 3), 2, 5, t.TempDir())
	var urls []string
	for _, p := range res.Parts {
		urls = append(urls, fakeReplicaServer(t, p).URL)
	}
	return serveRouter(t, clusterserve.Config{Replicas: urls, MapPath: mapPath})
}

// TestRouterHTTPSurface covers the router's wire contract in both modes:
// query forms, attribution headers, error statuses, join idempotence, and
// the status endpoints.
func TestRouterHTTPSurface(t *testing.T) {
	for _, tc := range []struct {
		name   string
		router func(t *testing.T) (*httptest.Server, *clusterserve.Router)
		// mutations maps "path body" to its status; none moves the
		// generation.
		mutations map[string]int
		route     int // status of a route query
		// joined checks /statusz after a duplicate join of a dead replica.
		joined func(t *testing.T, body []byte)
	}{{
		name:   "whole",
		router: testRouter,
		mutations: map[string]int{
			// Mutations without the required field are 400s before
			// touching the cluster.
			`/swap {}`: http.StatusBadRequest,
			// A swap naming an unreadable artifact aborts in prepare.
			`/swap {"artifact":"/no/such/file"}`: http.StatusUnprocessableEntity,
			`/swap {"map":"/no/such/file"}`:      http.StatusBadRequest,
		},
		route: http.StatusOK,
		joined: func(t *testing.T, body []byte) {
			var st clusterserve.Status
			json.Unmarshal(body, &st)
			if len(st.Members) != 2 {
				t.Fatalf("after duplicate join: %d members, want 2", len(st.Members))
			}
		},
	}, {
		name:   "partitioned",
		router: testPartRouter,
		mutations: map[string]int{
			`/swap {}`:                           http.StatusBadRequest,
			`/swap {"artifact":"/no/such/file"}`: http.StatusBadRequest,
			`/swap {"map":"/no/such/file"}`:      http.StatusUnprocessableEntity,
			`/update {"delta":"/no/such/file"}`:  http.StatusBadRequest,
			`/update {}`:                         http.StatusBadRequest,
		},
		route: http.StatusBadRequest,
		joined: func(t *testing.T, body []byte) {
			var st clusterserve.PartitionedStatus
			json.Unmarshal(body, &st)
			if len(st.Groups) != 2 || len(st.Pending) != 1 {
				t.Fatalf("after duplicate join: %d groups, pending %v; want 2 groups, 1 pending", len(st.Groups), st.Pending)
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, cl := tc.router(t)

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
			resp, err = http.Get(srv.URL + "/query?type=route&u=1&v=2")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.route {
				t.Fatalf("route query: status %d, want %d", resp.StatusCode, tc.route)
			}

			for req, want := range tc.mutations {
				path, body, _ := strings.Cut(req, " ")
				resp, err = http.Post(srv.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != want {
					t.Fatalf("%s: status %d, want %d", req, resp.StatusCode, want)
				}
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
			resp, err = http.Get(srv.URL + "/statusz")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			tc.joined(t, body)

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
		})
	}
}
