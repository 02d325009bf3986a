package spanner_test

import (
	"context"
	"net"
	"testing"
	"time"

	"spanner"
	"spanner/client"
)

// TestWireServeFidelity is the facade-level acceptance check for the binary
// transport: a WireServer over a real built artifact, driven through the
// public pooled client, must answer exactly what the engine answers
// in-process for every query type.
func TestWireServeFidelity(t *testing.T) {
	art := buildServeArtifact(t, 250, 3, 19)
	eng, err := spanner.NewServeEngine(art, spanner.ServeConfig{CacheSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	srv, err := spanner.NewWireServer(spanner.WireServerConfig{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}()

	wc, err := client.NewWire(client.WireConfig{Addr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	ctx := context.Background()

	for u := int32(0); int(u) < art.Graph.N(); u += 17 {
		for v := int32(1); int(v) < art.Graph.N(); v += 11 {
			rep := eng.Query(spanner.ServeRequest{Type: spanner.ServeQueryDist, U: u, V: v})
			got, err := wc.Dist(ctx, u, v)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Err != nil {
				if got.Err == "" {
					t.Fatalf("dist(%d,%d): engine err %v, wire success", u, v, rep.Err)
				}
				continue
			}
			if got.Dist != rep.Dist {
				t.Fatalf("dist(%d,%d): wire %d, engine %d", u, v, got.Dist, rep.Dist)
			}

			want := eng.Query(spanner.ServeRequest{Type: spanner.ServeQueryPath, U: u, V: v})
			prep, err := wc.Query(ctx, client.Query{Type: "path", U: u, V: v})
			if err != nil {
				t.Fatal(err)
			}
			if len(prep.Path) != len(want.Path) {
				t.Fatalf("path(%d,%d): wire %d hops, engine %d", u, v, len(prep.Path), len(want.Path))
			}
			for i := range want.Path {
				if prep.Path[i] != want.Path[i] {
					t.Fatalf("path(%d,%d)[%d]: wire %d, engine %d", u, v, i, prep.Path[i], want.Path[i])
				}
			}
		}
	}

	h, err := wc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != art.Graph.N() {
		t.Fatalf("healthz N = %d, artifact N = %d", h.N, art.Graph.N())
	}
}
