package main

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spanner/client"
	"spanner/internal/artifact"
	"spanner/internal/obs"
	"spanner/internal/partition"
	"spanner/internal/serve"
	"spanner/internal/wire"
)

// twinTransports serves the same artifact (or part) through two
// identically-configured engines — one behind the HTTP/JSON routes, one
// behind the binary wire listener — so an identical query stream hits
// identical cache and admission behavior on both and any divergence is the
// transport's fault.
func twinTransports(t *testing.T, art *artifact.Artifact, part *artifact.Part, cfg serve.Config) (*client.Client, *client.WireClient, *serve.Engine, *serve.Engine) {
	t.Helper()
	build := func() *serve.Engine {
		c := cfg
		c.Obs = obs.New()
		var eng *serve.Engine
		var err error
		if part != nil {
			eng, err = serve.NewPart(part, c)
		} else {
			eng, err = serve.New(art, c)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		return eng
	}
	hengine := build()
	ts := httptest.NewServer(newServer(hengine, nil, serverOpts{}).routes())
	t.Cleanup(ts.Close)

	wengine := build()
	wsrv, err := wire.NewServer(wire.ServerConfig{Engine: wengine})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- wsrv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		wsrv.Shutdown(ctx)
		<-done
	})

	hc := client.New(client.Config{BaseURL: ts.URL, MaxRetries: -1})
	wc, err := client.NewWire(client.WireConfig{Addr: ln.Addr().String(), MaxRetries: -1, ScavengeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })
	return hc, wc, hengine, wengine
}

// mustJSON renders a reply the way the HTTP transport would put it on the
// wire — the byte-identical comparison the acceptance criteria ask for.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sameTypedErr reports whether both transports classified a failure the
// same way across the whole client error taxonomy.
func sameTypedErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	for _, sentinel := range []error{
		client.ErrUnavailable, client.ErrTimeout, client.ErrRejected,
		client.ErrBadRequest, client.ErrConflict, client.ErrDegraded,
	} {
		if errors.Is(a, sentinel) != errors.Is(b, sentinel) {
			return false
		}
	}
	return true
}

// TestCrossTransportEquivalence replays one deterministic query stream —
// every type, degraded requests, cache-hitting repeats, bad inputs —
// through the HTTP/JSON and binary wire transports and requires
// byte-identical JSON renderings of every answer plus identical typed-error
// classification of every failure.
func TestCrossTransportEquivalence(t *testing.T) {
	a := testArtifact(t, 120, 3)
	hc, wc, _, _ := twinTransports(t, a, nil, serve.Config{CacheSize: 128})
	ctx := context.Background()

	var stream []client.Query
	types := []string{"dist", "path", "route"}
	for i := 0; i < 90; i++ {
		u := int32(i * 7 % 120)
		v := int32((i*13 + 31) % 120)
		q := client.Query{Type: types[i%3], U: u, V: v}
		if i%10 == 4 {
			q.Priority = "low"
		}
		if i%12 == 7 && q.Type == "dist" {
			q.AllowDegraded = true
		}
		stream = append(stream, q)
	}
	// Cache-hitting repeats: both engines saw the same misses above, so
	// the Cached flag must match too.
	stream = append(stream, stream[:20]...)
	// Typed failures.
	stream = append(stream,
		client.Query{Type: "dist", U: 0, V: 4096},                   // bad vertex
		client.Query{Type: "path", U: -3, V: 5},                     // bad vertex
		client.Query{Type: "path", U: 1, V: 2, AllowDegraded: true}, // bad query
	)

	for i, q := range stream {
		hr, herr := hc.Query(ctx, q)
		wr, werr := wc.Query(ctx, q)
		if !sameTypedErr(herr, werr) {
			t.Fatalf("query %d (%+v): http err %v, wire err %v", i, q, herr, werr)
		}
		if herr != nil {
			continue
		}
		// Snapshot counters are engine-local; align before comparing bytes.
		if hr.Snapshot != wr.Snapshot {
			wr.Snapshot = hr.Snapshot
		}
		hj, wj := mustJSON(t, hr), mustJSON(t, wr)
		if hj != wj {
			t.Fatalf("query %d (%+v):\n http: %s\n wire: %s", i, q, hj, wj)
		}
	}
}

// TestCrossTransportBatchEquivalence checks the explicit batch endpoint the
// same way, including per-entry errors inside a successful batch.
func TestCrossTransportBatchEquivalence(t *testing.T) {
	a := testArtifact(t, 100, 5)
	hc, wc, _, _ := twinTransports(t, a, nil, serve.Config{CacheSize: 64})
	ctx := context.Background()

	batch := []client.Query{
		{Type: "dist", U: 1, V: 2},
		{Type: "path", U: 3, V: 44},
		{Type: "route", U: 5, V: 6},
		{Type: "dist", U: 0, V: 4096}, // bad vertex, fails in its slot
		{Type: "dist", U: 7, V: 8, Priority: "low"},
		// AllowDegraded entries: a dist one is served via the inline
		// landmark bound (flagged Degraded) on both transports — the wire
		// client also coalesces concurrent point queries into batch frames,
		// so batch entries must mean what lone queries mean — while non-dist
		// and bad-vertex ones fail in their slots.
		{Type: "dist", U: 9, V: 10, AllowDegraded: true},
		{Type: "path", U: 9, V: 10, AllowDegraded: true},
		{Type: "dist", U: 0, V: 4096, AllowDegraded: true},
	}
	hr, herr := hc.Batch(ctx, batch)
	wr, werr := wc.Batch(ctx, batch)
	if herr != nil || werr != nil {
		t.Fatalf("http err %v, wire err %v", herr, werr)
	}
	if len(hr) != len(wr) {
		t.Fatalf("http %d entries, wire %d", len(hr), len(wr))
	}
	for i := range hr {
		wr[i].Snapshot = hr[i].Snapshot
		hj, wj := mustJSON(t, hr[i]), mustJSON(t, wr[i])
		if hj != wj {
			t.Fatalf("entry %d:\n http: %s\n wire: %s", i, hj, wj)
		}
	}
	if !hr[5].Degraded || hr[5].Err != "" {
		t.Fatalf("AllowDegraded dist entry not served degraded: %+v", hr[5])
	}
	if hr[6].Err == "" || hr[7].Err == "" {
		t.Fatalf("invalid AllowDegraded entries did not fail in their slots: %+v / %+v", hr[6], hr[7])
	}
}

// TestCrossTransportComposedEquivalence runs both transports over the same
// partition part, where cross-partition distance answers carry the
// Composed flag and certificate Bound — the flags the equivalence
// criterion calls out explicitly.
func TestCrossTransportComposedEquivalence(t *testing.T) {
	a := testArtifact(t, 150, 7)
	res, err := partition.Split(a, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	hc, wc, _, _ := twinTransports(t, nil, res.Parts[0], serve.Config{CacheSize: 64})
	ctx := context.Background()

	composed := 0
	for u := int32(0); u < 150; u += 7 {
		for v := int32(1); v < 150; v += 13 {
			hr, herr := hc.Query(ctx, client.Query{Type: "dist", U: u, V: v})
			wr, werr := wc.Query(ctx, client.Query{Type: "dist", U: u, V: v})
			if !sameTypedErr(herr, werr) {
				t.Fatalf("dist(%d,%d): http err %v, wire err %v", u, v, herr, werr)
			}
			if herr != nil {
				continue
			}
			if hr.Snapshot != wr.Snapshot {
				wr.Snapshot = hr.Snapshot
			}
			hj, wj := mustJSON(t, hr), mustJSON(t, wr)
			if hj != wj {
				t.Fatalf("dist(%d,%d):\n http: %s\n wire: %s", u, v, hj, wj)
			}
			if hr.Composed {
				composed++
				if hr.Bound == nil {
					t.Fatalf("dist(%d,%d): composed without certificate bound", u, v)
				}
			}
		}
	}
	if composed == 0 {
		t.Fatal("no composed answers in the sweep; the flag parity went untested")
	}
}

// TestLoadgenWire drives the load generator through the binary transport
// and checks the report carries the transport column and real traffic.
func TestLoadgenWire(t *testing.T) {
	a := testArtifact(t, 100, 9)
	eng, err := serve.New(a, serve.Config{CacheSize: 128, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	wsrv, err := wire.NewServer(wire.ServerConfig{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- wsrv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		wsrv.Shutdown(ctx)
		<-done
	}()

	rep, err := runLoad(nil, loadConfig{
		Wire:     ln.Addr().String(),
		Mode:     "closed",
		Conc:     4,
		Duration: 200 * time.Millisecond,
		Mix:      [3]int{2, 1, 1},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rep.write(&buf)
	out := buf.String()
	if !strings.Contains(out, "transport") || !strings.Contains(out, "wire ") {
		t.Fatalf("report missing transport column:\n%s", out)
	}
	var total int64
	for i := range rep.stats {
		total += rep.stats[i].lat.Count() + rep.stats[i].rejected + rep.stats[i].transport
	}
	if total == 0 {
		t.Fatal("wire loadgen issued no queries")
	}
	if rep.stats[0].transport+rep.stats[1].transport+rep.stats[2].transport != 0 {
		t.Fatalf("wire loadgen saw transport faults against a healthy server:\n%s", out)
	}
}

// TestLoadgenReplicas drives the load generator over HTTP/JSON at a plain
// spannerd (no router in front), which sizes its workload from /healthz,
// and checks the report carries real traffic with no transport faults.
func TestLoadgenReplicas(t *testing.T) {
	a := testArtifact(t, 100, 9)
	eng, err := serve.New(a, serve.Config{CacheSize: 128, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(newServer(eng, nil, serverOpts{}).routes())
	defer ts.Close()

	rep, err := runLoad(nil, loadConfig{
		Targets:  []string{ts.URL},
		Mode:     "closed",
		Conc:     4,
		Duration: 200 * time.Millisecond,
		Mix:      [3]int{2, 1, 1},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rep.write(&buf)
	out := buf.String()
	if rep.transport != "json" || !strings.Contains(out, "json ") {
		t.Fatalf("report transport %q, want json:\n%s", rep.transport, out)
	}
	var total int64
	for i := range rep.stats {
		total += rep.stats[i].lat.Count() + rep.stats[i].rejected + rep.stats[i].transport
	}
	if total == 0 {
		t.Fatal("replica loadgen issued no queries")
	}
	if rep.stats[0].transport+rep.stats[1].transport+rep.stats[2].transport != 0 {
		t.Fatalf("replica loadgen saw transport faults against a healthy server:\n%s", out)
	}
}

// TestCrossTransportBrownoutEquivalence pins the Retry-After semantics:
// both transports surface brownout as a *RejectedError with the server's
// 1-second hint.
func TestCrossTransportBrownoutEquivalence(t *testing.T) {
	a := testArtifact(t, 60, 1)
	hc, wc, he, we := twinTransports(t, a, nil, serve.Config{})
	he.SetBrownout(true)
	we.SetBrownout(true)
	ctx := context.Background()

	q := client.Query{Type: "dist", U: 1, V: 2, Priority: "low"}
	_, herr := hc.Query(ctx, q)
	_, werr := wc.Query(ctx, q)
	var hre, wre *client.RejectedError
	if !errors.As(herr, &hre) || !errors.As(werr, &wre) {
		t.Fatalf("http err %v (%T), wire err %v (%T)", herr, herr, werr, werr)
	}
	if hre.After != wre.After {
		t.Fatalf("Retry-After hints differ: http %v, wire %v", hre.After, wre.After)
	}
	if hre.Detail != wre.Detail {
		t.Fatalf("rejection details differ: http %q, wire %q", hre.Detail, wre.Detail)
	}
}
