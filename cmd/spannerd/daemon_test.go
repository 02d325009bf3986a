package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"spanner/client"
	"spanner/internal/artifact"
	"spanner/internal/httpchaos"
	"spanner/internal/obs"
	"spanner/internal/recovery"
	"spanner/internal/serve"
)

func discardLogger() *slog.Logger { return slog.New(discardHandler{}) }

// saveGen writes an artifact into dir with an explicit modtime so the
// recovery scan's newest-intact ordering is deterministic.
func saveGen(t *testing.T, dir, name string, a *artifact.Artifact, mt time.Time) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := artifact.Save(path, a); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mt, mt); err != nil {
		t.Fatal(err)
	}
	return path
}

// nextGen builds the artifact one spanner edge smaller — a distinct
// generation that diffs cleanly against a.
func nextGen(t *testing.T, a *artifact.Artifact) *artifact.Artifact {
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

func saveDeltaBetween(t *testing.T, dir, name string, from, to *artifact.Artifact) {
	t.Helper()
	d, err := artifact.Diff(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.SaveDelta(filepath.Join(dir, name), d); err != nil {
		t.Fatal(err)
	}
}

// TestDrainCompletesInflightBatch pins the shutdown ordering: on SIGTERM
// the listener must stop accepting and every in-flight handler must run to
// completion BEFORE the engine closes. Closing the engine first answers
// "engine closed" to exactly the requests the drain exists to finish.
func TestDrainCompletesInflightBatch(t *testing.T) {
	a := testArtifact(t, 80, 31)
	ob := obs.New()
	eng, err := serve.New(a, serve.Config{Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	base := newServer(eng, ob, serverOpts{}).routes()

	// Wrap /batch so the handler is demonstrably in flight when the signal
	// fires: it announces entry, then parks before touching the engine. The
	// buggy ordering (engine drained before srv.Shutdown) turns every reply
	// into serve.ErrClosed; the correct ordering answers them all.
	entered := make(chan struct{})
	var once sync.Once
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/batch" {
			once.Do(func() { close(entered) })
			time.Sleep(300 * time.Millisecond)
		}
		base.ServeHTTP(w, r)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigc := make(chan os.Signal, 1)
	done := make(chan error, 1)
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	go func() {
		done <- serveUntilSignal(srv, nil, errc, eng, sigc, 5*time.Second, discardLogger())
	}()

	type result struct {
		status int
		reps   []client.Reply
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		body, _ := json.Marshal([]client.Query{
			{Type: "dist", U: 1, V: 2},
			{Type: "dist", U: 3, V: 4},
		})
		resp, err := http.Post("http://"+ln.Addr().String()+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var reps []client.Reply
		err = json.NewDecoder(resp.Body).Decode(&reps)
		resc <- result{status: resp.StatusCode, reps: reps, err: err}
	}()

	<-entered
	sigc <- syscall.SIGTERM

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight batch failed during drain: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight batch status %d during drain", res.status)
	}
	if len(res.reps) != 2 {
		t.Fatalf("got %d replies", len(res.reps))
	}
	for i, rep := range res.reps {
		if rep.Err != "" {
			t.Fatalf("reply %d carries %q — engine drained before the handler finished", i, rep.Err)
		}
		if want := a.Oracle.Query(rep.U, rep.V); rep.Dist != want {
			t.Fatalf("reply %d dist %d, oracle says %d", i, rep.Dist, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("drain returned %v", err)
	}
	// The drain still closes the engine — just last.
	if rep := eng.Query(serve.Request{Type: serve.QueryDist, U: 1, V: 2}); rep.Err == nil {
		t.Fatal("engine still accepting queries after drain")
	}
}

// TestLoadServingArtifactFallsBack corrupts the newest generation on disk
// and checks the startup scan quarantines it and serves the older intact
// one instead of crashing.
func TestLoadServingArtifactFallsBack(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	good := testArtifact(t, 60, 21)
	saveGen(t, dir, "gen1.spanart", good, base)
	bad := saveGen(t, dir, "gen2.spanart", testArtifact(t, 60, 22), base.Add(time.Minute))
	if err := httpchaos.FlipBit(bad, 7); err != nil {
		t.Fatal(err)
	}

	cfg := daemonConfig{artDir: dir, logger: discardLogger()}
	art, rep, err := loadServingArtifact(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if art.Checksum() != good.Checksum() {
		t.Fatal("did not fall back to the older intact generation")
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Path != bad {
		t.Fatalf("quarantined %+v, want just the corrupt artifact", rep.Quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, recovery.QuarantineDir)); err != nil {
		t.Fatalf("quarantine directory missing: %v", err)
	}

	// With every artifact corrupt the scan must fail typed — the supervised
	// restart loop relies on this error to give up within its budget.
	dir2 := t.TempDir()
	p := saveGen(t, dir2, "only.spanart", testArtifact(t, 40, 23), base)
	if err := httpchaos.TornWrite(p, 9); err != nil {
		t.Fatal(err)
	}
	_, _, err = loadServingArtifact(daemonConfig{artDir: dir2, logger: discardLogger()})
	if err == nil || !strings.Contains(err.Error(), "no intact artifact") {
		t.Fatalf("all-corrupt dir: err %v", err)
	}
}

// TestApplyRecoveredDeltasChains saves a base artifact plus a two-link
// delta chain and checks startup replay walks the whole chain, whichever
// order the scan returned it in.
func TestApplyRecoveredDeltasChains(t *testing.T) {
	dir := t.TempDir()
	a := testArtifact(t, 100, 25)
	b := nextGen(t, a)
	c := nextGen(t, b)
	saveGen(t, dir, "base.spanart", a, time.Now().Add(-time.Hour))
	saveDeltaBetween(t, dir, "ab.spandelta", a, b)
	saveDeltaBetween(t, dir, "bc.spandelta", b, c)

	cfg := daemonConfig{artDir: dir, logger: discardLogger()}
	art, rep, err := loadServingArtifact(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(art, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	applyRecoveredDeltas(eng, rep, discardLogger())
	if got := eng.Snapshot().Art.Checksum(); got != c.Checksum() {
		t.Fatalf("replay stopped at checksum %d, want the chain tip %d", got, c.Checksum())
	}
	if eng.SnapshotID() != 3 {
		t.Fatalf("generation %d after two replayed deltas", eng.SnapshotID())
	}
	// Served answers match the chain tip, not the base.
	if got, want := eng.Query(serve.Request{Type: serve.QueryDist, U: 2, V: 50}).Dist, c.Oracle.Query(2, 50); got != want {
		t.Fatalf("served dist %d after replay, tip oracle says %d", got, want)
	}
}

// TestBrownoutWire checks the HTTP surface of brownout mode: low-priority
// queries answer 429, protected traffic still flows, and /healthz reports
// the flag.
func TestBrownoutWire(t *testing.T) {
	a := testArtifact(t, 60, 27)
	ts, eng := testServer(t, a)
	eng.SetBrownout(true)

	resp, err := http.Get(ts.URL + "/query?type=dist&u=1&v=2&priority=low")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("low-priority under brownout: status %d, want 429", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/query?type=dist&u=1&v=2&priority=high")
	if err != nil {
		t.Fatal(err)
	}
	var rep client.Reply
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Err != "" {
		t.Fatalf("protected traffic under brownout: status %d, reply %+v", resp.StatusCode, rep)
	}

	resp, err = http.Get(ts.URL + "/query?type=dist&u=1&v=2&priority=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus priority: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["brownout"] != true {
		t.Fatalf("healthz does not report brownout: %v", health)
	}
}

// TestBatchLimitWire checks /batch enforces the engine's advertised limit
// and that the limit tightens under brownout.
func TestBatchLimitWire(t *testing.T) {
	a := testArtifact(t, 50, 29)
	ob := obs.New()
	eng, err := serve.New(a, serve.Config{MaxBatch: 2, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, ob, serverOpts{}).routes())
	t.Cleanup(func() { ts.Close(); eng.Close() })

	post := func(n int) int {
		qs := make([]client.Query, n)
		for i := range qs {
			qs[i] = client.Query{Type: "dist", U: 0, V: int32(i + 1)}
		}
		body, _ := json.Marshal(qs)
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(2); got != http.StatusOK {
		t.Fatalf("batch at the limit: status %d", got)
	}
	if got := post(3); got != http.StatusTooManyRequests {
		t.Fatalf("batch over the limit: status %d, want 429", got)
	}
	// Brownout quarters the limit (floor 1): a 2-query batch now bounces.
	eng.SetBrownout(true)
	if got := post(2); got != http.StatusTooManyRequests {
		t.Fatalf("batch over the brownout limit: status %d, want 429", got)
	}
	if got := post(1); got != http.StatusOK {
		t.Fatalf("single query under brownout: status %d", got)
	}
}

// TestServeOnceListenError keeps the supervised loop honest: an address
// that cannot bind must surface as an error (so the restart budget counts
// it), not hang or leak the engine.
func TestServeOnceListenError(t *testing.T) {
	dir := t.TempDir()
	saveGen(t, dir, "a.spanart", testArtifact(t, 40, 33), time.Now())
	cfg := daemonConfig{
		artDir: dir,
		addr:   "127.0.0.1:99999", // invalid port
		logger: discardLogger(),
	}
	sigc := make(chan os.Signal, 1)
	if err := serveOnce(cfg, sigc); err == nil {
		t.Fatal("serveOnce with an unbindable address returned nil")
	}
}
