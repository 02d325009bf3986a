package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spanner/client"
	"spanner/internal/artifact"
	"spanner/internal/dynamic"
	"spanner/internal/graph"
	"spanner/internal/obs"
	"spanner/internal/serve"
)

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

func testServer(t *testing.T, a *artifact.Artifact) (*httptest.Server, *serve.Engine) {
	t.Helper()
	ob := obs.New()
	eng, err := serve.New(a, serve.Config{CacheSize: 64, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, ob, serverOpts{}).routes())
	t.Cleanup(func() { ts.Close(); eng.Close() })
	return ts, eng
}

func TestQueryEndpointMatchesOracle(t *testing.T) {
	a := testArtifact(t, 100, 1)
	ts, _ := testServer(t, a)

	resp, err := http.Get(ts.URL + "/query?type=dist&u=3&v=42")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var rep client.Reply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if want := a.Oracle.Query(3, 42); rep.Dist != want {
		t.Fatalf("served dist %d, oracle says %d", rep.Dist, want)
	}
	if rep.Type != "dist" || rep.U != 3 || rep.V != 42 || rep.Snapshot == 0 {
		t.Fatalf("malformed reply: %+v", rep)
	}

	// POST form of the same query.
	body, _ := json.Marshal(client.Query{Type: "route", U: 3, V: 42})
	resp2, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var rep2 client.Reply
	if err := json.NewDecoder(resp2.Body).Decode(&rep2); err != nil {
		t.Fatal(err)
	}
	if wp, werr := a.Routing.Route(3, 42); werr == nil {
		if int(rep2.Dist) != len(wp)-1 || len(rep2.Path) != len(wp) {
			t.Fatalf("served route %+v, direct route has %d hops", rep2, len(wp)-1)
		}
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	a := testArtifact(t, 50, 2)
	ts, _ := testServer(t, a)
	cases := []struct {
		url  string
		want int
	}{
		{"/query?type=dist&u=0&v=999999", http.StatusBadRequest}, // vertex range
		{"/query?type=bogus&u=0&v=1", http.StatusBadRequest},     // bad type
		{"/query?type=dist&u=zz&v=1", http.StatusBadRequest},     // unparseable
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status %d, want %d", c.url, resp.StatusCode, c.want)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	a := testArtifact(t, 80, 3)
	ts, _ := testServer(t, a)
	qs := []client.Query{
		{Type: "dist", U: 1, V: 2},
		{Type: "nope", U: 3, V: 4}, // parse failure must not shift replies
		{Type: "path", U: 5, V: 6},
	}
	body, _ := json.Marshal(qs)
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reps []client.Reply
	if err := json.NewDecoder(resp.Body).Decode(&reps); err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("got %d replies", len(reps))
	}
	if want := a.Oracle.Query(1, 2); reps[0].Dist != want || reps[0].Err != "" {
		t.Fatalf("batch[0] = %+v, want dist %d", reps[0], want)
	}
	if reps[1].Err == "" {
		t.Fatal("batch[1] should carry the parse error")
	}
	if reps[2].Type != "path" || reps[2].U != 5 {
		t.Fatalf("batch[2] out of order: %+v", reps[2])
	}
}

func TestHealthzMetriczAndSwap(t *testing.T) {
	a := testArtifact(t, 60, 4)
	ts, eng := testServer(t, a)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "ok" || health["n"].(float64) != 60 {
		t.Fatalf("healthz: %v", health)
	}

	// Generate traffic, then metricz must report it.
	for i := 0; i < 10; i++ {
		r, err := http.Get(ts.URL + fmt.Sprintf("/query?type=dist&u=%d&v=%d", i, 59-i))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	resp, err = http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	var metrics []map[string]any
	json.NewDecoder(resp.Body).Decode(&metrics)
	resp.Body.Close()
	foundQueries := false
	for _, m := range metrics {
		if m["series"] == "serve.queries{type=dist}" && m["value"].(float64) >= 10 {
			foundQueries = true
		}
	}
	if !foundQueries {
		t.Fatalf("metricz missing serve.queries{type=dist} >= 10: %v", metrics)
	}

	// Swap in a re-built artifact from disk.
	a2, err := artifact.Build(a.Graph, a.Spanner, "test", 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "next.spanart")
	if err := artifact.Save(path, a2); err != nil {
		t.Fatal(err)
	}
	before := eng.SnapshotID()
	body, _ := json.Marshal(map[string]string{"artifact": path})
	resp, err = http.Post(ts.URL+"/swap", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var swapped map[string]any
	json.NewDecoder(resp.Body).Decode(&swapped)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap status %d: %v", resp.StatusCode, swapped)
	}
	if int64(swapped["snapshot"].(float64)) <= before {
		t.Fatal("swap did not advance the generation")
	}
	if eng.SnapshotID() <= before {
		t.Fatal("engine generation unchanged after swap")
	}

	// Swap with a garbage file must fail typed, not crash.
	badPath := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(badPath, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	body, _ = json.Marshal(map[string]string{"artifact": badPath})
	resp, err = http.Post(ts.URL+"/swap", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad-artifact swap: status %d", resp.StatusCode)
	}
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("dist=8,path=1,route=1")
	if err != nil || mix != [3]int{8, 1, 1} {
		t.Fatalf("mix %v err %v", mix, err)
	}
	if _, err := parseMix("dist=0,path=0,route=0"); err == nil {
		t.Fatal("all-zero mix must be rejected")
	}
	if _, err := parseMix("bogus=3"); err == nil {
		t.Fatal("unknown type must be rejected")
	}
}

func TestLoadgenSmoke(t *testing.T) {
	a := testArtifact(t, 120, 5)
	eng, err := serve.New(a, serve.Config{CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	path := filepath.Join(t.TempDir(), "a.spanart")
	if err := artifact.Save(path, a); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"closed", "open"} {
		rep, err := runLoad(eng, loadConfig{
			Mode:     mode,
			Conc:     4,
			Rate:     2000,
			Duration: 200 * time.Millisecond,
			Mix:      [3]int{2, 1, 1},
			Seed:     1,
			SwapEach: 50 * time.Millisecond,
			Artifact: path,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.write(&buf)
		out := buf.String()
		if !strings.Contains(out, "p50") || !strings.Contains(out, "total:") {
			t.Fatalf("%s: malformed report:\n%s", mode, out)
		}
		total := int64(0)
		for i := range rep.stats {
			total += rep.stats[i].lat.Count() + rep.stats[i].rejected
		}
		if total == 0 {
			t.Fatalf("%s: loadgen issued no queries", mode)
		}
	}
}

// testDeltaFile diffs the artifact against a one-spanner-edge-smaller next
// generation and writes the delta to disk, returning the path and next.
func testDeltaFile(t *testing.T, a *artifact.Artifact) (string, *artifact.Artifact) {
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
	d, err := artifact.Diff(a, next)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "patch.spandelta")
	if err := artifact.SaveDelta(path, d); err != nil {
		t.Fatal(err)
	}
	return path, next
}

func TestUpdateEndpoint(t *testing.T) {
	a := testArtifact(t, 100, 7)
	ts, eng := testServer(t, a)
	deltaPath, next := testDeltaFile(t, a)
	gen0 := eng.SnapshotID()

	resp, err := http.Post(ts.URL+"/update", "application/json",
		strings.NewReader(fmt.Sprintf(`{"delta":%q}`, deltaPath)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Snapshot int64 `json:"snapshot"`
		Updates  int   `json:"updates"`
		Spanner  int   `json:"spanner"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Snapshot != gen0+1 || body.Updates == 0 {
		t.Fatalf("update reply %+v after generation %d", body, gen0)
	}
	if body.Spanner != next.Spanner.Len() {
		t.Fatalf("spanner size %d, patched artifact has %d", body.Spanner, next.Spanner.Len())
	}
	// Served answers now match the patched generation.
	var rep client.Reply
	r2, err := http.Get(ts.URL + "/query?type=dist&u=1&v=9")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if want := next.Oracle.Query(1, 9); rep.Dist != want {
		t.Fatalf("served dist %d after update, patched oracle says %d", rep.Dist, want)
	}

	// Re-applying the same delta: the base has moved -> 409.
	r3, err := http.Post(ts.URL+"/update", "application/json",
		strings.NewReader(fmt.Sprintf(`{"delta":%q}`, deltaPath)))
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusConflict {
		t.Fatalf("stale delta status %d, want 409", r3.StatusCode)
	}
}

func TestUpdateEndpointErrors(t *testing.T) {
	a := testArtifact(t, 60, 9)
	ts, _ := testServer(t, a)

	// Not a delta file at all.
	garbage := filepath.Join(t.TempDir(), "junk.spandelta")
	if err := os.WriteFile(garbage, []byte("not a delta"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/update", "application/json",
		strings.NewReader(fmt.Sprintf(`{"delta":%q}`, garbage)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("garbage delta status %d, want 422", resp.StatusCode)
	}
	// Bad request body.
	r2, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body status %d, want 400", r2.StatusCode)
	}
	// Wrong method.
	r3, err := http.Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", r3.StatusCode)
	}
}

// TestLoadgenChurnSmoke drives the loadgen with live churn: seeded update
// batches applied through ApplyDelta while queries run, with the report
// carrying the update accounting.
func TestLoadgenChurnSmoke(t *testing.T) {
	a := testArtifact(t, 120, 11)
	eng, err := serve.New(a, serve.Config{CacheSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cfg := loadConfig{
		Mode:      "closed",
		Conc:      4,
		Duration:  400 * time.Millisecond,
		Mix:       [3]int{2, 1, 1},
		Seed:      3,
		ChurnEach: 40 * time.Millisecond,
		Churn:     dynamic.StreamConfig{Batches: 6, BatchSize: 8},
	}
	rep, err := runLoad(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.updates == 0 {
		t.Fatal("churn loadgen applied no updates")
	}
	if rep.updateErrs != 0 {
		t.Fatalf("%d delta applies failed without a competing swap", rep.updateErrs)
	}
	var buf bytes.Buffer
	rep.write(&buf)
	if !strings.Contains(buf.String(), "updates: ") {
		t.Fatalf("report missing update line:\n%s", buf.String())
	}
	// The engine's live generation advanced once per applied update.
	if eng.SnapshotID() != int64(1+rep.updates) {
		t.Fatalf("generation %d after %d updates", eng.SnapshotID(), rep.updates)
	}
}
