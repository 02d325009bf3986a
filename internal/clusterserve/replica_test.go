package clusterserve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"spanner/internal/clusterserve"
	"spanner/internal/serve"
)

// post is a raw control-plane call helper.
func post(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber() // checksums are full-range int64s; float64 would round them
	var out map[string]any
	dec.Decode(&out)
	return resp.StatusCode, out
}

func jsonInt(v any) int64 {
	n, _ := v.(json.Number).Int64()
	return n
}

func getInfo(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/cluster/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var out map[string]any
	dec.Decode(&out)
	return out
}

// TestReplicaStateMachine drives the prepare/commit/abort/adopt protocol
// over raw HTTP and checks every transition the two-phase swap depends on.
func TestReplicaStateMachine(t *testing.T) {
	art := testArtifact(t, 80, 11)
	art2 := nextGen(t, art)
	path2 := saveArtifact(t, t.TempDir(), "g2.spanart", art2)
	eng, err := serve.New(art, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	rep := clusterserve.NewReplica(eng, nil)
	mux := http.NewServeMux()
	rep.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	// Fresh replica: unadopted, not ready.
	if info := getInfo(t, ts.URL); info["ready"] != false || info["reason"] != "unadopted" || jsonInt(info["gen"]) != 0 {
		t.Fatalf("fresh replica info: %v", info)
	}

	// Adopt with the wrong checksum is refused (a stale replica must not
	// claim a generation it does not hold); the right one succeeds.
	if code, _ := post(t, ts.URL+"/cluster/adopt", map[string]any{"gen": 1, "checksum": 12345}); code != http.StatusConflict {
		t.Fatalf("bad-checksum adopt: status %d, want 409", code)
	}
	if code, _ := post(t, ts.URL+"/cluster/adopt", map[string]any{"gen": 1, "checksum": art.Checksum()}); code != http.StatusOK {
		t.Fatalf("adopt failed: %d", code)
	}
	if got := rep.Gen(); got != 1 {
		t.Fatalf("gen after adopt: %d", got)
	}
	if ready, _ := rep.Ready(); !ready {
		t.Fatal("adopted replica not ready")
	}

	// Prepare stages without serving: the engine still answers from the
	// old artifact, readiness drops with reason "swap-prepare".
	code, out := post(t, ts.URL+"/cluster/prepare", map[string]any{"txn": "t1", "gen": 2, "artifact": path2})
	if code != http.StatusOK || jsonInt(out["checksum"]) != art2.Checksum() {
		t.Fatalf("prepare: %d %v", code, out)
	}
	if ready, reason := rep.Ready(); ready || reason != "swap-prepare" {
		t.Fatalf("staged replica ready=%v reason=%q", ready, reason)
	}
	if got := eng.Snapshot().Art.Checksum(); got != art.Checksum() {
		t.Fatal("prepare must not touch the serving snapshot")
	}

	// Commit with the wrong txn is refused; the staged generation stays.
	if code, _ := post(t, ts.URL+"/cluster/commit", map[string]any{"txn": "bogus", "gen": 2}); code != http.StatusConflict {
		t.Fatalf("bogus-txn commit: status %d, want 409", code)
	}
	// The right txn cuts over atomically and records the generation
	// mapping for reply stamping.
	if code, _ := post(t, ts.URL+"/cluster/commit", map[string]any{"txn": "t1", "gen": 2}); code != http.StatusOK {
		t.Fatalf("commit: %d", code)
	}
	if got := eng.Snapshot().Art.Checksum(); got != art2.Checksum() {
		t.Fatal("commit did not install the staged artifact")
	}
	if rep.Gen() != 2 || rep.GenOf(eng.SnapshotID()) != 2 {
		t.Fatalf("generation mapping after commit: gen=%d genOf=%d", rep.Gen(), rep.GenOf(eng.SnapshotID()))
	}
	if ready, _ := rep.Ready(); !ready {
		t.Fatal("committed replica not ready")
	}

	// Abort rolls back a stage (and is idempotent when nothing is staged).
	if code, _ := post(t, ts.URL+"/cluster/prepare", map[string]any{"txn": "t2", "gen": 3, "artifact": path2}); code != http.StatusOK {
		t.Fatalf("second prepare: %d", code)
	}
	if code, out := post(t, ts.URL+"/cluster/abort", map[string]any{"txn": "t2"}); code != http.StatusOK || out["aborted"] != true {
		t.Fatalf("abort: %d %v", code, out)
	}
	if ready, _ := rep.Ready(); !ready {
		t.Fatal("abort did not restore readiness")
	}
	if code, out := post(t, ts.URL+"/cluster/abort", map[string]any{"txn": "t2"}); code != http.StatusOK || out["aborted"] != false {
		t.Fatalf("idempotent abort: %d %v", code, out)
	}
	// The empty-txn hammer clears any stage (coordinator-crash recovery).
	post(t, ts.URL+"/cluster/prepare", map[string]any{"txn": "t3", "gen": 3, "artifact": path2})
	if code, out := post(t, ts.URL+"/cluster/abort", map[string]any{"txn": ""}); code != http.StatusOK || out["aborted"] != true {
		t.Fatalf("abort-any: %d %v", code, out)
	}

	// A delta prepare whose base mismatches answers 409 (the cluster maps
	// it to an update conflict).
	badDelta := saveDelta(t, t.TempDir(), "bad.spandelta", art, art2) // base = art, engine serves art2
	if code, _ := post(t, ts.URL+"/cluster/prepare", map[string]any{"txn": "t4", "gen": 3, "delta": badDelta}); code != http.StatusConflict {
		t.Fatalf("stale-base delta prepare: status %d, want 409", code)
	}
}
