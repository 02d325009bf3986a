package recovery

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"spanner/internal/artifact"
	"spanner/internal/dynamic"
	"spanner/internal/graph"
	"spanner/internal/httpchaos"
)

// testArtifact builds a deterministic artifact: ConnectedGnp graph with a
// BFS-forest-plus-extras spanner.
func testArtifact(t *testing.T, n int, seed int64) *artifact.Artifact {
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
	a, err := artifact.Build(g, sp, "test", 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// writeGen saves an artifact with a fixed modtime so ordering is exact.
func writeGen(t *testing.T, dir, name string, a *artifact.Artifact, age time.Duration) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := artifact.Save(path, a); err != nil {
		t.Fatal(err)
	}
	when := time.Now().Add(-age)
	if err := os.Chtimes(path, when, when); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeV1 writes a as a format-version-1 artifact file, the layout before
// version 2: every value of a.Words() as 8 little-endian bytes, version
// value 1, then the FNV-1a footer over those bytes.
func writeV1(t *testing.T, dir, name string, a *artifact.Artifact, age time.Duration) string {
	t.Helper()
	words := a.Words()
	words[1] = 1
	var buf []byte
	h := uint64(1469598103934665603)
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
	}
	for _, b := range buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, binary.LittleEndian.AppendUint64(buf, h), 0o644); err != nil {
		t.Fatal(err)
	}
	when := time.Now().Add(-age)
	if err := os.Chtimes(path, when, when); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScanCleanDir(t *testing.T) {
	dir := t.TempDir()
	old := testArtifact(t, 120, 1)
	cur := testArtifact(t, 120, 2)
	writeGen(t, dir, "gen1.spanart", old, 2*time.Hour)
	curPath := writeGen(t, dir, "gen2.spanart", cur, time.Hour)

	// A delta from cur to a rebuilt generation, plus an unrelated file that
	// the scan must ignore.
	next, err := artifact.Build(cur.Graph, cur.Spanner, "test", 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	d, err := artifact.Diff(cur, next)
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.SaveDelta(filepath.Join(dir, "patch.spandelta"), d); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("unrelated"), 0o644)

	w, err := dynamic.CreateLog(filepath.Join(dir, "updates.spanlog"))
	if err != nil {
		t.Fatal(err)
	}
	w.Append(dynamic.Batch{{Op: dynamic.OpInsert, U: 1, V: 2}})
	w.Close()

	rep, err := Scan(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("clean dir quarantined %v", rep.Quarantined)
	}
	if len(rep.Artifacts) != 2 || len(rep.Deltas) != 1 {
		t.Fatalf("found %d artifacts, %d deltas", len(rep.Artifacts), len(rep.Deltas))
	}
	lg := rep.LastGood()
	if lg == nil || lg.Path != curPath || lg.Checksum != cur.Checksum() {
		t.Fatalf("last good %+v, want %s", lg, curPath)
	}
	if got := rep.DeltasFor(cur.Checksum()); len(got) != 1 {
		t.Fatalf("DeltasFor(cur) found %d deltas", len(got))
	}
	if got := rep.DeltasFor(old.Checksum()); len(got) != 0 {
		t.Fatalf("DeltasFor(old) found %d deltas", len(got))
	}
	if rep.Log == nil || rep.Log.Damaged || len(rep.LogBatches) != 1 {
		t.Fatalf("log scan: %v, %d batches", rep.Log, len(rep.LogBatches))
	}
}

func TestScanQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	good := testArtifact(t, 120, 3)
	goodPath := writeGen(t, dir, "good.spanart", good, time.Hour)
	// A newer artifact with a flipped bit: without verification it would win
	// LastGood; the scan must discard it and fall back.
	bad := testArtifact(t, 120, 4)
	badPath := writeGen(t, dir, "newer.spanart", bad, time.Minute)
	if err := httpchaos.FlipBit(badPath, 21); err != nil {
		t.Fatal(err)
	}
	// A torn delta.
	next, _ := artifact.Build(good.Graph, good.Spanner, "test", 3, 77)
	d, err := artifact.Diff(good, next)
	if err != nil {
		t.Fatal(err)
	}
	tornPath := filepath.Join(dir, "patch.spandelta")
	if err := artifact.SaveDelta(tornPath, d); err != nil {
		t.Fatal(err)
	}
	if err := httpchaos.TornWrite(tornPath, 9); err != nil {
		t.Fatal(err)
	}
	// The newest file is an intact artifact in format version 1: it must
	// decode to ErrVersion and go to quarantine like the damaged ones.
	v1Path := writeV1(t, dir, "newest.spanart", testArtifact(t, 120, 5), time.Second)
	if _, err := artifact.Load(v1Path); !errors.Is(err, artifact.ErrVersion) {
		t.Fatalf("v1 artifact: %v, want ErrVersion", err)
	}

	rep, err := Scan(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 3 {
		t.Fatalf("quarantined %d files, want 3: %v", len(rep.Quarantined), rep.Quarantined)
	}
	if !slices.ContainsFunc(rep.Quarantined, func(q Quarantined) bool {
		return q.Path == v1Path && errors.Is(q.Err, artifact.ErrVersion)
	}) {
		t.Fatalf("v1 artifact not quarantined with ErrVersion: %v", rep.Quarantined)
	}
	lg := rep.LastGood()
	if lg == nil || lg.Path != goodPath {
		t.Fatalf("last good %+v, want fallback to %s", lg, goodPath)
	}
	for _, q := range rep.Quarantined {
		if q.To == "" || q.Err == nil {
			t.Fatalf("quarantine entry incomplete: %+v", q)
		}
		if _, err := os.Stat(q.Path); !os.IsNotExist(err) {
			t.Fatalf("%s still present after quarantine", q.Path)
		}
		if _, err := os.Stat(q.To); err != nil {
			t.Fatalf("quarantined copy missing: %v", err)
		}
		if filepath.Dir(q.To) != filepath.Join(dir, QuarantineDir) {
			t.Fatalf("quarantined to %s, want %s/", q.To, QuarantineDir)
		}
	}
	// A second scan of the cleaned directory finds nothing to condemn.
	rep2, err := Scan(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Quarantined) != 0 || len(rep2.Artifacts) != 1 {
		t.Fatalf("re-scan: %v", rep2)
	}
}

func TestScanNonDestructive(t *testing.T) {
	dir := t.TempDir()
	bad := testArtifact(t, 100, 5)
	badPath := writeGen(t, dir, "only.spanart", bad, time.Minute)
	if err := httpchaos.TornWrite(badPath, 13); err != nil {
		t.Fatal(err)
	}
	rep, err := Scan(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].To != "" {
		t.Fatalf("dry scan: %v", rep.Quarantined)
	}
	if rep.LastGood() != nil {
		t.Fatal("no intact generation, LastGood must be nil")
	}
	if _, err := os.Stat(badPath); err != nil {
		t.Fatalf("dry scan moved the file: %v", err)
	}
}

func TestScanRepairsTornLog(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "updates.spanlog")
	w, err := dynamic.CreateLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(dynamic.Batch{{Op: dynamic.OpInsert, U: int32(i), V: int32(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	info, _ := os.Stat(logPath)
	if err := os.Truncate(logPath, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	rep, err := Scan(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Log == nil || !rep.Log.Damaged || !rep.Log.TornTail {
		t.Fatalf("torn log not reported: %v", rep.Log)
	}
	if rep.Log.Replayable != 2 || len(rep.LogBatches) != 2 {
		t.Fatalf("replayable %d, batches %d", rep.Log.Replayable, len(rep.LogBatches))
	}
	// The file itself was repaired: a plain read now succeeds.
	if got, err := dynamic.ReadLog(logPath); err != nil || len(got) != 2 {
		t.Fatalf("repaired log: %v, %v", got, err)
	}
}

// TestQuarantineNameCollision: the same damaged file name arriving across
// two scans (a supervisor redeploying the same corrupt artifact, or two
// crash-loop iterations) must land as distinct quarantine entries — the
// second move gets a numeric suffix instead of overwriting the first
// incident's evidence.
func TestQuarantineNameCollision(t *testing.T) {
	dir := t.TempDir()
	good := testArtifact(t, 120, 5)
	writeGen(t, dir, "good.spanart", good, time.Hour)

	corrupt := func() {
		t.Helper()
		bad := testArtifact(t, 120, 6)
		p := writeGen(t, dir, "drop.spanart", bad, time.Minute)
		if err := httpchaos.FlipBit(p, 33); err != nil {
			t.Fatal(err)
		}
	}

	corrupt()
	rep1, err := Scan(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Quarantined) != 1 {
		t.Fatalf("first scan quarantined %d, want 1", len(rep1.Quarantined))
	}
	first := rep1.Quarantined[0].To

	// Same name reappears damaged; the second scan must keep both.
	corrupt()
	rep2, err := Scan(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Quarantined) != 1 {
		t.Fatalf("second scan quarantined %d, want 1", len(rep2.Quarantined))
	}
	second := rep2.Quarantined[0].To
	if second == first {
		t.Fatalf("second quarantine reused %s, destroying the first incident's evidence", first)
	}
	for _, p := range []string{first, second} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("quarantined file missing: %v", err)
		}
	}
	if want := first + ".1"; second != want {
		t.Fatalf("collision suffix: got %s, want %s", second, want)
	}
}

// TestQuarantineStatErrorPropagates: a Stat failure other than not-exist
// while probing for a collision-free name must surface as an error, not
// spin forever trying suffix after suffix against the same failure.
func TestQuarantineStatErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	// A name longer than NAME_MAX makes Stat fail with ENAMETOOLONG — an
	// error that repeats for every ".1", ".2", ... candidate. Before the
	// fix the collision loop treated any non-ENOENT result as "name
	// taken" and spun forever.
	long := strings.Repeat("x", 300) + ".spanart"
	done := make(chan error, 1)
	go func() {
		_, err := quarantineFile(dir, filepath.Join(dir, long))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stat error during collision probe must propagate")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("quarantineFile hung: collision probe looping on a persistent stat error")
	}
}
