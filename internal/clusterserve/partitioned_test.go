package clusterserve_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"spanner/client"
	"spanner/internal/artifact"
	"spanner/internal/clusterserve"
	"spanner/internal/graph"
	"spanner/internal/partition"
)

// sparseArtifact is testArtifact on a near-tree graph: with average degree
// ~2 most vertices have no cut edge, leaving plenty of interior (non
// boundary-replicated) vertices for partition tests to pick from.
func sparseArtifact(t testing.TB, n int, seed int64) *artifact.Artifact {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.ConnectedGnp(n, 2/float64(n), rng)
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

// savePartitionDir splits art into k parts, saves every part plus the map
// (part paths relative to the map) into dir, and returns the map path.
func savePartitionDir(t testing.TB, dir string, art *artifact.Artifact, k int, seed int64) (string, *partition.Result) {
	t.Helper()
	res, err := partition.Split(art, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Parts {
		name := fmt.Sprintf("part-%d.spanpart", i)
		if err := artifact.SavePart(filepath.Join(dir, name), p); err != nil {
			t.Fatal(err)
		}
		res.Map.Parts[i].Path = name
	}
	mapPath := filepath.Join(dir, "parts.spanmap")
	if err := artifact.SavePartitionMap(mapPath, res.Map); err != nil {
		t.Fatal(err)
	}
	return mapPath, res
}

// partRouter is the router as these tests drive it: Status is the
// partitioned view, and WaitQuorate waits for every group.
type partRouter struct{ *clusterserve.Router }

func (p partRouter) Status() clusterserve.PartitionedStatus { return p.PartitionedStatus() }

func (p partRouter) WaitQuorate(ctx context.Context, want int) error { return p.WaitReady(ctx, want) }

// testPartitioned builds a K-partition split of art served by perGroup
// fake replicas per partition behind a partitioned router, and waits until
// every group is quorate with all its members.
func testPartitioned(t *testing.T, art *artifact.Artifact, k, perGroup int) (partRouter, [][]*fakeReplica, *partition.Result, string) {
	t.Helper()
	mapPath, res := savePartitionDir(t, t.TempDir(), art, k, 11)
	reps := make([][]*fakeReplica, k)
	var urls []string
	for i, p := range res.Parts {
		reps[i] = make([]*fakeReplica, perGroup)
		for j := range reps[i] {
			reps[i][j] = newFakePartReplica(t, p)
			urls = append(urls, reps[i][j].url)
		}
	}
	pc := partRouter{newRouter(t, clusterserve.Config{
		MapPath:       mapPath,
		Replicas:      urls,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  time.Second,
		QueryTimeout:  2 * time.Second,
		Seed:          7,
	})}
	ctx, cancel := ctxWithTimeout(t, 15*time.Second)
	defer cancel()
	if err := pc.WaitQuorate(ctx, perGroup); err != nil {
		t.Fatalf("partitioned cluster never became quorate: %v", err)
	}
	return pc, reps, res, mapPath
}

// TestPartitionedScatterGather pins the partitioned answer contract against
// the unpartitioned engine: same-partition dist exact and unflagged,
// cross-partition dist flagged Composed with a bracket that sandwiches the
// truth, paths exact everywhere, batches split by owner and merged in input
// order, route queries refused.
func TestPartitionedScatterGather(t *testing.T) {
	art := testArtifact(t, 150, 21)
	pc, _, res, _ := testPartitioned(t, art, 3, 2)
	ctx, cancel := ctxWithTimeout(t, 30*time.Second)
	defer cancel()

	n := art.Graph.N()
	spg := art.Spanner.ToGraph(n)
	var qs []client.Query
	for u := int32(0); int(u) < n; u += 11 {
		trueDist, _ := art.Graph.BFSWithParents(u)
		for v := int32(0); int(v) < n; v += 13 {
			rep, err := pc.Query(ctx, client.Query{Type: "dist", U: u, V: v})
			if err != nil {
				t.Fatalf("dist(%d,%d): %v", u, v, err)
			}
			owner := res.Map.Owner[u]
			sameCovered := res.Parts[owner].Covered(u) && res.Parts[owner].Covered(v)
			altCovered := res.Parts[res.Map.Owner[v]].Covered(u) && res.Parts[res.Map.Owner[v]].Covered(v)
			if rep.Composed {
				if sameCovered && altCovered {
					t.Fatalf("dist(%d,%d) flagged Composed though both owner parts cover the pair", u, v)
				}
				truth := trueDist[v]
				if truth == graph.Unreachable {
					continue
				}
				if rep.Dist < truth {
					t.Fatalf("composed dist(%d,%d)=%d below true distance %d", u, v, rep.Dist, truth)
				}
				if rep.Bound == nil || *rep.Bound > truth {
					t.Fatalf("composed dist(%d,%d) lower certificate %v exceeds truth %d", u, v, rep.Bound, truth)
				}
			} else {
				if want := art.Oracle.Query(u, v); rep.Dist != want {
					t.Fatalf("dist(%d,%d)=%d, unpartitioned oracle says %d", u, v, rep.Dist, want)
				}
			}
			qs = append(qs, client.Query{Type: "dist", U: u, V: v})

			pr, err := pc.Query(ctx, client.Query{Type: "path", U: u, V: v})
			if err != nil {
				t.Fatalf("path(%d,%d): %v", u, v, err)
			}
			wantLen := spg.BFS(u)[v]
			gotLen := int32(graph.Unreachable)
			if pr.Path != nil {
				gotLen = int32(len(pr.Path) - 1)
			}
			if gotLen != wantLen {
				t.Fatalf("path(%d,%d) length %d, spanner BFS says %d", u, v, gotLen, wantLen)
			}
		}
	}

	// Batch: same answers, input order preserved.
	rs, err := pc.Batch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(qs) {
		t.Fatalf("batch returned %d replies for %d queries", len(rs), len(qs))
	}
	for i, r := range rs {
		if r.U != qs[i].U || r.V != qs[i].V {
			t.Fatalf("batch reply %d is for (%d,%d), want (%d,%d)", i, r.U, r.V, qs[i].U, qs[i].V)
		}
		if !r.Composed && r.Err == "" {
			if want := art.Oracle.Query(r.U, r.V); r.Dist != want {
				t.Fatalf("batch dist(%d,%d)=%d, oracle says %d", r.U, r.V, r.Dist, want)
			}
		}
	}

	// Route queries are refused before any replica is bothered.
	if _, err := pc.Query(ctx, client.Query{Type: "route", U: 0, V: 5}); !errors.Is(err, clusterserve.ErrPartitionedRoute) {
		t.Fatalf("route query: err = %v, want ErrPartitionedRoute", err)
	}
	if _, err := pc.Batch(ctx, []client.Query{{Type: "route", U: 0, V: 5}}); !errors.Is(err, clusterserve.ErrPartitionedRoute) {
		t.Fatalf("route batch: err = %v, want ErrPartitionedRoute", err)
	}
}

// TestPartitionedFailover: with an entire owner group dead, other groups
// keep serving — paths stay exact (every part carries the full spanner),
// dist answers arrive flagged Composed — and nothing is ever silently
// wrong. With every group dead, dist degrades to flagged landmark bounds
// and paths fail with ErrNoQuorum.
func TestPartitionedFailover(t *testing.T) {
	art := sparseArtifact(t, 300, 23)
	pc, reps, res, _ := testPartitioned(t, art, 3, 1)
	ctx, cancel := ctxWithTimeout(t, 60*time.Second)
	defer cancel()

	// Pick a partition with two interior vertices — owned there and not
	// boundary-replicated into any other part — so a foreign group's
	// answer for the pair is deterministically Composed.
	victim := -1
	var u, v int32 = -1, -1
	for p := 0; p < 3 && victim < 0; p++ {
		u, v = -1, -1
		for x := int32(0); int(x) < art.Graph.N() && v < 0; x++ {
			interior := res.Map.Owner[x] == int32(p)
			for q := 0; q < 3 && interior; q++ {
				if q != p && res.Parts[q].Covered(x) {
					interior = false
				}
			}
			if !interior {
				continue
			}
			if u < 0 {
				u = x
			} else {
				v = x
				victim = p
			}
		}
	}
	if victim < 0 {
		t.Fatal("no partition has two interior vertices")
	}

	// Kill the victim partition entirely and wait for its group to lose
	// quorum.
	for _, f := range reps[victim] {
		f.stop()
	}
	deadline := time.Now().Add(10 * time.Second)
	for pc.Group(victim).Status().ReadyCount > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("group %d never lost its member: %+v", victim, pc.Group(victim).Status())
		}
		time.Sleep(20 * time.Millisecond)
	}

	rep, err := pc.Query(ctx, client.Query{Type: "dist", U: u, V: v})
	if err != nil {
		t.Fatalf("dist with owner group down: %v", err)
	}
	if !rep.Composed {
		t.Fatalf("owner-group-down dist not flagged Composed: %+v", rep)
	}
	truth := art.Graph.BFS(u)[v]
	if truth != graph.Unreachable && rep.Dist < truth {
		t.Fatalf("composed failover dist %d below truth %d", rep.Dist, truth)
	}
	pr, err := pc.Query(ctx, client.Query{Type: "path", U: u, V: v})
	if err != nil {
		t.Fatalf("path with owner group down: %v", err)
	}
	spg := art.Spanner.ToGraph(art.Graph.N())
	if wantLen := spg.BFS(u)[v]; int32(len(pr.Path)-1) != wantLen {
		t.Fatalf("failover path length %d, want %d", len(pr.Path)-1, wantLen)
	}
	if pc.Status().RemoteServed == 0 {
		t.Fatalf("remote serving not counted: %+v", pc.Status())
	}

	// Batches for partition 0 fall over to other groups too.
	rs, err := pc.Batch(ctx, []client.Query{{Type: "dist", U: u, V: v}})
	if err != nil || len(rs) != 1 || !rs[0].Composed {
		t.Fatalf("failover batch: %+v err=%v", rs, err)
	}

	// Kill everything: dist degrades (flagged), path refuses.
	for i, g := range reps {
		if i == victim {
			continue
		}
		for _, f := range g {
			f.stop()
		}
	}
	for i := range reps {
		for pc.Group(i).Status().ReadyCount > 0 {
			if time.Now().After(deadline.Add(10 * time.Second)) {
				t.Fatalf("group %d never lost its member", i)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	if _, err := pc.Query(ctx, client.Query{Type: "path", U: u, V: v}); !errors.Is(err, clusterserve.ErrNoQuorum) {
		t.Fatalf("total-loss path: err = %v, want ErrNoQuorum", err)
	}
	// Revive one foreign partition: once its member rejoins, dist for the
	// victim's interior pair serves again — flagged (Composed from the
	// quorate foreign group, or Degraded through the fallback) and never
	// below the true distance.
	alive := (victim + 1) % 3
	reps[alive][0].restartPart(res.Parts[alive])
	degDeadline := time.Now().Add(15 * time.Second)
	for {
		rep, err = pc.Query(ctx, client.Query{Type: "dist", U: u, V: v})
		if err == nil {
			break
		}
		if time.Now().After(degDeadline) {
			t.Fatalf("dist never recovered after partial revive: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !rep.Composed && !rep.Degraded {
		t.Fatalf("partial-revive dist neither Composed nor Degraded: %+v", rep)
	}
	if truth != graph.Unreachable && rep.Dist < truth {
		t.Fatalf("partial-revive dist %d below truth %d", rep.Dist, truth)
	}
}

// TestComposedSwap: a composed two-phase map swap advances every group in
// lockstep to generation 2, answers afterwards come from the new split,
// and a member that missed the commit is replayed forward from the "part"
// generation record.
func TestComposedSwap(t *testing.T) {
	art := testArtifact(t, 120, 25)
	pc, reps, res, _ := testPartitioned(t, art, 3, 1)
	ctx, cancel := ctxWithTimeout(t, 60*time.Second)
	defer cancel()

	art2 := nextGen(t, art)
	mapPath2, res2 := savePartitionDir(t, t.TempDir(), art2, 3, 13)
	if res2.Map.SplitID == res.Map.SplitID {
		t.Fatal("second split should have a distinct split id")
	}

	sres, err := pc.SwapMap(ctx, mapPath2)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Gen != 2 || sres.SplitID != res2.Map.SplitID {
		t.Fatalf("composed swap result: %+v", sres)
	}
	for i := 0; i < 3; i++ {
		g := sres.Groups[i]
		if g.Gen != 2 || g.Checksum != res2.Map.Parts[i].Checksum || g.Committed != 1 || len(g.Ejected) != 0 {
			t.Fatalf("group %d mutation result: %+v", i, g)
		}
		if st := pc.Group(i).Status(); st.Gen != 2 {
			t.Fatalf("group %d not at composed gen 2: %+v", i, st)
		}
	}
	if pc.Gen() != 2 {
		t.Fatalf("composed gen = %d, want 2", pc.Gen())
	}
	if pc.Map().SplitID != res2.Map.SplitID {
		t.Fatal("coordinator did not adopt the new map")
	}

	// Answers now follow the new split's artifact: an unflagged reply must
	// be bit-identical to the new unpartitioned oracle.
	rep, err := pc.Query(ctx, client.Query{Type: "dist", U: 3, V: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Composed {
		if want := art2.Oracle.Query(3, 4); rep.Dist != want {
			t.Fatalf("post-swap dist = %d, new oracle says %d", rep.Dist, want)
		}
	}

	// Crash partition 2's member back to the OLD split: the group prober
	// must replay the recorded "part" generation to walk it forward.
	reps[2][0].restartPart(res.Parts[2])
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := pc.Group(2).Status()
		if st.ReadyCount == 1 && st.Members[0].Gen == 2 && st.Members[0].Checksum == res2.Map.Parts[2].Checksum {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale part replica never replayed forward: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := pc.Status(); st.Gen != 2 {
		t.Fatalf("composed gen regressed during catch-up: %+v", st)
	}
}

// TestComposedSwapAborts: a prepare failure in ONE group aborts the
// composed mutation in EVERY group — no generation moves anywhere, no
// stage is left behind — and a part file diverging from the checksum the
// map pins for it aborts the same way.
func TestComposedSwapAborts(t *testing.T) {
	art := testArtifact(t, 120, 27)
	dir := t.TempDir()
	mapPath, res := savePartitionDir(t, dir, art, 3, 11)

	// Group 2's replica refuses every prepare.
	var reps []*fakeReplica
	var urls []string
	for i, p := range res.Parts {
		var f *fakeReplica
		if i == 2 {
			f = newFakePartReplicaWith(t, p, func(next http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/cluster/prepare" {
						http.Error(w, `{"err":"induced prepare failure"}`, http.StatusInternalServerError)
						return
					}
					next.ServeHTTP(w, r)
				})
			})
		} else {
			f = newFakePartReplica(t, p)
		}
		reps = append(reps, f)
		urls = append(urls, f.url)
	}
	pc := partRouter{newRouter(t, clusterserve.Config{
		MapPath:       mapPath,
		Replicas:      urls,
		ProbeInterval: 20 * time.Millisecond,
		QueryTimeout:  2 * time.Second,
		Seed:          7,
	})}
	ctx, cancel := ctxWithTimeout(t, 30*time.Second)
	defer cancel()
	if err := pc.WaitQuorate(ctx, 1); err != nil {
		t.Fatal(err)
	}

	art2 := nextGen(t, art)
	mapPath2, _ := savePartitionDir(t, t.TempDir(), art2, 3, 13)
	if _, err := pc.SwapMap(ctx, mapPath2); !errors.Is(err, clusterserve.ErrPrepare) {
		t.Fatalf("composed swap with failing prepare: err = %v, want ErrPrepare", err)
	}
	for i := 0; i < 3; i++ {
		if st := pc.Group(i).Status(); st.Gen != 1 {
			t.Fatalf("group %d advanced after composed abort: %+v", i, st)
		}
	}
	if pc.Gen() != 1 {
		t.Fatalf("composed gen advanced after abort: %d", pc.Gen())
	}
	// Every replica still serves and reports ready (no orphaned stage).
	if err := pc.WaitQuorate(ctx, 1); err != nil {
		t.Fatalf("cluster not quorate after abort: %v", err)
	}

}

// TestComposedSwapChecksumDivergence: every replica is healthy, but one
// part file on disk does not match the checksum the new map pins for it —
// the composed mutation aborts in every group with nothing committed.
func TestComposedSwapChecksumDivergence(t *testing.T) {
	art := testArtifact(t, 120, 31)
	pc, _, _, _ := testPartitioned(t, art, 3, 1)
	ctx, cancel := ctxWithTimeout(t, 30*time.Second)
	defer cancel()

	art2 := nextGen(t, art)
	dir2 := t.TempDir()
	mapPath2, res2 := savePartitionDir(t, dir2, art2, 3, 13)
	other, err := partition.Split(art2, 3, 29)
	if err != nil {
		t.Fatal(err)
	}
	// Same partition id, different split: the replica stages it happily,
	// but its checksum disagrees with the map's pin.
	if err := artifact.SavePart(filepath.Join(dir2, res2.Map.Parts[1].Path), other.Parts[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.SwapMap(ctx, mapPath2); !errors.Is(err, clusterserve.ErrComposedPrepare) {
		t.Fatalf("composed swap with diverged part: err = %v, want ErrComposedPrepare", err)
	}
	for i := 0; i < 3; i++ {
		if st := pc.Group(i).Status(); st.Gen != 1 {
			t.Fatalf("group %d advanced after divergence abort: %+v", i, st)
		}
	}
	if err := pc.WaitQuorate(ctx, 1); err != nil {
		t.Fatalf("cluster not quorate after divergence abort: %v", err)
	}
}

// TestPartitionedAssignment: members are grouped by the partition they
// report; a member from a different split stays pending rather than
// poisoning a group's bootstrap.
func TestPartitionedAssignment(t *testing.T) {
	art := testArtifact(t, 120, 29)
	dir := t.TempDir()
	mapPath, res := savePartitionDir(t, dir, art, 3, 11)
	foreign, err := partition.Split(art, 3, 99)
	if err != nil {
		t.Fatal(err)
	}

	var urls []string
	for _, p := range res.Parts {
		urls = append(urls, newFakePartReplica(t, p).url)
	}
	stray := newFakePartReplica(t, foreign.Parts[0])
	whole := newFakeReplica(t, art)
	urls = append(urls, stray.url, whole.url)

	pc := partRouter{newRouter(t, clusterserve.Config{
		MapPath:       mapPath,
		Replicas:      urls,
		ProbeInterval: 20 * time.Millisecond,
		QueryTimeout:  2 * time.Second,
		Seed:          7,
	})}
	ctx, cancel := ctxWithTimeout(t, 30*time.Second)
	defer cancel()
	if err := pc.WaitQuorate(ctx, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := pc.Status()
		assigned := 0
		for _, g := range st.Groups {
			assigned += len(g.Status.Members)
		}
		if assigned == 3 && len(st.Pending) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stray members not kept pending: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
