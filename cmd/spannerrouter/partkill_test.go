package main

// Partitioned node-kill chaos suite: the acceptance test for partitioned
// serving. Real spannerd -partition replicas (3 partitions × 2 members)
// behind a real spannerrouter -partition-map run as subprocesses; members
// are SIGKILLed mid-composed-swap and under sustained load. Invariants:
//
//   - zero wrong answers: every unflagged dist reply matches the
//     whole-graph oracle of the generation stamped on it, and every
//     Composed/Degraded reply brackets the true graph distance
//     (Bound ≤ true ≤ Dist);
//   - path answers are exact everywhere (every part carries the full
//     spanner), even while the owning partition group is down;
//   - the composed cluster generation is never observed partially
//     committed: it only moves forward, and after any kill every group
//     settles on the same generation — all at the old one (aborted) or
//     all at the new one (committed), never a mix.

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spanner/internal/artifact"
	"spanner/internal/graph"
	"spanner/internal/partition"
)

// partWireReply mirrors the partitioned router's /query JSON.
type partWireReply struct {
	Dist     int32   `json:"dist"`
	Path     []int32 `json:"path"`
	Bound    *int32  `json:"bound"`
	Degraded bool    `json:"degraded"`
	Composed bool    `json:"composed"`
	Gen      int64   `json:"gen"`
	Err      string  `json:"err"`
}

// partGroupStatus / partStatus mirror the partitioned /statusz.
type partGroupStatus struct {
	Partition int           `json:"partition"`
	Status    clusterStatus `json:"status"`
}

type partStatus struct {
	Gen            int64             `json:"gen"`
	SplitID        int64             `json:"split_id"`
	K              int               `json:"k"`
	Groups         []partGroupStatus `json:"groups"`
	Pending        []string          `json:"pending"`
	RemoteServed   int64             `json:"remoteServed"`
	DegradedServed int64             `json:"degradedServed"`
}

// sparseChaosArtifact builds a sparse connected graph (average degree ~2)
// so partitions have interior vertices and cross-partition pairs actually
// compose instead of being covered by boundary replication.
func sparseChaosArtifact(t *testing.T, n int, seed int64) *artifact.Artifact {
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

// writeSplit splits art into k parts under dir and returns the map path
// plus the split result (for owner lookups and checksum pins).
func writeSplit(t *testing.T, art *artifact.Artifact, k int, seed int64, dir string) (string, *partition.Result) {
	t.Helper()
	res, err := partition.Split(art, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Parts {
		name := fmt.Sprintf("part-%d.spanpart", p.ID)
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

// waitPartConverged waits until the partitioned router reports composed
// generation gen with every group quorate at that generation and every
// member's checksum matching the split's pinned part checksum. It fails at
// once, naming the router's exit and stderr, when the router process is
// gone: polling its port then reaches whatever process took it.
func waitPartConverged(t *testing.T, router *proc, routerURL string, membersPerGroup int, gen int64, res *partition.Result) {
	t.Helper()
	waitFor(t, 45*time.Second, fmt.Sprintf("composed convergence at gen %d", gen), func() error {
		if err := router.exited(); err != nil {
			t.Fatalf("router gone while waiting for composed convergence at gen %d: %v", gen, err)
		}
		var st partStatus
		if _, err := getJSON(routerURL+"/statusz", &st); err != nil {
			return err
		}
		if st.Gen != gen {
			return fmt.Errorf("composed gen %d, want %d", st.Gen, gen)
		}
		if st.SplitID != res.Map.SplitID {
			return fmt.Errorf("split %x, want %x", st.SplitID, res.Map.SplitID)
		}
		for _, g := range st.Groups {
			if g.Status.ReadyCount != membersPerGroup {
				return fmt.Errorf("partition %d: %d/%d ready", g.Partition, g.Status.ReadyCount, membersPerGroup)
			}
			want := res.Map.Parts[g.Partition].Checksum
			for _, m := range g.Status.Members {
				if m.Gen != gen || m.Checksum != want {
					return fmt.Errorf("partition %d member %s at gen %d checksum %d, want %d/%d",
						g.Partition, m.URL, m.Gen, m.Checksum, gen, want)
				}
			}
		}
		return nil
	})
}

// TestPartitionedNodeKillChaos: 3 partitions × 2 members plus a
// partitioned router, kills timed against the composed swap and sustained
// scatter-gather load.
func TestPartitionedNodeKillChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos suite; skipped in -short")
	}
	dir := t.TempDir()
	spannerdBin, routerBin := buildBinaries(t, dir)

	const vertices = 300
	const k = 3
	const perGroup = 2
	art1 := sparseChaosArtifact(t, vertices, 5)
	art2 := chaosNextGen(t, art1) // same graph, one spanner edge fewer
	map1, res1 := writeSplit(t, art1, k, 5, dir)
	dir2 := filepath.Join(dir, "gen2")
	if err := os.MkdirAll(dir2, 0o755); err != nil {
		t.Fatal(err)
	}
	map2, res2 := writeSplit(t, art2, k, 9, dir2)

	// Sample query vertices with precomputed truths. The graph is shared
	// by both generations, so one true-distance table validates composed
	// brackets at any stamped gen; the oracles differ per gen.
	samples := []int32{2, 19, 44, 71, 95, 120, 151, 190, 222, 251, 280, 299}
	trueDist := map[int32][]int32{}
	for _, u := range samples {
		trueDist[u] = art1.Graph.BFS(u)
	}
	oracles := map[int64]*artifact.Artifact{1: art1, 2: art2}

	// Launch 2 members per partition and the partitioned router.
	procs := make(map[int][]*proc, k)
	var urls []string
	for p := 0; p < k; p++ {
		for r := 0; r < perGroup; r++ {
			addr := freeAddr(t)
			urls = append(urls, "http://"+addr)
			procs[p] = append(procs[p], startProc(t, spannerdBin,
				"-partition", filepath.Join(dir, fmt.Sprintf("part-%d.spanpart", p)),
				"-addr", addr, "-cluster", "-brownout-poll", "0"))
		}
	}
	routerAddr := freeAddr(t)
	routerURL := "http://" + routerAddr
	router := startProc(t, routerBin,
		"-addr", routerAddr,
		"-partition-map", map1,
		"-replicas", strings.Join(urls, ","),
		"-probe-interval", "50ms", "-probe-timeout", "2s",
		"-query-timeout", "5s")

	waitPartConverged(t, router, routerURL, perGroup, 1, res1)

	// Monitor: the composed generation must only move forward. A backwards
	// step would mean a partially committed composed generation became
	// visible.
	stopMon := make(chan struct{})
	var monWG sync.WaitGroup
	monViolation := make(chan string, 1)
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		var lastGen int64
		for {
			select {
			case <-stopMon:
				return
			default:
			}
			var st partStatus
			if _, err := getJSON(routerURL+"/statusz", &st); err == nil {
				if st.Gen < lastGen {
					select {
					case monViolation <- fmt.Sprintf("composed gen regressed %d -> %d", lastGen, st.Gen):
					default:
					}
					return
				}
				lastGen = st.Gen
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()

	// Sustained scatter-gather load over the sample pairs: dist and path
	// queries plus periodic batches, each validated against the stamped
	// generation's whole-graph truth.
	stopLoad := make(chan struct{})
	var loadWG sync.WaitGroup
	var queries, errorsSeen, composedSeen atomic.Int64
	wrong := make(chan string, 1)
	fail := func(msg string) {
		select {
		case wrong <- msg:
		default:
		}
	}
	checkDist := func(u, v int32, rep partWireReply) bool {
		orc, ok := oracles[rep.Gen]
		if !ok {
			fail(fmt.Sprintf("dist reply stamped unknown gen %d", rep.Gen))
			return false
		}
		truth := trueDist[u][v]
		if rep.Composed || rep.Degraded {
			if rep.Composed {
				composedSeen.Add(1)
			}
			if rep.Dist < truth {
				fail(fmt.Sprintf("flagged dist(%d,%d)=%d below true distance %d", u, v, rep.Dist, truth))
				return false
			}
			if rep.Bound != nil && *rep.Bound > truth {
				fail(fmt.Sprintf("flagged dist(%d,%d) lower bound %d above true distance %d", u, v, *rep.Bound, truth))
				return false
			}
			return true
		}
		if want := orc.Oracle.Query(u, v); rep.Dist != want {
			fail(fmt.Sprintf("dist(%d,%d)=%d but gen-%d oracle says %d", u, v, rep.Dist, rep.Gen, want))
			return false
		}
		return true
	}
	for w := 0; w < 3; w++ {
		loadWG.Add(1)
		go func(w int) {
			defer loadWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				u := samples[(w*5+i)%len(samples)]
				v := samples[(w*7+i*3+1)%len(samples)]
				if u == v {
					continue
				}
				var rep partWireReply
				code, err := getJSON(fmt.Sprintf("%s/query?type=dist&u=%d&v=%d", routerURL, u, v), &rep)
				queries.Add(1)
				if err != nil || code != http.StatusOK {
					errorsSeen.Add(1)
				} else if !checkDist(u, v, rep) {
					return
				}
				// Path queries are never composed: every part carries the
				// full spanner, so any group answers them exactly.
				var prep partWireReply
				code, err = getJSON(fmt.Sprintf("%s/query?type=path&u=%d&v=%d", routerURL, u, v), &prep)
				queries.Add(1)
				if err != nil || code != http.StatusOK {
					errorsSeen.Add(1)
					continue
				}
				if prep.Composed {
					fail(fmt.Sprintf("path(%d,%d) flagged composed", u, v))
					return
				}
				if len(prep.Path) > 0 && (prep.Path[0] != u || prep.Path[len(prep.Path)-1] != v) {
					fail(fmt.Sprintf("path(%d,%d) endpoints %v", u, v, prep.Path))
					return
				}
			}
		}(w)
	}
	// Batch worker: the same pairs through /batch, split by owner and
	// merged back in input order.
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			type q struct {
				Type string `json:"type"`
				U    int32  `json:"u"`
				V    int32  `json:"v"`
			}
			var qs []q
			for j := 0; j < 6; j++ {
				u := samples[(i+j)%len(samples)]
				v := samples[(i*3+j*5+1)%len(samples)]
				if u == v {
					v = samples[(i*3+j*5+2)%len(samples)]
				}
				qs = append(qs, q{"dist", u, v})
			}
			var reps []partWireReply
			code, err := postJSON(routerURL+"/batch", qs, &reps)
			queries.Add(int64(len(qs)))
			if err != nil || code != http.StatusOK || len(reps) != len(qs) {
				errorsSeen.Add(int64(len(qs)))
				time.Sleep(10 * time.Millisecond)
				continue
			}
			for j, rep := range reps {
				if rep.Err != "" {
					errorsSeen.Add(1)
					continue
				}
				if !checkDist(qs[j].U, qs[j].V, rep) {
					return
				}
			}
		}
	}()
	checkLoad := func() {
		t.Helper()
		select {
		case msg := <-wrong:
			t.Fatalf("wrong answer under partitioned chaos: %s", msg)
		case msg := <-monViolation:
			t.Fatalf("composed generation invariant broken: %s", msg)
		default:
		}
	}

	// --- Phase A: SIGKILL a member mid-composed-swap. ---
	// The kill races the K-group two-phase commit: either every group
	// aborts (composed gen stays 1) or all commit (gen 2) with the victim
	// caught up on restart. A mix is the bug this suite exists to catch.
	swapDone := make(chan int, 1)
	go func() {
		code, _ := postJSON(routerURL+"/swap", map[string]string{"map": map2}, nil)
		swapDone <- code
	}()
	time.Sleep(5 * time.Millisecond) // let prepares go out
	procs[1][0].kill()
	swapCode := <-swapDone
	checkLoad()
	// Whatever the outcome, every group must settle on one generation.
	waitFor(t, 30*time.Second, "groups settling on a single generation", func() error {
		var st partStatus
		if _, err := getJSON(routerURL+"/statusz", &st); err != nil {
			return err
		}
		for _, g := range st.Groups {
			if g.Status.Gen != st.Gen {
				return fmt.Errorf("partition %d at gen %d, composed gen %d", g.Partition, g.Status.Gen, st.Gen)
			}
		}
		if st.Gen != 1 && st.Gen != 2 {
			return fmt.Errorf("composed gen %d, want 1 or 2", st.Gen)
		}
		if swapCode == http.StatusOK && st.Gen != 2 {
			return fmt.Errorf("swap reported committed but composed gen is %d", st.Gen)
		}
		return nil
	})
	var st partStatus
	if _, err := getJSON(routerURL+"/statusz", &st); err != nil {
		t.Fatal(err)
	}
	if swapCode != http.StatusOK {
		t.Logf("composed swap aborted under kill (ok): status %d", swapCode)
	}
	// Bring the victim back first — a 2-member group needs both for
	// quorum — then land the swap if it aborted. Either way the victim
	// reboots from its gen-1 part file and must be replayed forward.
	procs[1][0].restart()
	if st.Gen == 1 {
		waitFor(t, 30*time.Second, "composed swap retry", func() error {
			if code, _ := postJSON(routerURL+"/swap", map[string]string{"map": map2}, nil); code != http.StatusOK {
				return fmt.Errorf("swap status %d", code)
			}
			return nil
		})
	}
	waitPartConverged(t, router, routerURL, perGroup, 2, res2)
	checkLoad()

	// --- Phase B: partition member loss under load. ---
	// Killing one of two members drops the group below quorum (2-member
	// majority is 2): its owned vertices fall over to foreign groups as
	// flagged Composed bounds; path queries stay exact throughout.
	procs[0][0].kill()
	waitFor(t, 15*time.Second, "router to notice the unquorate group", func() error {
		var st partStatus
		if _, err := getJSON(routerURL+"/statusz", &st); err != nil {
			return err
		}
		if st.Groups[0].Status.ReadyCount != perGroup-1 {
			return fmt.Errorf("partition 0: %d ready", st.Groups[0].Status.ReadyCount)
		}
		if code, _ := getJSON(routerURL+"/readyz", nil); code != http.StatusServiceUnavailable {
			return fmt.Errorf("readyz not 503 with an unquorate group")
		}
		return nil
	})
	// Force traffic onto partition 0's owned vertices to draw the
	// cross-partition fallback out.
	var owned0 []int32
	for v, o := range res2.Map.Owner {
		if o == 0 {
			for _, s := range samples {
				if s == int32(v) {
					owned0 = append(owned0, s)
				}
			}
		}
	}
	waitFor(t, 20*time.Second, "remote-served fallback answers", func() error {
		for _, u := range owned0 {
			for _, v := range samples {
				if u == v {
					continue
				}
				var rep partWireReply
				if code, err := getJSON(fmt.Sprintf("%s/query?type=dist&u=%d&v=%d", routerURL, u, v), &rep); err != nil || code != http.StatusOK {
					return fmt.Errorf("fallback query: code %d err %v", code, err)
				} else if !checkDist(u, v, rep) {
					return nil // wrong channel already has the message
				}
			}
		}
		var st partStatus
		if _, err := getJSON(routerURL+"/statusz", &st); err != nil {
			return err
		}
		if st.RemoteServed == 0 {
			return fmt.Errorf("no remote-served answers yet")
		}
		return nil
	})
	checkLoad()

	// The victim returns; the cluster converges back to full strength at
	// the committed split.
	procs[0][0].restart()
	waitPartConverged(t, router, routerURL, perGroup, 2, res2)

	close(stopLoad)
	loadWG.Wait()
	close(stopMon)
	monWG.Wait()
	checkLoad()
	if q, e := queries.Load(), errorsSeen.Load(); q < 200 || e*5 > q {
		t.Fatalf("load summary: %d queries, %d errors — too few successes for a meaningful run", q, e)
	} else {
		t.Logf("partitioned chaos load: %d queries, %d transient errors, %d composed answers, 0 wrong",
			q, e, composedSeen.Load())
	}
}
