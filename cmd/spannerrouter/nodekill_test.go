package main

// Node-kill chaos suite: the acceptance test for cluster serving. Real
// spannerd and spannerrouter binaries run as subprocesses; replicas are
// SIGKILLed mid-/swap, mid-/update, and under sustained query load, then
// supervised back up on the same port. The invariants checked here are
// the ones the two-phase generation protocol exists to provide:
//
//   - zero wrong answers: every non-degraded reply matches the distance
//     oracle of exactly the generation stamped on it;
//   - no generation divergence: after the dust settles every member
//     reports the committed generation and checksum;
//   - killed replicas rejoin at the committed generation (adopt or
//     replay), never at a stale one;
//   - quorum loss degrades to flagged landmark bounds, not 503s.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"spanner/internal/artifact"
	"spanner/internal/graph"
)

// buildBinaries compiles spannerd and spannerrouter once into dir.
func buildBinaries(t *testing.T, dir string) (spannerd, router string) {
	t.Helper()
	spannerd = filepath.Join(dir, "spannerd")
	router = filepath.Join(dir, "spannerrouter")
	for bin, pkg := range map[string]string{spannerd: "spanner/cmd/spannerd", router: "spanner/cmd/spannerrouter"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	return spannerd, router
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // cmd/spannerrouter -> repo root
}

// chaosArtifact mirrors the in-process harness: a connected Gnp graph
// with a BFS-tree spanner.
func chaosArtifact(t *testing.T, n int, seed int64) *artifact.Artifact {
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

func chaosNextGen(t *testing.T, a *artifact.Artifact) *artifact.Artifact {
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

// freeAddr reserves an ephemeral port and releases it for a subprocess
// to bind. The tiny reuse race is acceptable in tests.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// proc supervises one subprocess: SIGKILL-able and restartable with the
// same arguments (same port), like a process supervisor would.
type proc struct {
	t    *testing.T
	bin  string
	args []string
	mu   sync.Mutex
	cur  *procRun
}

// procRun is one start of a proc. done closes once the process has exited and
// its output is drained; err and stderr are final from then on.
type procRun struct {
	cmd    *exec.Cmd
	done   chan struct{}
	err    error
	stderr tailBuffer
}

// tailBuffer keeps the last bytes written to it.
type tailBuffer struct{ b []byte }

func (tb *tailBuffer) Write(p []byte) (int, error) {
	const keep = 4 << 10
	tb.b = append(tb.b, p...)
	if len(tb.b) > keep {
		tb.b = tb.b[len(tb.b)-keep:]
	}
	return len(p), nil
}

func startProc(t *testing.T, bin string, args ...string) *proc {
	p := &proc{t: t, bin: bin, args: args}
	p.start()
	t.Cleanup(p.kill)
	return p
}

func (p *proc) start() {
	p.t.Helper()
	r := &procRun{cmd: exec.Command(p.bin, p.args...), done: make(chan struct{})}
	r.cmd.Stdout = os.Stderr
	r.cmd.Stderr = io.MultiWriter(os.Stderr, &r.stderr)
	if err := r.cmd.Start(); err != nil {
		p.t.Fatalf("starting %s: %v", p.bin, err)
	}
	go func() {
		r.err = r.cmd.Wait()
		close(r.done)
	}()
	p.mu.Lock()
	p.cur = r
	p.mu.Unlock()
}

// kill SIGKILLs the process — no drain, no goodbye, like a crashed node.
func (p *proc) kill() {
	p.mu.Lock()
	r := p.cur
	p.cur = nil
	p.mu.Unlock()
	if r == nil {
		return
	}
	r.cmd.Process.Signal(syscall.SIGKILL)
	<-r.done
}

// exited reports how the running process ended when it has exited without
// being killed — say, on a port another process took — naming its exit
// status and the end of its stderr; nil while it runs.
func (p *proc) exited() error {
	p.mu.Lock()
	r := p.cur
	p.mu.Unlock()
	if r == nil {
		return nil
	}
	select {
	case <-r.done:
		return fmt.Errorf("%s exited (%v); its stderr ends:\n%s", filepath.Base(p.bin), r.err, r.stderr.b)
	default:
		return nil
	}
}

func (p *proc) restart() {
	p.kill()
	p.start()
}

// --- tiny HTTP helpers against the router ---

type wireReply struct {
	Dist     int32  `json:"dist"`
	Degraded bool   `json:"degraded"`
	Gen      int64  `json:"gen"`
	Err      string `json:"err"`
}

type memberStatus struct {
	URL      string `json:"url"`
	Ready    bool   `json:"ready"`
	Gen      int64  `json:"gen"`
	Checksum int64  `json:"checksum"`
}

type clusterStatus struct {
	Gen        int64          `json:"gen"`
	Quorum     int            `json:"quorum"`
	ReadyCount int            `json:"ready"`
	Members    []memberStatus `json:"members"`
	Failovers  int64          `json:"failovers"`
	Degraded   int64          `json:"degraded"`
	Ejections  int64          `json:"ejections"`
	Rejoins    int64          `json:"rejoins"`
	Catchups   int64          `json:"catchups"`
}

func getJSON(url string, out any) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func postJSON(url string, body, out any) (int, error) {
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, nil
}

// waitFor polls cond until it returns nil or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() error) {
	t.Helper()
	deadline := time.Now().Add(d)
	var err error
	for time.Now().Before(deadline) {
		if err = cond(); err == nil {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s: %v", what, err)
}

// waitConverged waits until the router reports: committed generation gen,
// n ready members, and every member at exactly (gen, checksum) — the
// no-divergence invariant.
func waitConverged(t *testing.T, router *proc, routerURL string, n int, gen, checksum int64) {
	t.Helper()
	waitFor(t, 30*time.Second, fmt.Sprintf("convergence at gen %d", gen), func() error {
		if err := router.exited(); err != nil {
			t.Fatalf("router gone while waiting for convergence at gen %d: %v", gen, err)
		}
		var st clusterStatus
		if _, err := getJSON(routerURL+"/statusz", &st); err != nil {
			return err
		}
		if st.Gen != gen {
			return fmt.Errorf("committed gen %d, want %d", st.Gen, gen)
		}
		if st.ReadyCount != n {
			return fmt.Errorf("%d/%d ready", st.ReadyCount, n)
		}
		for _, m := range st.Members {
			if m.Gen != gen || m.Checksum != checksum {
				return fmt.Errorf("member %s at gen %d checksum %d, want %d/%d",
					m.URL, m.Gen, m.Checksum, gen, checksum)
			}
		}
		return nil
	})
}

// TestNodeKillChaos is the full suite: 3 replicas + router as real
// processes, kills timed against /swap, /update, and steady load.
func TestNodeKillChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos suite; skipped in -short")
	}
	dir := t.TempDir()
	spannerdBin, routerBin := buildBinaries(t, dir)

	// Three generations: g1 boot artifact, g2 full swap, g3 delta update.
	art1 := chaosArtifact(t, 120, 5)
	art2 := chaosNextGen(t, art1)
	art3 := chaosNextGen(t, art2)
	path1 := filepath.Join(dir, "g1.spanart")
	path2 := filepath.Join(dir, "g2.spanart")
	dpath3 := filepath.Join(dir, "g3.spandelta")
	for p, a := range map[string]*artifact.Artifact{path1: art1, path2: art2} {
		if err := artifact.Save(p, a); err != nil {
			t.Fatal(err)
		}
	}
	d23, err := artifact.Diff(art2, art3)
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.SaveDelta(dpath3, d23); err != nil {
		t.Fatal(err)
	}
	oracles := map[int64]*artifact.Artifact{1: art1, 2: art2, 3: art3}

	// Launch 3 cluster replicas and the router with a fast probe cadence.
	const n = 3
	reps := make([]*proc, n)
	repURLs := make([]string, n)
	for i := range reps {
		addr := freeAddr(t)
		repURLs[i] = "http://" + addr
		reps[i] = startProc(t, spannerdBin,
			"-artifact", path1, "-addr", addr, "-cluster", "-brownout-poll", "0")
	}
	routerAddr := freeAddr(t)
	routerURL := "http://" + routerAddr
	router := startProc(t, routerBin,
		"-addr", routerAddr,
		"-replicas", repURLs[0]+","+repURLs[1]+","+repURLs[2],
		"-probe-interval", "50ms", "-probe-timeout", "2s",
		"-query-timeout", "5s")

	waitConverged(t, router, routerURL, n, 1, art1.Checksum())

	// Sustained load: workers hammer dist queries through the router for
	// the whole suite; every non-degraded success must match the oracle
	// of the generation stamped on the reply. Transient errors are
	// tolerated (kills are landing), wrong answers never.
	stopLoad := make(chan struct{})
	var loadWG sync.WaitGroup
	var queries, errorsSeen atomic.Int64
	wrong := make(chan string, 1)
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
				u, v := (w*37+i)%120, (w*13+i*7)%120
				var rep wireReply
				code, err := getJSON(fmt.Sprintf("%s/query?type=dist&u=%d&v=%d", routerURL, u, v), &rep)
				queries.Add(1)
				if err != nil || code != http.StatusOK {
					errorsSeen.Add(1)
					continue
				}
				if rep.Degraded {
					continue
				}
				orc, ok := oracles[rep.Gen]
				if !ok {
					select {
					case wrong <- fmt.Sprintf("reply stamped unknown gen %d", rep.Gen):
					default:
					}
					return
				}
				if want := orc.Oracle.Query(int32(u), int32(v)); rep.Dist != want {
					select {
					case wrong <- fmt.Sprintf("dist(%d,%d)=%d but gen-%d oracle says %d",
						u, v, rep.Dist, rep.Gen, want):
					default:
					}
					return
				}
			}
		}(w)
	}
	checkLoad := func() {
		t.Helper()
		select {
		case msg := <-wrong:
			t.Fatalf("wrong answer under chaos: %s", msg)
		default:
		}
	}

	// --- Phase A: SIGKILL a replica mid-/swap. ---
	// The kill races the two-phase commit: the swap either aborts (gen
	// stays 1 everywhere) or commits with the victim ejected. Both are
	// correct; divergence is not. Retry until the swap lands, then
	// restart the victim — it must come back at the committed generation.
	swapDone := make(chan error, 1)
	go func() {
		code, _ := postJSON(routerURL+"/swap", map[string]string{"artifact": path2}, nil)
		if code == http.StatusOK {
			swapDone <- nil
		} else {
			swapDone <- fmt.Errorf("swap status %d", code)
		}
	}()
	time.Sleep(5 * time.Millisecond) // let prepares go out
	reps[1].kill()
	swapErr := <-swapDone
	checkLoad()
	var st clusterStatus
	if _, err := getJSON(routerURL+"/statusz", &st); err != nil {
		t.Fatal(err)
	}
	if st.Gen != 1 && st.Gen != 2 {
		t.Fatalf("post-kill committed gen %d, want 1 (aborted) or 2 (committed)", st.Gen)
	}
	if swapErr != nil {
		t.Logf("swap aborted under kill (ok): %v", swapErr)
	}
	// If the kill aborted the swap, land it now on the surviving pair.
	if st.Gen == 1 {
		waitFor(t, 15*time.Second, "swap retry", func() error {
			if code, _ := postJSON(routerURL+"/swap", map[string]string{"artifact": path2}, nil); code != http.StatusOK {
				return fmt.Errorf("swap status %d", code)
			}
			return nil
		})
	}
	// The victim restarts from its boot artifact (gen-1 state) and must
	// be caught up to gen 2 by artifact replay before it is routed again.
	reps[1].restart()
	waitConverged(t, router, routerURL, n, 2, art2.Checksum())
	checkLoad()

	// --- Phase B: SIGKILL a different replica mid-/update (delta). ---
	updateDone := make(chan error, 1)
	go func() {
		code, _ := postJSON(routerURL+"/update", map[string]string{"delta": dpath3}, nil)
		if code == http.StatusOK {
			updateDone <- nil
		} else {
			updateDone <- fmt.Errorf("update status %d", code)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	reps[2].kill()
	updateErr := <-updateDone
	checkLoad()
	if _, err := getJSON(routerURL+"/statusz", &st); err != nil {
		t.Fatal(err)
	}
	if st.Gen != 2 && st.Gen != 3 {
		t.Fatalf("post-kill committed gen %d, want 2 or 3", st.Gen)
	}
	if updateErr != nil {
		t.Logf("update aborted under kill (ok): %v", updateErr)
	}
	if st.Gen == 2 {
		waitFor(t, 15*time.Second, "update retry", func() error {
			if code, _ := postJSON(routerURL+"/update", map[string]string{"delta": dpath3}, nil); code != http.StatusOK {
				return fmt.Errorf("update status %d", code)
			}
			return nil
		})
	}
	// The victim reboots at gen-1 state; catch-up must replay the full
	// g2 artifact and then the g2→g3 delta.
	reps[2].restart()
	waitConverged(t, router, routerURL, n, 3, art3.Checksum())
	checkLoad()

	// --- Phase C: quorum loss degrades, does not 503. ---
	reps[0].kill()
	reps[1].kill()
	waitFor(t, 15*time.Second, "router to notice quorum loss", func() error {
		code, _ := getJSON(routerURL+"/readyz", nil)
		if code != http.StatusServiceUnavailable {
			return fmt.Errorf("readyz %d, want 503", code)
		}
		return nil
	})
	var rep wireReply
	code, err := getJSON(routerURL+"/query?type=dist&u=3&v=77", &rep)
	if err != nil || code != http.StatusOK {
		var st struct {
			Members json.RawMessage `json:"members"`
		}
		getJSON(routerURL+"/statusz", &st)
		t.Fatalf("query under quorum loss: code %d err %v router error %q — must degrade, not fail; /statusz members %s",
			code, err, rep.Err, st.Members)
	}
	if !rep.Degraded {
		t.Fatal("quorum-loss answer not flagged degraded")
	}
	// The landmark bound is an upper bound on the true graph distance
	// (not the spanner distance the exact oracle answers with).
	trueDist, _ := art3.Graph.BFSWithParents(3)
	if rep.Dist < trueDist[77] {
		t.Fatalf("degraded bound %d below true graph distance %d — not an upper bound", rep.Dist, trueDist[77])
	}

	// Both victims return; the cluster converges back to full strength at
	// the committed generation.
	reps[0].restart()
	reps[1].restart()
	waitConverged(t, router, routerURL, n, 3, art3.Checksum())

	close(stopLoad)
	loadWG.Wait()
	checkLoad()
	if q, e := queries.Load(), errorsSeen.Load(); q < 100 || e*5 > q {
		t.Fatalf("load summary: %d queries, %d errors — too few successes for a meaningful run", q, e)
	} else {
		t.Logf("chaos load: %d queries, %d transient errors, 0 wrong answers", q, e)
	}
	if _, err := getJSON(routerURL+"/statusz", &st); err == nil {
		t.Logf("router counters: failovers=%d degraded=%d ejections=%d rejoins=%d catchups=%d",
			st.Failovers, st.Degraded, st.Ejections, st.Rejoins, st.Catchups)
	}
}
