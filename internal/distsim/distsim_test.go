package distsim

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"spanner/internal/graph"
)

// pingNode sends one message to each neighbor in Start and counts replies.
type pingNode struct {
	received int
}

func (p *pingNode) Start(n *NodeCtx) { n.Broadcast(int64(n.ID())) }

func (p *pingNode) HandleRound(n *NodeCtx, inbox []Message) {
	p.received += len(inbox)
	n.Halt()
}

func TestPingExchange(t *testing.T) {
	g := graph.Complete(5)
	nodes := make([]pingNode, 5)
	handlers := make([]Handler, 5)
	for i := range handlers {
		handlers[i] = &nodes[i]
	}
	net, err := NewNetwork(g, handlers, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		if nodes[i].received != 4 {
			t.Fatalf("node %d received %d, want 4", i, nodes[i].received)
		}
	}
	if m.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", m.Rounds)
	}
	if m.Messages != 20 || m.Words != 20 || m.MaxMsgWords != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestHandlerCountMismatch(t *testing.T) {
	if _, err := NewNetwork(graph.Path(3), make([]Handler, 2), Config{}); err == nil {
		t.Fatal("expected handler count error")
	}
}

// inboxOrderNode records sender ids to verify deterministic delivery order.
type inboxOrderNode struct {
	senders []NodeID
}

func (o *inboxOrderNode) Start(n *NodeCtx) {
	if n.ID() != 0 {
		n.Send(0, 1)
	}
}

func (o *inboxOrderNode) HandleRound(n *NodeCtx, inbox []Message) {
	for _, m := range inbox {
		o.senders = append(o.senders, m.From)
	}
	n.Halt()
}

func TestInboxSortedBySender(t *testing.T) {
	g := graph.Star(6) // center 0
	nodes := make([]inboxOrderNode, 6)
	handlers := make([]Handler, 6)
	for i := range handlers {
		handlers[i] = &nodes[i]
	}
	net, _ := NewNetwork(g, handlers, Config{})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	got := nodes[0].senders
	if len(got) != 5 {
		t.Fatalf("center received %d messages, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("inbox not sorted: %v", got)
		}
	}
}

// nonNeighborNode tries an illegal send.
type nonNeighborNode struct{}

func (nonNeighborNode) Start(n *NodeCtx) {
	if n.ID() == 0 {
		n.Send(2, 1) // 0 and 2 are not adjacent on a path 0-1-2
	}
}
func (nonNeighborNode) HandleRound(n *NodeCtx, inbox []Message) { n.Halt() }

func TestNonNeighborSendPanics(t *testing.T) {
	// The illegal send still panics inside the handler, but the engine now
	// contains it and attributes it: Run returns a *RunError for node 0 at
	// round 0 (Start) instead of killing the process.
	g := graph.Path(3)
	net, _ := NewNetwork(g, []Handler{nonNeighborNode{}, nonNeighborNode{}, nonNeighborNode{}}, Config{Workers: 1})
	_, err := net.Run()
	re := AsRunError(err)
	if re == nil {
		t.Fatalf("expected *RunError, got %v", err)
	}
	if re.Node != 0 || re.Round != 0 {
		t.Fatalf("expected failure at node 0 round 0, got node %d round %d", re.Node, re.Round)
	}
	if !strings.Contains(re.Error(), "non-neighbor") {
		t.Fatalf("unexpected cause: %v", re)
	}
	if len(re.Stack) == 0 {
		t.Fatal("expected a captured stack")
	}
}

// bigTalker sends an oversized message.
type bigTalker struct{}

func (bigTalker) Start(n *NodeCtx) {
	if n.ID() == 0 {
		n.SendWords(1, make([]int64, 10))
	}
}
func (bigTalker) HandleRound(n *NodeCtx, inbox []Message) { n.Halt() }

func TestMessageCapAccounting(t *testing.T) {
	g := graph.Path(2)
	net, _ := NewNetwork(g, []Handler{bigTalker{}, bigTalker{}}, Config{MaxMsgWords: 4})
	m, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.CapExceeded != 1 || m.MaxMsgWords != 10 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestMessageCapStrict(t *testing.T) {
	g := graph.Path(2)
	net, _ := NewNetwork(g, []Handler{bigTalker{}, bigTalker{}}, Config{MaxMsgWords: 4, Strict: true})
	if _, err := net.Run(); err == nil {
		t.Fatal("strict cap should error")
	}
}

// chattyNode never stops waking itself.
type chattyNode struct{}

func (chattyNode) Start(n *NodeCtx)                        { n.WakeNextRound() }
func (chattyNode) HandleRound(n *NodeCtx, inbox []Message) { n.WakeNextRound() }

func TestRoundLimit(t *testing.T) {
	g := graph.Path(2)
	net, _ := NewNetwork(g, []Handler{chattyNode{}, chattyNode{}}, Config{MaxRounds: 10})
	if _, err := net.Run(); err == nil {
		t.Fatal("expected round-limit error")
	}
}

// countdownNode wakes itself k times then halts, without ever sending.
type countdownNode struct {
	k       int
	wakeups int
}

func (c *countdownNode) Start(n *NodeCtx) { n.WakeNextRound() }

func (c *countdownNode) HandleRound(n *NodeCtx, inbox []Message) {
	c.wakeups++
	if c.wakeups >= c.k {
		n.Halt()
		return
	}
	n.WakeNextRound()
}

func TestWakeWithoutMessages(t *testing.T) {
	g := graph.Path(2)
	nodes := []countdownNode{{k: 3}, {k: 5}}
	net, _ := NewNetwork(g, []Handler{&nodes[0], &nodes[1]}, Config{})
	m, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if nodes[0].wakeups != 3 || nodes[1].wakeups != 5 {
		t.Fatalf("wakeups = %d,%d", nodes[0].wakeups, nodes[1].wakeups)
	}
	if m.Rounds != 5 {
		t.Fatalf("rounds = %d, want 5", m.Rounds)
	}
	if m.Messages != 0 {
		t.Fatal("no messages expected")
	}
}

func TestBFSMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnp(80, 0.06, rng)
		k := 1 + rng.Intn(4)
		srcSet := map[int32]bool{}
		for len(srcSet) < k {
			srcSet[int32(rng.Intn(g.N()))] = true
		}
		sources := make([]int32, 0, k)
		for s := range srcSet {
			sources = append(sources, s)
		}
		res, err := RunBFS(g, sources, Config{})
		if err != nil {
			t.Fatal(err)
		}
		dist, nearest, _ := g.MultiSourceBFS(sources)
		for v := 0; v < g.N(); v++ {
			if res.Dist[v] != dist[v] {
				t.Fatalf("trial %d: dist[%d] = %d, want %d", trial, v, res.Dist[v], dist[v])
			}
			if res.Nearest[v] != nearest[v] {
				t.Fatalf("trial %d: nearest[%d] = %d, want %d", trial, v, res.Nearest[v], nearest[v])
			}
			if dist[v] > 0 {
				p := res.Parent[v]
				if !g.HasEdge(p, int32(v)) || res.Dist[p] != dist[v]-1 {
					t.Fatalf("trial %d: bad parent %d for %d", trial, p, v)
				}
			}
		}
	}
}

func TestBFSRoundsMatchEccentricity(t *testing.T) {
	g := graph.Path(30)
	res, err := RunBFS(g, []int32{0}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A BFS flood needs ecc rounds to reach the last vertex plus its final
	// announcement round.
	if res.Metrics.Rounds < 29 || res.Metrics.Rounds > 31 {
		t.Fatalf("rounds = %d, want ≈29", res.Metrics.Rounds)
	}
	if res.Metrics.MaxMsgWords != 2 {
		t.Fatalf("BFS must use 2-word messages, got %d", res.Metrics.MaxMsgWords)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := graph.FromEdges(4, [][2]int32{{0, 1}})
	res, err := RunBFS(g, []int32{0}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[1] != 1 || res.Dist[2] != graph.Unreachable || res.Dist[3] != graph.Unreachable {
		t.Fatalf("dist = %v", res.Dist)
	}
}

func TestRunBFSRadiusTruncation(t *testing.T) {
	g := graph.Path(20)
	res, err := RunBFSRadius(g, []int32{0}, 5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 20; v++ {
		want := int32(v)
		if v > 5 {
			want = graph.Unreachable
		}
		if res.Dist[v] != want {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], want)
		}
	}
	// Rounds bounded by the radius (+1 announcement round).
	if res.Metrics.Rounds > 7 {
		t.Fatalf("truncated BFS used %d rounds", res.Metrics.Rounds)
	}
}

func TestRunBFSRadiusMatchesSequentialWithinRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := graph.Gnp(100, 0.05, rng)
	radius := int64(3)
	res, err := RunBFSRadius(g, []int32{4, 40}, radius, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dist, nearest, _ := g.MultiSourceBFS([]int32{4, 40})
	for v := 0; v < g.N(); v++ {
		want, who := dist[v], nearest[v]
		if want == graph.Unreachable || int64(want) > radius {
			want, who = graph.Unreachable, graph.Unreachable
		}
		if res.Dist[v] != want || res.Nearest[v] != who {
			t.Fatalf("v=%d: got (%d,%d), want (%d,%d)", v, res.Dist[v], res.Nearest[v], want, who)
		}
	}
}

// nilHandlerNode exercises networks with some nil handlers (vertices that
// run no protocol).
func TestNilHandlersTolerated(t *testing.T) {
	g := graph.Path(3)
	nodes := []countdownNode{{k: 1}}
	handlers := []Handler{&nodes[0], nil, nil}
	net, err := NewNetwork(g, handlers, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkersExceedingNodes(t *testing.T) {
	g := graph.Path(2)
	nodes := []countdownNode{{k: 2}, {k: 2}}
	net, _ := NewNetwork(g, []Handler{&nodes[0], &nodes[1]}, Config{Workers: 64})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if nodes[0].wakeups != 2 || nodes[1].wakeups != 2 {
		t.Fatal("oversubscribed worker pool misbehaved")
	}
}

func TestHaltedNodeStopsReceiving(t *testing.T) {
	// Node 1 halts in round 1; node 0 keeps sending; node 1's handler must
	// not run again.
	g := graph.Path(2)
	sender := &repeatSender{n: 3}
	stopper := &haltCounter{}
	net, _ := NewNetwork(g, []Handler{sender, stopper}, Config{})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if stopper.invocations != 1 {
		t.Fatalf("halted node handled %d rounds, want 1", stopper.invocations)
	}
}

type repeatSender struct{ n int }

func (r *repeatSender) Start(n *NodeCtx) { n.Send(1, 0); n.WakeNextRound() }
func (r *repeatSender) HandleRound(n *NodeCtx, inbox []Message) {
	r.n--
	if r.n > 0 {
		n.Send(1, 0)
		n.WakeNextRound()
	}
}

type haltCounter struct{ invocations int }

func (h *haltCounter) Start(n *NodeCtx) {}
func (h *haltCounter) HandleRound(n *NodeCtx, inbox []Message) {
	h.invocations++
	n.Halt()
}

func TestBFSDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.Gnp(120, 0.05, rng)
	run := func(workers int) *BFSResult {
		res, err := RunBFS(g, []int32{3, 77}, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	for v := range a.Dist {
		if a.Dist[v] != b.Dist[v] || a.Nearest[v] != b.Nearest[v] || a.Parent[v] != b.Parent[v] {
			t.Fatalf("worker count changed result at v=%d", v)
		}
	}
	if a.Metrics != b.Metrics {
		t.Fatalf("metrics differ: %+v vs %+v", a.Metrics, b.Metrics)
	}
}

// TestMetricsConcurrentReads drives a multi-round flood while another
// goroutine polls Metrics() — the snapshot is atomic, so under -race this
// must be clean and every observed value monotone.
func TestMetricsConcurrentReads(t *testing.T) {
	g := graph.Ring(64)
	nodes := make([]floodNode, 64)
	handlers := make([]Handler, 64)
	for i := range handlers {
		nodes[i] = floodNode{ttl: 32}
		handlers[i] = &nodes[i]
	}
	net, err := NewNetwork(g, handlers, Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var lastWords int64
	go func() {
		defer close(done)
		for {
			m := net.Metrics()
			if m.Words < lastWords {
				t.Errorf("words went backwards: %d -> %d", lastWords, m.Words)
				return
			}
			lastWords = m.Words
			if m.Rounds >= 16 {
				return
			}
			time.Sleep(time.Microsecond)
		}
	}()
	m, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if m.Rounds < 16 || m.Words == 0 {
		t.Fatalf("flood metrics implausible: %+v", m)
	}
}

// floodNode re-broadcasts a decrementing hop counter; the flood dies out
// after ttl rounds.
type floodNode struct{ ttl int64 }

func (f *floodNode) Start(n *NodeCtx) {
	if n.ID() == 0 {
		n.Broadcast(f.ttl)
	}
}

func (f *floodNode) HandleRound(n *NodeCtx, inbox []Message) {
	var maxTTL int64
	for _, m := range inbox {
		if m.Data[0] > maxTTL {
			maxTTL = m.Data[0]
		}
	}
	if maxTTL > 0 {
		n.Broadcast(maxTTL - 1)
	}
}

func TestTraceRounds(t *testing.T) {
	g := graph.Path(10)
	handlers := make([]Handler, 10)
	nodes := make([]bfsPatientNode, 10)
	nodes[0].isSource = true
	for v := range handlers {
		handlers[v] = &nodes[v]
	}
	net, err := NewNetwork(g, handlers, Config{TraceRounds: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	trace := net.Trace()
	if len(trace) != m.Rounds {
		t.Fatalf("trace has %d rounds, metrics says %d", len(trace), m.Rounds)
	}
	var msgs, words int64
	for i, rs := range trace {
		if rs.Round != i+1 {
			t.Fatalf("trace round numbering wrong: %+v", rs)
		}
		msgs += rs.Messages
		words += rs.Words
	}
	if msgs != m.Messages || words != m.Words {
		t.Fatalf("trace totals (%d,%d) != metrics (%d,%d)", msgs, words, m.Messages, m.Words)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	g := graph.Path(3)
	nodes := make([]bfsPatientNode, 3)
	nodes[0].isSource = true
	handlers := []Handler{&nodes[0], &nodes[1], &nodes[2]}
	net, err := NewNetwork(g, handlers, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds == 0 {
		t.Fatal("the run took no rounds")
	}
	if trace := net.Trace(); trace != nil {
		t.Fatalf("trace recorded without TraceRounds: %+v", trace)
	}
}
