package distsim

// Engine-level fault-injection tests: zero-plan identity, per-kind fault
// accounting, crash windows, panic containment at every worker count,
// run-health aborts (deadline, stall) and the strict-cap drain guarantee
// that Metrics reconcile with the emitted trace even on the error path.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"spanner/internal/faults"
	"spanner/internal/graph"
	"spanner/internal/obs"
)

// TestZeroPlanByteIdentical is the acceptance property of the fault layer:
// attaching an all-zero plan must leave a seeded run byte-identical to a run
// with no plan at all — same results, same Metrics (fault tallies included).
func TestZeroPlanByteIdentical(t *testing.T) {
	g := graph.Gnp(150, 0.05, rand.New(rand.NewSource(9)))
	run := func(plan *faults.Plan) *BFSResult {
		res, err := RunBFS(g, []int32{2, 71}, Config{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(nil)
	b := run(&faults.Plan{Seed: 1234}) // zero rates: injects nothing
	if a.Metrics != b.Metrics {
		t.Fatalf("metrics differ: %+v vs %+v", a.Metrics, b.Metrics)
	}
	if !b.Metrics.Faults.IsZero() {
		t.Fatalf("zero plan injected faults: %+v", b.Metrics.Faults)
	}
	for v := range a.Dist {
		if a.Dist[v] != b.Dist[v] || a.Nearest[v] != b.Nearest[v] || a.Parent[v] != b.Parent[v] {
			t.Fatalf("zero plan changed the result at v=%d", v)
		}
	}
}

func TestFaultDropEverything(t *testing.T) {
	g := graph.Complete(4)
	nodes := make([]pingNode, 4)
	handlers := make([]Handler, 4)
	for i := range handlers {
		handlers[i] = &nodes[i]
	}
	net, _ := NewNetwork(g, handlers, Config{Faults: &faults.Plan{Seed: 3, Drop: 1}})
	m, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Messages != 12 || m.Faults.Dropped != 12 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Delivered() != 0 {
		t.Fatalf("Delivered() = %d, want 0", m.Delivered())
	}
	for i := range nodes {
		if nodes[i].received != 0 {
			t.Fatalf("node %d received %d through a total blackout", i, nodes[i].received)
		}
	}
}

func TestFaultDuplicateEverything(t *testing.T) {
	g := graph.Complete(4)
	nodes := make([]pingNode, 4)
	handlers := make([]Handler, 4)
	for i := range handlers {
		handlers[i] = &nodes[i]
	}
	net, _ := NewNetwork(g, handlers, Config{Faults: &faults.Plan{Seed: 3, Duplicate: 1}})
	m, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Messages != 12 || m.Faults.Duplicated != 12 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Delivered() != 24 {
		t.Fatalf("Delivered() = %d, want 24", m.Delivered())
	}
	for i := range nodes {
		if nodes[i].received != 6 { // 3 neighbors, each message twice
			t.Fatalf("node %d received %d, want 6", i, nodes[i].received)
		}
	}
}

func TestFaultDelayHoldsDelivery(t *testing.T) {
	g := graph.Path(2)
	nodes := make([]pingNode, 2)
	net, _ := NewNetwork(g, []Handler{&nodes[0], &nodes[1]},
		Config{Faults: &faults.Plan{Seed: 3, Delay: 1, DelayRounds: 2}})
	m, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Faults.Delayed != 2 || m.Messages != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	// Sent for round 1, held 2 rounds, delivered at round 3.
	if m.Rounds < 3 {
		t.Fatalf("rounds = %d, want >= 3", m.Rounds)
	}
	if nodes[0].received != 1 || nodes[1].received != 1 {
		t.Fatalf("delayed messages lost: %d,%d", nodes[0].received, nodes[1].received)
	}
}

func TestFaultLinkFailure(t *testing.T) {
	g := graph.Path(3)
	nodes := make([]pingNode, 3)
	net, _ := NewNetwork(g, []Handler{&nodes[0], &nodes[1], &nodes[2]},
		Config{Faults: &faults.Plan{Seed: 3, Links: [][2]int32{{0, 1}}}})
	m, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Path 0-1-2 sends 4 messages; the two crossing the failed link die.
	if m.Messages != 4 || m.Faults.DroppedLink != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if nodes[0].received != 0 || nodes[1].received != 1 || nodes[2].received != 1 {
		t.Fatalf("received = %d,%d,%d", nodes[0].received, nodes[1].received, nodes[2].received)
	}
}

func TestFaultCrashStopBeforeStart(t *testing.T) {
	g := graph.Path(3)
	nodes := make([]pingNode, 3)
	net, _ := NewNetwork(g, []Handler{&nodes[0], &nodes[1], &nodes[2]},
		Config{Faults: &faults.Plan{Seed: 3, Crashes: []faults.Crash{{Node: 1, From: 0}}}})
	m, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 never boots: it sends nothing, and both messages to it drop.
	if m.Messages != 2 || m.Faults.DroppedCrash != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if nodes[1].received != 0 {
		t.Fatalf("crashed node received %d", nodes[1].received)
	}
}

// crashSender sends one message per round for rounds rounds.
type crashSender struct{ rounds int }

func (c *crashSender) Start(n *NodeCtx) { n.Send(1, 1); n.WakeNextRound() }
func (c *crashSender) HandleRound(n *NodeCtx, inbox []Message) {
	c.rounds--
	if c.rounds > 0 {
		n.Send(1, 1)
		n.WakeNextRound()
	}
}

// crashReceiver counts deliveries without ever halting.
type crashReceiver struct{ received int }

func (c *crashReceiver) Start(n *NodeCtx) {}
func (c *crashReceiver) HandleRound(n *NodeCtx, inbox []Message) {
	c.received += len(inbox)
}

func TestFaultCrashRecover(t *testing.T) {
	g := graph.Path(2)
	sender := &crashSender{rounds: 5}
	receiver := &crashReceiver{}
	// Receiver down for rounds [1,3): deliveries at rounds 1 and 2 are lost
	// to the window; rounds 3, 4, 5 land after recovery.
	net, _ := NewNetwork(g, []Handler{sender, receiver},
		Config{Faults: &faults.Plan{Seed: 3, Crashes: []faults.Crash{{Node: 1, From: 1, Until: 3}}}})
	m, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Faults.DroppedCrash != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if receiver.received != 3 {
		t.Fatalf("recovered node received %d, want 3", receiver.received)
	}
}

// payloadKeeper broadcasts a shared payload slice and keeps a copy of
// every payload it receives.
type payloadKeeper struct {
	payload []int64
	got     [][]int64
}

func (p *payloadKeeper) Start(n *NodeCtx) {
	if n.ID() == 0 {
		n.SendWords(1, p.payload)
		n.SendWords(2, p.payload)
	}
}
func (p *payloadKeeper) HandleRound(n *NodeCtx, inbox []Message) {
	for _, m := range inbox {
		p.got = append(p.got, append([]int64(nil), m.Data...))
	}
	n.Halt()
}

func TestFaultCorruptLeavesSenderBufferIntact(t *testing.T) {
	g := graph.Star(3) // center 0 adjacent to 1 and 2
	original := []int64{42, 43, 44}
	nodes := []payloadKeeper{{payload: append([]int64(nil), original...)}, {}, {}}
	net, _ := NewNetwork(g, []Handler{&nodes[0], &nodes[1], &nodes[2]},
		Config{Faults: &faults.Plan{Seed: 3, Corrupt: 1}})
	m, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Faults.Corrupted != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	for i, w := range nodes[0].payload {
		if w != original[i] {
			t.Fatalf("sender buffer was scrambled: %v", nodes[0].payload)
		}
	}
	for _, leaf := range []int{1, 2} {
		if len(nodes[leaf].got) != 1 {
			t.Fatalf("leaf %d received %d messages", leaf, len(nodes[leaf].got))
		}
		same := true
		for i, w := range nodes[leaf].got[0] {
			if w != original[i] {
				same = false
			}
		}
		if same {
			t.Fatalf("corruption with p=1 delivered an intact payload to leaf %d", leaf)
		}
	}
}

// TestFaultDeterminismAndReset: two fresh identical plans inject identical
// faults, and Reset rewinds a plan's per-run stream.
func TestFaultDeterminismAndReset(t *testing.T) {
	g := graph.Gnp(100, 0.06, rand.New(rand.NewSource(5)))
	mkPlan := func() *faults.Plan {
		return &faults.Plan{Seed: 77, Drop: 0.2, Duplicate: 0.1, Corrupt: 0.05, Delay: 0.1, DelayRounds: 2}
	}
	run := func(p *faults.Plan) faults.Counters {
		res, err := RunBFS(g, []int32{0}, Config{Faults: p})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Faults
	}
	p := mkPlan()
	first := run(p)
	if first.IsZero() {
		t.Fatal("plan injected nothing; the test is vacuous")
	}
	if fresh := run(mkPlan()); fresh != first {
		t.Fatalf("fresh identical plan diverged: %+v vs %+v", fresh, first)
	}
	p.Reset()
	if replay := run(p); replay != first {
		t.Fatalf("Reset did not replay the stream: %+v vs %+v", replay, first)
	}
}

// panicOnce panics in HandleRound for the configured nodes.
type panicOnce struct{ doomed bool }

func (p *panicOnce) Start(n *NodeCtx) { n.Broadcast(1) }
func (p *panicOnce) HandleRound(n *NodeCtx, inbox []Message) {
	if p.doomed {
		panic("protocol bug")
	}
	n.Halt()
}

// TestPanicContainedAtEveryWorkerCount: at Workers 1 the handlers run
// inline in id order; at 2 the two doomed nodes fall on different workers,
// at 4 on one worker, one after the other.
func TestPanicContainedAtEveryWorkerCount(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := graph.Complete(5)
			handlers := make([]Handler, 5)
			for i := range handlers {
				handlers[i] = &panicOnce{doomed: i == 2 || i == 3}
			}
			net, _ := NewNetwork(g, handlers, Config{Workers: workers})
			_, err := net.Run()
			re := AsRunError(err)
			if re == nil {
				t.Fatalf("expected *RunError, got %v", err)
			}
			// Both node 2 and node 3 panic in the same barrier; the smallest
			// id wins so the attribution is deterministic.
			if re.Node != 2 || re.Round != 1 {
				t.Fatalf("attributed to node %d round %d, want node 2 round 1", re.Node, re.Round)
			}
		})
	}
}

func TestDeadlineCancelsRun(t *testing.T) {
	g := graph.Ring(32)
	nodes := make([]floodNode, 32)
	handlers := make([]Handler, 32)
	for i := range handlers {
		nodes[i] = floodNode{ttl: 1 << 30}
		handlers[i] = &nodes[i]
	}
	net, _ := NewNetwork(g, handlers, Config{Deadline: time.Nanosecond, MaxRounds: 1 << 30})
	_, err := net.Run()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expected ErrDeadline, got %v", err)
	}
	re := AsRunError(err)
	if re == nil || re.Node != NoNode {
		t.Fatalf("deadline must not be attributed to a node: %+v", re)
	}
}

func TestStallDetectorCancelsRun(t *testing.T) {
	g := graph.Path(2)
	net, _ := NewNetwork(g, []Handler{chattyNode{}, chattyNode{}}, Config{StallRounds: 4})
	m, err := net.Run()
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("expected ErrStalled, got %v", err)
	}
	if m.Rounds != 4 {
		t.Fatalf("stalled after %d rounds, want 4", m.Rounds)
	}
}

// capMixer sends one legal and one oversized message in the same round.
type capMixer struct{}

func (capMixer) Start(n *NodeCtx) {
	switch n.ID() {
	case 0:
		n.SendWords(1, make([]int64, 10)) // over the cap: aborts a strict run
	case 2:
		n.Send(1, 7, 8) // legal 2-word message
	}
}
func (capMixer) HandleRound(n *NodeCtx, inbox []Message) { n.Halt() }

// TestStrictCapDrainReconciles asserts the strict-cap error path drains the
// round deterministically: every outbox of the failing round is accounted,
// the round itself is counted, and the per-round trace events sum to exactly
// the Metrics the run returns — the same triple-accounting contract the
// success path has.
func TestStrictCapDrainReconciles(t *testing.T) {
	g := graph.Path(3)
	mem := obs.NewMemorySink()
	ob := obs.New(mem)
	net, _ := NewNetwork(g, []Handler{capMixer{}, capMixer{}, capMixer{}},
		Config{MaxMsgWords: 4, Strict: true, TraceRounds: true, Obs: ob})
	m, err := net.Run()
	if err == nil {
		t.Fatal("strict cap should abort the run")
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	// Both messages of the failing round were drained and accounted.
	if m.Rounds != 1 || m.Messages != 2 || m.Words != 12 || m.CapExceeded != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	// Accounting 1: Trace() rows.
	var trMsgs, trWords int64
	for _, r := range net.Trace() {
		trMsgs += r.Messages
		trWords += r.Words
	}
	if len(net.Trace()) != m.Rounds || trMsgs != m.Messages || trWords != m.Words {
		t.Fatalf("trace rows (n=%d m=%d w=%d) != metrics %+v", len(net.Trace()), trMsgs, trWords, m)
	}
	// Accounting 2: the obs round events and the run span's end attributes.
	var evMsgs, evWords, spanMsgs, spanCap int64
	rounds := 0
	for _, e := range mem.Events() {
		switch {
		case e.Name == obs.RoundEventName:
			rounds++
			for _, a := range e.Attrs {
				switch a.Key {
				case obs.AttrMessages:
					evMsgs += a.Int()
				case obs.AttrWords:
					evWords += a.Int()
				}
			}
		case e.Type == obs.SpanEnd && e.Name == "distsim.run":
			for _, a := range e.Attrs {
				switch a.Key {
				case obs.AttrMessages:
					spanMsgs = a.Int()
				case obs.AttrCapExceeded:
					spanCap = a.Int()
				}
			}
		}
	}
	if rounds != m.Rounds || evMsgs != m.Messages || evWords != m.Words {
		t.Fatalf("round events (n=%d m=%d w=%d) != metrics %+v", rounds, evMsgs, evWords, m)
	}
	if spanMsgs != m.Messages || spanCap != m.CapExceeded {
		t.Fatalf("run span end (m=%d cap=%d) != metrics %+v", spanMsgs, spanCap, m)
	}
}

// TestStallDetectorSparesProgress: a protocol that keeps delivering messages
// must never trip the detector, however long it runs.
func TestStallDetectorSparesProgress(t *testing.T) {
	g := graph.Path(2)
	sender := &crashSender{rounds: 20}
	receiver := &crashReceiver{}
	net, _ := NewNetwork(g, []Handler{sender, receiver}, Config{StallRounds: 2})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if receiver.received != 20 {
		t.Fatalf("received %d, want 20", receiver.received)
	}
}
