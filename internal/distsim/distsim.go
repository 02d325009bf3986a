// Package distsim is the synchronized message-passing substrate every
// distributed algorithm in this module runs on.
//
// The model is the one the paper assumes (Sect. 1.1): the communication
// network is the input graph itself; each vertex hosts a processor with a
// unique id; computation proceeds in synchronized rounds in which every
// processor may send one message to each neighbor; local computation is
// free. Algorithms are compared by (a) the number of rounds and (b) the
// maximum message length, measured in words of O(log n) bits — the paper's
// refinement of Peleg's LOCAL (unbounded) vs CONGEST (unit) dichotomy.
//
// A message here is a []int64 payload; its length in words is its length as
// a slice. The network counts rounds, messages and words, records the
// largest message observed, and (optionally) rejects messages above a
// configured cap so protocol bugs surface as errors instead of silently
// breaking the model.
//
// Execution within a round is parallel: node handlers run on a pool of
// goroutines with a barrier at the round boundary, which is exactly the
// synchronous model. Handlers therefore must not touch any state other than
// their own node's. Delivery order is deterministic (inboxes are sorted by
// sender), so a protocol seeded deterministically produces identical runs.
//
// The engine makes no allocation per message. Send, SendWords and
// Broadcast copy the payload into the sender's word arena for the round;
// an outgoing message is a (to, offset, length) entry into it. Arenas are
// double-buffered: the words sent in round r are read in round r+1 while
// round r+1's sends fill the other buffer, which is then recycled. Inboxes
// are one counting-sorted array per round, indexed by receiver. Hence
// Message.Data, and the inbox slice itself, are valid only during the
// HandleRound call that receives them: a handler that keeps payload words
// past its return must copy them. The buffers can outlive one Network
// (Config.Buffers), so a driver running many engine calls in a row
// allocates them once.
//
// The lossless synchronous model can be perturbed by attaching a seeded
// faults.Plan (Config.Faults): messages are then dropped, duplicated,
// corrupted or delayed, links fail, and nodes crash on a deterministic
// schedule, with every injected fault tallied in Metrics.Faults. Handler
// panics are contained and attributed (*RunError) instead of killing the
// process, and runs can carry a wall-clock deadline and a stalled-round
// detector so a wounded protocol cancels gracefully rather than spinning.
package distsim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spanner/internal/faults"
	"spanner/internal/graph"
	"spanner/internal/obs"
)

// NodeID identifies a processor/vertex.
type NodeID = int32

// Message is a payload delivered along an edge in one round. Data is a
// read-only view valid until the receiving HandleRound returns.
type Message struct {
	From NodeID
	Data []int64
}

// Handler is the per-node protocol logic. Implementations hold all per-node
// state; the engine guarantees that Start and HandleRound for a given node
// never run concurrently with each other, but handlers for different nodes
// run in parallel and must not share mutable state.
type Handler interface {
	// Start runs before the first communication round; the node may send its
	// initial messages through n.
	Start(n *NodeCtx)
	// HandleRound runs once per round with the messages delivered this
	// round, sorted by sender id. It may send messages for the next round.
	// The inbox and every Message.Data in it are reused after it returns.
	HandleRound(n *NodeCtx, inbox []Message)
}

// Metrics aggregates the cost measures of a run. It is a value snapshot;
// the live accumulation inside the Network uses the obs registry's atomic
// counters, so concurrent readers and the worker pool never race.
type Metrics struct {
	Rounds      int   // communication rounds executed
	Messages    int64 // total messages sent
	Words       int64 // total words across all messages
	MaxMsgWords int   // largest single message observed
	CapExceeded int64 // messages that exceeded the configured cap
	// Faults tallies injected faults (all zero when no plan is attached, so
	// fault-free and zero-plan snapshots compare equal).
	Faults faults.Counters
	// Transport is the protocol-level ledger of the reliable transport when
	// one was attached (Config.Transport); the zero value (Wrapped false)
	// means the handlers spoke to the wire directly and Messages/Words above
	// already are the protocol costs.
	Transport TransportStats
}

// Add accumulates other into m (MaxMsgWords maxes, everything else sums) —
// the fold every multi-phase driver performs across engine runs.
func (m *Metrics) Add(other Metrics) {
	m.Rounds += other.Rounds
	m.Messages += other.Messages
	m.Words += other.Words
	if other.MaxMsgWords > m.MaxMsgWords {
		m.MaxMsgWords = other.MaxMsgWords
	}
	m.CapExceeded += other.CapExceeded
	m.Faults.Add(other.Faults)
	m.Transport.Add(other.Transport)
}

// ProtocolMessages is the algorithm's own message count: the transport's
// exactly-once ledger when a reliable layer was attached, the raw engine
// count otherwise.
func (m Metrics) ProtocolMessages() int64 {
	if m.Transport.Wrapped {
		return m.Transport.Messages
	}
	return m.Messages
}

// ProtocolWords is the algorithm's own word count (see ProtocolMessages).
func (m Metrics) ProtocolWords() int64 {
	if m.Transport.Wrapped {
		return m.Transport.Words
	}
	return m.Words
}

// Delivered is the number of messages that reached an inbox: sends plus
// injected duplicates minus every kind of loss. Without faults it equals
// Messages.
func (m Metrics) Delivered() int64 {
	return m.Messages + m.Faults.Duplicated - m.Faults.DroppedTotal()
}

// Trace returns the per-round profile recorded when Config.TraceRounds was
// set (nil otherwise). Valid after Run returns.
func (net *Network) Trace() []RoundStats { return net.trace }

// Config tunes a Network.
type Config struct {
	// MaxMsgWords caps message length in words; 0 means unbounded (LOCAL
	// model). Over-cap sends are counted in Metrics.CapExceeded and, if
	// Strict is set, abort the run with an error.
	MaxMsgWords int
	// Strict makes an over-cap message a fatal protocol error.
	Strict bool
	// MaxRounds aborts runaway protocols; 0 means the engine's default.
	MaxRounds int
	// Workers sets the goroutine pool size; 0 means GOMAXPROCS.
	Workers int
	// GoroutinePerNode runs every node as a long-lived goroutine fed by a
	// channel, one message batch per round — the literal concurrent-process
	// reading of the model. Results and metrics are identical to the
	// default pooled mode (asserted in tests); the pooled mode is faster
	// for large n, this mode maps one-to-one onto the paper's processors.
	GoroutinePerNode bool
	// TraceRounds records per-round message counts and word volumes in
	// Metrics.Trace, for round-profile experiments.
	TraceRounds bool
	// Faults attaches a deterministic fault-injection plan. A nil plan —
	// or one whose IsZero() holds — leaves the run byte-identical to a
	// fault-free run; every injected fault is tallied in Metrics.Faults.
	Faults *faults.Plan
	// Deadline bounds the run's wall clock; past it the run cancels
	// gracefully with a *RunError wrapping ErrDeadline. 0 disables.
	Deadline time.Duration
	// StallRounds aborts the run (with a *RunError wrapping ErrStalled)
	// after this many consecutive rounds in which no message was delivered
	// — a protocol spinning on wake-ups without progress. 0 disables.
	StallRounds int
	// Transport, when non-nil, is the reliable transport session whose
	// wrappers run inside this network. The engine snapshots its protocol-
	// level stats into Metrics.Transport and onto the run span, keeping wire
	// costs and algorithm costs separately legible.
	Transport TransportReporter
	// Checkpoint, when non-nil, persists the full deterministic run state
	// (engine + handler snapshots) every Every rounds into Dir, from which
	// Resume restarts a killed run byte-identically. Handlers must implement
	// Snapshotter.
	Checkpoint *CheckpointConfig
	// Obs attaches an observer: the run is wrapped in a span carrying the
	// final metrics, one "distsim.round" point event is emitted per round,
	// and the totals are mirrored into the registry's distsim.* series.
	Obs *obs.Observer
	// Parent nests the run's span under an enclosing phase span.
	Parent *obs.Span
	// Label overrides the run span's name (default "distsim.run").
	Label string
	// Buffers, when non-nil, supplies the round buffers (payload arenas,
	// inboxes, task lists) and keeps them for the next network that is given
	// the same Buffers, so a driver running many engine calls over one graph
	// allocates them once. Nil gives the network buffers of its own.
	Buffers *Buffers
}

// RoundStats is one round's communication volume (with TraceRounds set).
type RoundStats struct {
	Round    int
	Messages int64
	Words    int64
}

// Network executes a Handler per vertex of a graph in synchronized rounds.
type Network struct {
	g        *graph.Graph
	cfg      Config
	handlers []Handler
	nodes    []NodeCtx
	trace    []RoundStats

	// Round buffers; segs[wp] is where this step's sends land.
	bufs *Buffers
	wp   int

	// Fault injection (nil when Config.Faults is nil or zero, keeping the
	// fault-free path untouched).
	inj          *faults.Injector
	pending      map[int][]pendingMsg // due round -> delayed deliveries
	pendingCount int

	// First contained failure of the run (handler panic); the smallest
	// node id of the barrier wins so the attribution is deterministic.
	errMu  sync.Mutex
	runErr *RunError

	// Live metric cells (atomic), consistent under any execution mode.
	rounds      int64
	messages    int64
	words       int64
	maxMsgWords int64
	capExceeded int64

	// Fault tallies (atomic; only written from the serial delivery loop but
	// read by concurrent Metrics snapshots).
	fDropped      int64
	fDroppedLink  int64
	fDroppedCrash int64
	fDuplicated   int64
	fCorrupted    int64
	fDelayed      int64

	// Registry mirrors (nil-safe no-ops when no observer is attached).
	regRounds      *obs.Counter
	regMessages    *obs.Counter
	regWords       *obs.Counter
	regCapExceeded *obs.Counter
	regMaxMsg      *obs.Gauge
	regFaults      *obs.Counter

	// goroutine-per-node plumbing (GoroutinePerNode mode).
	taskIn []chan nodeTask
	nodeWG sync.WaitGroup

	// Resume state: when > 0 the network was built by Resume and Run skips
	// Start, continuing the loop at this round with restored engine state.
	resumeRound int
	stallStreak int
}

// pendingMsg is one delivery: a message and its receiver. Delayed ones wait
// in Network.pending; a faulted round lists its deliveries in Buffers.deliv.
type pendingMsg struct {
	to  NodeID
	msg Message
}

// DefaultMaxRounds bounds runs whose Config.MaxRounds is zero.
const DefaultMaxRounds = 1 << 20

// NewNetwork creates a network over g where node v runs handlers[v].
func NewNetwork(g *graph.Graph, handlers []Handler, cfg Config) (*Network, error) {
	return newNetwork(g, handlers, cfg, true)
}

// newNetwork is NewNetwork with control over injector creation: Resume
// position-restores the injector from the checkpoint instead of consuming a
// fresh run from the plan.
func newNetwork(g *graph.Graph, handlers []Handler, cfg Config, makeInjector bool) (*Network, error) {
	if len(handlers) != g.N() {
		return nil, fmt.Errorf("distsim: %d handlers for %d vertices", len(handlers), g.N())
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	bufs := cfg.Buffers
	if bufs == nil {
		bufs = new(Buffers)
	}
	// One writer segment per pool worker, or per node when every node runs
	// on a goroutine of its own.
	writers := cfg.Workers
	if cfg.GoroutinePerNode {
		writers = g.N()
	}
	bufs.prepare(g.N(), max(writers, 1))
	net := &Network{
		g:        g,
		cfg:      cfg,
		handlers: handlers,
		nodes:    bufs.nodes,
		bufs:     bufs,
	}
	if makeInjector {
		net.inj = cfg.Faults.NewInjector()
	}
	if reg := cfg.Obs.Registry(); reg != nil {
		net.regRounds = reg.Counter("distsim.rounds")
		net.regMessages = reg.Counter("distsim.messages")
		net.regWords = reg.Counter("distsim.words")
		net.regCapExceeded = reg.Counter("distsim.cap_exceeded")
		net.regMaxMsg = reg.Gauge("distsim.max_msg_words")
		if net.inj != nil {
			net.regFaults = reg.Counter("distsim.faults.injected")
		}
	}
	for v := range net.nodes {
		net.nodes[v] = NodeCtx{id: NodeID(v), net: net, seg: &bufs.segs[0][0]}
	}
	return net, nil
}

// NodeCtx is the API a handler uses to interact with the network. It is
// bound to one node and must not be retained across rounds by other nodes.
type NodeCtx struct {
	id     NodeID
	net    *Network
	seg    *segment // where this invocation's sends land
	halted bool
	awake  bool // request another round even without sending

	// Interceptor plumbing (SetInterceptor in transport.go): while non-nil,
	// sends/halt/wake are captured instead of reaching the engine.
	icept    SendInterceptor
	iceptCap int
}

// outMsg is one sent message: its payload is words[off:off+n] of the
// segment that holds the entry.
type outMsg struct {
	from, to NodeID
	n        int32
	off      int
}

// ID returns the node's identity (equal to its vertex id).
func (n *NodeCtx) ID() NodeID { return n.id }

// Degree returns the node's degree in the communication graph.
func (n *NodeCtx) Degree() int { return n.net.g.Degree(n.id) }

// Neighbors returns the node's neighbor ids. The slice is shared and
// read-only.
func (n *NodeCtx) Neighbors() []NodeID { return n.net.g.Neighbors(n.id) }

// N returns the number of nodes in the network. Knowing n (or an upper
// bound) is a standard assumption in this model.
func (n *NodeCtx) N() int { return n.net.g.N() }

// Send transmits data to a neighbor in the next round. The payload is
// copied, so the caller may reuse data at once. Sending to a non-neighbor
// panics: the communication graph is the input graph by definition of the
// model, so such a send is a protocol bug.
func (n *NodeCtx) Send(to NodeID, data ...int64) {
	n.SendWords(to, data)
}

// SendWords is Send for a pre-built payload slice (copied like Send's).
func (n *NodeCtx) SendWords(to NodeID, data []int64) {
	if !n.net.g.HasEdge(n.id, to) {
		panic(fmt.Sprintf("distsim: node %d sent to non-neighbor %d", n.id, to))
	}
	off := n.store(data)
	if n.icept != nil {
		n.icept.InterceptSend(to, n.view(off, len(data)))
		return
	}
	n.seg.out = append(n.seg.out, outMsg{from: n.id, to: to, n: int32(len(data)), off: off})
}

// Broadcast sends the same payload to every neighbor; the words are stored
// once and every neighbor's message views them.
func (n *NodeCtx) Broadcast(data ...int64) {
	off := n.store(data)
	if n.icept != nil {
		view := n.view(off, len(data))
		for _, v := range n.Neighbors() {
			n.icept.InterceptSend(v, view)
		}
		return
	}
	for _, v := range n.Neighbors() {
		n.seg.out = append(n.seg.out, outMsg{from: n.id, to: v, n: int32(len(data)), off: off})
	}
}

// store copies a payload into the node's segment and returns its offset.
func (n *NodeCtx) store(data []int64) int {
	off := len(n.seg.words)
	n.seg.words = append(n.seg.words, data...)
	return off
}

// view is the stored payload at off, capped so an append by a reader
// cannot overwrite the words after it.
func (n *NodeCtx) view(off, length int) []int64 {
	return n.seg.words[off : off+length : off+length]
}

// Halt marks the node finished; its handler will not be called again.
func (n *NodeCtx) Halt() {
	if n.icept != nil {
		n.icept.InterceptHalt()
		return
	}
	n.halted = true
}

// WakeNextRound asks the engine to run another round for this node even if
// no message is in flight to it (used by protocols with silent countdowns).
func (n *NodeCtx) WakeNextRound() {
	if n.icept != nil {
		n.icept.InterceptWake()
		return
	}
	n.awake = true
}

// MaxMsgWords returns the configured message cap (0 = unbounded) so
// protocols can adapt their chunk sizes to the model. Under an interceptor
// it reports the transport's protocol-level cap instead of the wire cap.
func (n *NodeCtx) MaxMsgWords() int {
	if n.icept != nil {
		return n.iceptCap
	}
	return n.net.cfg.MaxMsgWords
}

// nodeTask is one handler invocation dispatched to a node.
type nodeTask struct {
	v     int
	start bool
	inbox []Message
}

// Run executes the protocol until every node has halted, no messages are in
// flight and no node requested wake-up, or until the round limit is hit.
// It returns the metrics of the run.
//
// Failures never escape as panics: a panicking handler is recovered and
// attributed (*RunError with its node and round), run-health aborts
// (deadline, stall, round limit, strict cap) drain deterministically first,
// and in every error path the returned Metrics reconcile with the emitted
// trace.
func (net *Network) Run() (Metrics, error) {
	nVerts := net.g.N()
	var span *obs.Span
	if net.cfg.Obs != nil {
		label := net.cfg.Label
		if label == "" {
			label = "distsim.run"
		}
		if net.cfg.Parent != nil {
			span = net.cfg.Parent.Child(label, obs.I("n", int64(nVerts)))
		} else {
			span = net.cfg.Obs.StartSpan(label, obs.I("n", int64(nVerts)))
		}
		defer func() {
			m := net.Metrics()
			attrs := []obs.Attr{
				obs.I(obs.AttrRounds, int64(m.Rounds)), obs.I(obs.AttrMessages, m.Messages),
				obs.I(obs.AttrWords, m.Words), obs.I(obs.AttrMaxMsgWords, int64(m.MaxMsgWords)),
				obs.I(obs.AttrCapExceeded, m.CapExceeded),
			}
			if net.inj != nil {
				attrs = append(attrs,
					obs.I(obs.AttrFaults, m.Faults.Total()),
					obs.I(obs.AttrFaultsDropped, m.Faults.DroppedTotal()),
					obs.I(obs.AttrFaultsDuplicated, m.Faults.Duplicated),
					obs.I(obs.AttrFaultsCorrupted, m.Faults.Corrupted),
					obs.I(obs.AttrFaultsDelayed, m.Faults.Delayed))
			}
			if m.Transport.Wrapped {
				attrs = append(attrs,
					obs.I(obs.AttrTransportMessages, m.Transport.Messages),
					obs.I(obs.AttrTransportWords, m.Transport.Words),
					obs.I(obs.AttrTransportVRounds, int64(m.Transport.VirtualRounds)),
					obs.I(obs.AttrTransportRetransmits, m.Transport.Retransmits),
					obs.I(obs.AttrTransportAcks, m.Transport.Acks),
					obs.I(obs.AttrTransportAbandoned, m.Transport.LinksAbandoned))
			}
			span.End(attrs...)
		}()
	}
	if net.cfg.GoroutinePerNode {
		net.startNodeGoroutines()
		defer net.stopNodeGoroutines()
	}
	startTime := time.Now()
	firstRound := 1
	if net.resumeRound > 0 {
		// Resumed run: engine and handler state were restored by Resume;
		// Start already ran in the original execution.
		firstRound = net.resumeRound
	} else {
		if err := net.checkpointable(); err != nil {
			return net.Metrics(), err
		}
		// Round 0: Start on every node (crashed nodes never boot).
		tasks := net.bufs.tasks[:0]
		for v := 0; v < nVerts; v++ {
			if net.handlers[v] == nil || net.inj.Crashed(int32(v), 0) {
				continue
			}
			tasks = append(tasks, nodeTask{v: v, start: true})
		}
		net.bufs.tasks = tasks
		net.dispatch(tasks)
		if err := net.takeRunErr(); err != nil {
			return net.Metrics(), err
		}
	}
	stallStreak := net.stallStreak
	for round := firstRound; ; round++ {
		if cc := net.cfg.Checkpoint; cc != nil && cc.Every > 0 && round > 1 &&
			round > net.resumeRound && (round-1)%cc.Every == 0 {
			net.stallStreak = stallStreak
			if err := net.writeCheckpoint(round); err != nil {
				return net.Metrics(), fmt.Errorf("distsim: checkpoint at round %d: %w", round, err)
			}
		}
		if round > net.cfg.MaxRounds {
			return net.Metrics(), fmt.Errorf("distsim: exceeded %d rounds", net.cfg.MaxRounds)
		}
		if net.cfg.Deadline > 0 && time.Since(startTime) > net.cfg.Deadline {
			return net.Metrics(), &RunError{Node: NoNode, Round: round, Cause: ErrDeadline}
		}
		// Deliver: delayed messages due this round first, then the sends of
		// the last step in sender order, sorted into per-receiver inboxes.
		t := net.deliver(round)
		anyAwake := false
		for v := 0; v < nVerts && !anyAwake; v++ {
			node := &net.nodes[v]
			anyAwake = node.awake && !node.halted && !net.inj.Crashed(int32(v), round)
		}
		if t.messages == 0 && t.delivered == 0 && net.pendingCount == 0 && !anyAwake {
			return net.Metrics(), nil
		}
		atomic.StoreInt64(&net.rounds, int64(round))
		net.regRounds.Inc()
		span.Event(obs.RoundEventName, obs.I("round", int64(round)),
			obs.I(obs.AttrMessages, t.messages), obs.I(obs.AttrWords, t.words))
		if net.cfg.TraceRounds {
			net.trace = append(net.trace, RoundStats{Round: round, Messages: t.messages, Words: t.words})
		}
		if t.err != nil {
			return net.Metrics(), t.err
		}
		if t.delivered == 0 {
			stallStreak++
			if net.cfg.StallRounds > 0 && stallStreak >= net.cfg.StallRounds {
				return net.Metrics(), &RunError{Node: NoNode, Round: round, Cause: ErrStalled}
			}
		} else {
			stallStreak = 0
		}
		// Step: run handlers for nodes with input or wake-ups; their sends
		// go to the other arena while this round's inboxes view this one.
		net.wp ^= 1
		net.bufs.resetSegments(net.wp)
		tasks := net.bufs.tasks[:0]
		for v := 0; v < nVerts; v++ {
			node := &net.nodes[v]
			if node.halted || net.handlers[v] == nil {
				continue
			}
			if net.inj.Crashed(int32(v), round) {
				continue // down this round; awake survives for recovery
			}
			inbox := net.bufs.inbox(v)
			if len(inbox) == 0 && !node.awake {
				continue
			}
			node.awake = false
			tasks = append(tasks, nodeTask{v: v, inbox: inbox})
		}
		net.bufs.tasks = tasks
		net.dispatch(tasks)
		if err := net.takeRunErr(); err != nil {
			return net.Metrics(), err
		}
	}
}

// roundTally is one round's delivery: the sends it accounted, the copies
// that reached an inbox, and the strict-cap error if one was hit.
type roundTally struct {
	messages, words int64
	maxWords        int64
	capExceeded     int64
	delivered       int
	err             error
}

// deliver drains the last step's sends (and the delayed messages due this
// round) into this round's inboxes and publishes the round's accounting
// once. Serial and in sender order, so fault fates are drawn in the same
// order under every execution mode.
func (net *Network) deliver(round int) roundTally {
	var t roundTally
	b := net.bufs
	segs := b.segs[net.wp]
	if net.inj == nil {
		for s := range segs {
			for _, o := range segs[s].out {
				net.tally(&t, o.n)
			}
		}
		t.delivered = int(t.messages)
		b.fillFromSegments(segs)
		net.publish(t)
		return t
	}
	deliv := b.deliv[:0]
	if net.pendingCount > 0 {
		if due := net.pending[round]; len(due) > 0 {
			delete(net.pending, round)
			net.pendingCount -= len(due)
			for _, d := range due {
				if net.inj.Crashed(int32(d.to), round) {
					atomic.AddInt64(&net.fDroppedCrash, 1)
					net.regFaults.Inc()
					continue
				}
				deliv = append(deliv, d)
			}
		}
	}
	for s := range segs {
		seg := &segs[s]
		for _, o := range seg.out {
			net.tally(&t, o.n)
			end := o.off + int(o.n)
			deliv = net.deliverFaulty(deliv, round, o.to, Message{From: o.from, Data: seg.words[o.off:end:end]})
		}
	}
	b.deliv = deliv
	t.delivered = len(deliv)
	b.fillFromDeliveries(deliv)
	net.publish(t)
	return t
}

// tally accounts one sent message of n words and applies the cap. A
// strict-cap violation is recorded, not returned, so the round keeps
// draining and Metrics reconcile with the trace on that error path too.
func (net *Network) tally(t *roundTally, n int32) {
	words := int64(n)
	t.messages++
	t.words += words
	t.maxWords = max(t.maxWords, words)
	if limit := int64(net.cfg.MaxMsgWords); limit > 0 && words > limit {
		t.capExceeded++
		if net.cfg.Strict && t.err == nil {
			t.err = fmt.Errorf("distsim: message of %d words exceeds cap %d", words, limit)
		}
	}
}

// publish adds one round's tallies to the live metric cells.
func (net *Network) publish(t roundTally) {
	if t.messages == 0 {
		return
	}
	atomic.AddInt64(&net.messages, t.messages)
	atomic.AddInt64(&net.words, t.words)
	if t.maxWords > atomic.LoadInt64(&net.maxMsgWords) {
		atomic.StoreInt64(&net.maxMsgWords, t.maxWords)
	}
	net.regMessages.Add(t.messages)
	net.regWords.Add(t.words)
	net.regMaxMsg.SetMax(t.maxWords)
	if t.capExceeded > 0 {
		atomic.AddInt64(&net.capExceeded, t.capExceeded)
		net.regCapExceeded.Add(t.capExceeded)
	}
}

// deliverFaulty applies the fault plan to one drained message, appending
// the copies that land this round to deliv.
func (net *Network) deliverFaulty(deliv []pendingMsg, round int, to NodeID, msg Message) []pendingMsg {
	switch {
	case net.inj.LinkFailed(int32(msg.From), int32(to)):
		atomic.AddInt64(&net.fDroppedLink, 1)
		net.regFaults.Inc()
		return deliv
	case net.inj.Crashed(int32(to), round):
		atomic.AddInt64(&net.fDroppedCrash, 1)
		net.regFaults.Inc()
		return deliv
	}
	fate := net.inj.Fate()
	if fate.Drop {
		atomic.AddInt64(&net.fDropped, 1)
		net.regFaults.Inc()
		return deliv
	}
	if fate.Corrupt {
		msg.Data = net.inj.CorruptWord(msg.Data)
		atomic.AddInt64(&net.fCorrupted, 1)
		net.regFaults.Inc()
	}
	if fate.Copies > 1 {
		atomic.AddInt64(&net.fDuplicated, int64(fate.Copies-1))
		net.regFaults.Inc()
	}
	if fate.DelayRounds > 0 {
		atomic.AddInt64(&net.fDelayed, int64(fate.Copies))
		net.regFaults.Inc()
		if net.pending == nil {
			net.pending = make(map[int][]pendingMsg)
		}
		// The arena the payload lives in is recycled before the due round.
		msg.Data = slices.Clone(msg.Data)
		due := round + fate.DelayRounds
		for c := 0; c < fate.Copies; c++ {
			net.pending[due] = append(net.pending[due], pendingMsg{to: to, msg: msg})
		}
		net.pendingCount += fate.Copies
		return deliv
	}
	for c := 0; c < fate.Copies; c++ {
		deliv = append(deliv, pendingMsg{to: to, msg: msg})
	}
	return deliv
}

// dispatch runs the tasks either on the worker pool or on the per-node
// goroutines, blocking until every handler has returned (the synchronous
// round barrier).
func (net *Network) dispatch(tasks []nodeTask) {
	if net.cfg.GoroutinePerNode {
		segs := net.bufs.segs[net.wp]
		net.nodeWG.Add(len(tasks))
		for _, t := range tasks {
			net.nodes[t.v].seg = &segs[t.v]
			net.taskIn[t.v] <- t
		}
		net.nodeWG.Wait()
		return
	}
	net.parallelTasks(tasks)
}

// runTask invokes one handler, containing any panic: the failure is
// recorded with node and round attribution instead of killing the process
// (and, in goroutine-per-node mode, instead of deadlocking the barrier).
func (net *Network) runTask(t nodeTask) {
	defer func() {
		if r := recover(); r != nil {
			net.recordPanic(t.v, r)
		}
	}()
	if t.start {
		net.handlers[t.v].Start(&net.nodes[t.v])
		return
	}
	net.handlers[t.v].HandleRound(&net.nodes[t.v], t.inbox)
}

// recordPanic keeps the failure with the smallest node id of the barrier,
// so the attribution is deterministic under parallel execution.
func (net *Network) recordPanic(v int, cause any) {
	re := &RunError{
		Node:  NodeID(v),
		Round: int(atomic.LoadInt64(&net.rounds)),
		Cause: fmt.Errorf("panic: %v", cause),
		Stack: debug.Stack(),
	}
	net.errMu.Lock()
	if net.runErr == nil || re.Node < net.runErr.Node {
		net.runErr = re
	}
	net.errMu.Unlock()
}

// takeRunErr returns the contained failure of the last barrier, if any.
func (net *Network) takeRunErr() error {
	net.errMu.Lock()
	defer net.errMu.Unlock()
	if net.runErr == nil {
		return nil
	}
	return net.runErr
}

// startNodeGoroutines launches one goroutine per vertex, each consuming
// tasks from its channel until shutdown.
func (net *Network) startNodeGoroutines() {
	n := net.g.N()
	net.taskIn = make([]chan nodeTask, n)
	for v := 0; v < n; v++ {
		net.taskIn[v] = make(chan nodeTask, 1)
		go func(ch chan nodeTask) {
			for t := range ch {
				net.runTask(t)
				net.nodeWG.Done()
			}
		}(net.taskIn[v])
	}
}

// stopNodeGoroutines shuts the per-node goroutines down and waits for them
// to exit (no goroutine outlives Run).
func (net *Network) stopNodeGoroutines() {
	for _, ch := range net.taskIn {
		close(ch)
	}
	net.taskIn = nil
}

// parallelTasks applies the tasks on the worker pool. Worker w takes the
// w-th contiguous chunk and sends into segment w, so reading the segments
// in order visits the senders in ascending order.
func (net *Network) parallelTasks(tasks []nodeTask) {
	segs := net.bufs.segs[net.wp]
	workers := net.cfg.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, t := range tasks {
			net.nodes[t.v].seg = &segs[0]
			net.runTask(t)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (len(tasks) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(tasks) {
			hi = len(tasks)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(part []nodeTask, seg *segment) {
			defer wg.Done()
			for _, t := range part {
				net.nodes[t.v].seg = seg
				net.runTask(t)
			}
		}(tasks[lo:hi], &segs[w])
	}
	wg.Wait()
}

// Metrics returns a snapshot of the metrics accumulated so far. It is safe
// to call concurrently with a running protocol.
func (net *Network) Metrics() Metrics {
	var ts TransportStats
	if net.cfg.Transport != nil {
		ts = net.cfg.Transport.TransportStats()
		ts.Wrapped = true
	}
	return Metrics{
		Transport:   ts,
		Rounds:      int(atomic.LoadInt64(&net.rounds)),
		Messages:    atomic.LoadInt64(&net.messages),
		Words:       atomic.LoadInt64(&net.words),
		MaxMsgWords: int(atomic.LoadInt64(&net.maxMsgWords)),
		CapExceeded: atomic.LoadInt64(&net.capExceeded),
		Faults: faults.Counters{
			Dropped:      atomic.LoadInt64(&net.fDropped),
			DroppedLink:  atomic.LoadInt64(&net.fDroppedLink),
			DroppedCrash: atomic.LoadInt64(&net.fDroppedCrash),
			Duplicated:   atomic.LoadInt64(&net.fDuplicated),
			Corrupted:    atomic.LoadInt64(&net.fCorrupted),
			Delayed:      atomic.LoadInt64(&net.fDelayed),
		},
	}
}
