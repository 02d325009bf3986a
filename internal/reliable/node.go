package reliable

import (
	"sort"
	"sync/atomic"

	"spanner/internal/distsim"
)

// node is the per-vertex reliable wrapper: a distsim.Handler whose inner
// handler believes it is running on the lossless synchronous network.
type node struct {
	sess  *Session
	inner distsim.Handler
	id    distsim.NodeID

	ctx *distsim.NodeCtx // valid only during Start/HandleRound

	tick int64 // invocations observed (≈ engine rounds while awake)
	vr   int64 // next inner virtual round to execute (0 = Start pending)
	la   int64 // latest known inner activity vround, network-wide (-1 none)

	innerHalted bool
	innerAwake  bool
	started     bool

	neighbors []distsim.NodeID // sorted
	links     map[distsim.NodeID]*link
	rng       uint64 // splitmix jitter state
	lastBeat  int64  // tick of the last heartbeat broadcast

	capture map[distsim.NodeID][][]int64 // inner sends of the current invocation
	ctl     controlFrame                 // ack/heartbeat scratch, copied by SendWords

	// Ledger cells (atomic: Session.TransportStats reads them while the
	// engine barrier has other wrappers running).
	stInnerMsgs     int64
	stInnerWords    int64
	stDelivered     int64
	stMaxMsgWords   int64
	stCapExceeded   int64
	stVRounds       int64
	stRetransmits   int64
	stAcks          int64
	stHeartbeats    int64
	stDupBatches    int64
	stChecksumDrops int64
}

// link is the per-neighbor reliable channel state.
type link struct {
	// Sender side: batches sent but not yet covered by a cumulative ack,
	// in seq order, with their wire images back to back in wires. Acks
	// retire batches from the front, so the slab is compacted by one copy
	// of the survivors and keeps its capacity.
	pending []pendingBatch
	wires   []int64
	// Receiver side: out-of-order buffer and the cumulative high-water mark
	// (every batch with seq <= recvContig has been received).
	recvBuf    map[int64][][]int64
	recvContig int64
	// waitTicks counts ticks spent blocked on this link's next batch; past
	// PeerPatience the peer is presumed dead and the link abandoned.
	waitTicks int
	abandoned bool
}

// pendingBatch is one unacked batch awaiting retransmission or ack.
type pendingBatch struct {
	seq     int64
	words   int // length of its wire image in the link's slab
	retries int
	rto     int
	due     int64 // tick at which the next resend fires
}

// Start boots the wrapper: runs the inner Start under the interceptor,
// ships the round-0 batches, and tries to advance (an isolated node runs
// its whole quiescence countdown here).
func (n *node) Start(ctx *distsim.NodeCtx) {
	n.ctx = ctx
	n.bootstrap()
	n.pump()
	n.ctx = nil
}

// bootstrap initializes the link state and runs the inner Start. A node
// crashed through round 0 never gets Start from the engine; it boots late
// here on its first delivery, and the synchronizer absorbs the delay.
func (n *node) bootstrap() {
	n.neighbors = append([]distsim.NodeID(nil), n.ctx.Neighbors()...)
	sort.Slice(n.neighbors, func(i, j int) bool { return n.neighbors[i] < n.neighbors[j] })
	n.links = make(map[distsim.NodeID]*link, len(n.neighbors))
	for _, w := range n.neighbors {
		n.links[w] = &link{recvBuf: make(map[int64][][]int64), recvContig: -1}
	}
	n.rng = splitmix(uint64(n.sess.policy.Seed) ^ (uint64(uint32(n.id)) * 0x9e3779b97f4a7c15))
	n.started = true

	n.invokeInner(true, nil)
	n.shipBatches() // vround-0 batches (possibly empty)
	n.vr = 1
}

// HandleRound ingests wire traffic, advances virtual rounds as gating
// allows, retransmits due batches and decides whether to stay awake.
func (n *node) HandleRound(ctx *distsim.NodeCtx, inbox []distsim.Message) {
	n.ctx = ctx
	if !n.started {
		n.bootstrap()
	}
	n.tick++
	for _, m := range inbox {
		n.receive(m)
	}
	n.pump()
	n.ctx = nil
}

// receive dispatches one wire message.
func (n *node) receive(m distsim.Message) {
	lk := n.links[m.From]
	if lk == nil || lk.abandoned {
		return // not a live link (abandoned peers are ignored entirely)
	}
	if !checksumOK(m.Data) {
		atomic.AddInt64(&n.stChecksumDrops, 1)
		return
	}
	switch m.Data[0] {
	case tagBatch:
		f, ok := decodeBatch(m.Data)
		if !ok {
			atomic.AddInt64(&n.stChecksumDrops, 1)
			return
		}
		lk.waitTicks = 0
		if f.lastActive > n.la {
			// Watermark updates on receipt (not on consumption) so activity
			// news travels at wire speed and revives quiesced regions.
			n.la = f.lastActive
		}
		n.applyAck(lk, f.cumAck)
		if _, seen := lk.recvBuf[f.seq]; seen || f.seq <= lk.recvContig {
			atomic.AddInt64(&n.stDupBatches, 1)
		} else {
			// The wire words are valid only during this HandleRound; the
			// batch waits for its virtual round, so it keeps a copy.
			lk.recvBuf[f.seq] = clonePayloads(f.payloads)
			for {
				if _, ok := lk.recvBuf[lk.recvContig+1]; !ok {
					break
				}
				lk.recvContig++
			}
		}
		// Always (re-)ack: the previous ack may have been lost, and the
		// sender retransmits until one lands.
		n.ctx.SendWords(m.From, n.ctl.encode(tagAck, lk.recvContig))
		atomic.AddInt64(&n.stAcks, 1)
	case tagAck:
		n.applyAck(lk, m.Data[1])
	case tagBeat:
		lk.waitTicks = 0
		if m.Data[1] > n.la {
			n.la = m.Data[1]
		}
	default:
		atomic.AddInt64(&n.stChecksumDrops, 1)
	}
}

// applyAck retires every pending batch the cumulative ack covers.
func (n *node) applyAck(lk *link, cumAck int64) {
	i, words := 0, 0
	for i < len(lk.pending) && lk.pending[i].seq <= cumAck {
		words += lk.pending[i].words
		i++
	}
	if i > 0 {
		// Shift the survivors down so both slices keep their capacity.
		lk.pending = lk.pending[:copy(lk.pending, lk.pending[i:])]
		lk.wires = lk.wires[:copy(lk.wires, lk.wires[words:])]
	}
}

// pump is the per-invocation state machine: advance while gating allows,
// spend patience on silent peers (then advance again), retransmit, and
// request another engine round while there is anything left to drive.
func (n *node) pump() {
	n.advance()
	if n.patience() {
		n.advance()
	}
	n.retransmit()
	n.heartbeat()
	if !n.quiesced() || n.hasPending() {
		n.ctx.WakeNextRound()
	}
}

// heartbeat reassures live neighbors while this node is blocked (and thus
// sending no batches): without it, a stall behind one dead link would trip
// the patience timers of healthy links and cascade abandonment.
func (n *node) heartbeat() {
	if n.quiesced() || n.ready() || n.tick-n.lastBeat < int64(n.sess.policy.Heartbeat) {
		return
	}
	n.lastBeat = n.tick
	wire := n.ctl.encode(tagBeat, n.la)
	for _, w := range n.neighbors {
		if !n.links[w].abandoned {
			n.ctx.SendWords(w, wire)
			atomic.AddInt64(&n.stHeartbeats, 1)
		}
	}
}

// quiesced reports whether the protocol has been silent for Slack virtual
// rounds as of this node's clock. Recomputed every time — a fresher
// watermark revives the node.
func (n *node) quiesced() bool {
	return n.vr-1 > n.la+int64(n.sess.policy.Slack)
}

// ready reports whether every live neighbor's batch for the next virtual
// round has arrived.
func (n *node) ready() bool {
	for _, w := range n.neighbors {
		lk := n.links[w]
		if !lk.abandoned && lk.recvContig < n.vr-1 {
			return false
		}
	}
	return true
}

// advance executes virtual rounds while gating allows.
func (n *node) advance() {
	for !n.quiesced() && n.ready() {
		n.executeVRound()
	}
}

// executeVRound assembles the inner inbox for vround vr, runs the inner
// handler under the engine's own gating rules, and ships the next batches.
func (n *node) executeVRound() {
	var inbox []distsim.Message
	for _, w := range n.neighbors {
		lk := n.links[w]
		if lk.abandoned {
			continue
		}
		payloads := lk.recvBuf[n.vr-1]
		delete(lk.recvBuf, n.vr-1)
		for _, p := range payloads {
			inbox = append(inbox, distsim.Message{From: w, Data: p})
		}
	}
	// Delivery is counted at inbox assembly — the moment the engine would
	// have appended to the real inbox — so the exactly-once ledger matches
	// engine semantics even for messages to halted nodes.
	atomic.AddInt64(&n.stDelivered, int64(len(inbox)))
	n.invokeInner(false, inbox)
	n.shipBatches()
	n.vr++
	atomic.StoreInt64(&n.stVRounds, n.vr-1)
}

// invokeInner runs the inner handler (Start or HandleRound) under the send
// interceptor, applying the engine's skip rules, and accounts activity.
func (n *node) invokeInner(start bool, inbox []distsim.Message) {
	if n.capture == nil {
		n.capture = make(map[distsim.NodeID][][]int64)
	}
	if !n.innerHalted && (start || len(inbox) > 0 || n.innerAwake) {
		n.innerAwake = false
		n.ctx.SetInterceptor(n, n.sess.policy.InnerCap)
		if start {
			n.inner.Start(n.ctx)
		} else {
			n.inner.HandleRound(n.ctx, inbox)
		}
		n.ctx.SetInterceptor(nil, 0)
		if len(n.capture) > 0 || n.innerAwake {
			if n.vr > n.la {
				n.la = n.vr
			}
		}
	}
}

// InterceptSend captures one inner protocol send (distsim.SendInterceptor).
func (n *node) InterceptSend(to distsim.NodeID, data []int64) {
	atomic.AddInt64(&n.stInnerMsgs, 1)
	atomic.AddInt64(&n.stInnerWords, int64(len(data)))
	if int64(len(data)) > atomic.LoadInt64(&n.stMaxMsgWords) {
		atomic.StoreInt64(&n.stMaxMsgWords, int64(len(data)))
	}
	if limit := n.sess.policy.InnerCap; limit > 0 && len(data) > limit {
		atomic.AddInt64(&n.stCapExceeded, 1)
	}
	n.capture[to] = append(n.capture[to], data)
}

// InterceptHalt captures the inner handler halting.
func (n *node) InterceptHalt() { n.innerHalted = true }

// InterceptWake captures the inner handler's wake-up request.
func (n *node) InterceptWake() { n.innerAwake = true }

// shipBatches encodes the captured sends of virtual round vr into one batch
// per live link — empty batches included, they carry the gating token — and
// puts each on the wire and on the retransmission queue.
func (n *node) shipBatches() {
	for _, w := range n.neighbors {
		lk := n.links[w]
		if lk.abandoned {
			continue
		}
		start := len(lk.wires)
		lk.wires = appendBatch(lk.wires, n.vr, n.la, lk.recvContig, n.capture[w])
		rto := n.sess.policy.InitialRTO
		lk.pending = append(lk.pending, pendingBatch{
			seq:   n.vr,
			words: len(lk.wires) - start,
			rto:   rto,
			due:   n.tick + int64(rto) + n.jitter(),
		})
		n.ctx.SendWords(w, lk.wires[start:])
	}
	clear(n.capture)
}

// retransmit resends every due pending batch with exponential backoff, and
// abandons links whose retry budget is spent.
func (n *node) retransmit() {
	for _, w := range n.neighbors {
		lk := n.links[w]
		if lk.abandoned {
			continue
		}
		off := 0
		for i := range lk.pending {
			p := &lk.pending[i]
			wire := lk.wires[off : off+p.words]
			off += p.words
			if p.due > n.tick {
				continue
			}
			if p.retries >= n.sess.policy.MaxRetries {
				n.abandon(w, lk)
				break
			}
			p.retries++
			p.rto *= 2
			if p.rto > n.sess.policy.MaxRTO {
				p.rto = n.sess.policy.MaxRTO
			}
			p.due = n.tick + int64(p.rto) + n.jitter()
			n.ctx.SendWords(w, wire)
			atomic.AddInt64(&n.stRetransmits, 1)
		}
	}
}

// patience charges one tick against every link blocking the next virtual
// round and abandons those past the budget. Returns whether any link was
// abandoned (the caller then re-tries advancing).
func (n *node) patience() bool {
	if n.quiesced() || n.ready() {
		return false
	}
	gaveUp := false
	for _, w := range n.neighbors {
		lk := n.links[w]
		if lk.abandoned || lk.recvContig >= n.vr-1 {
			continue
		}
		lk.waitTicks++
		if lk.waitTicks > n.sess.policy.PeerPatience {
			n.abandon(w, lk)
			gaveUp = true
		}
	}
	return gaveUp
}

// abandon gives up on a link: its unacked batches (and any inner messages
// inside them) are dropped, it no longer gates virtual rounds, and the
// session records it for the degradation report.
func (n *node) abandon(w distsim.NodeID, lk *link) {
	lk.abandoned = true
	lk.pending, lk.wires = nil, nil
	lk.recvBuf = nil
	n.sess.reportAbandoned(n.id, w)
}

// hasPending reports whether any live link still has unacked batches.
func (n *node) hasPending() bool {
	for _, lk := range n.links {
		if !lk.abandoned && len(lk.pending) > 0 {
			return true
		}
	}
	return false
}

// jitter draws 0..Jitter from the node's splitmix stream.
func (n *node) jitter() int64 {
	n.rng = splitmix(n.rng)
	return int64(n.rng % uint64(n.sess.policy.Jitter+1))
}
