package reliable

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"spanner/internal/distsim"
)

// Checkpointing of a wrapped run: the wrapper is itself a
// distsim.Snapshotter, chaining the inner handler's snapshot behind the
// transport state (virtual clock, watermark, per-link retransmission queues
// and reorder buffers, ledger cells), so reliable transport and
// round-boundary checkpointing compose.

// Checkpointable reports whether the wrapped handler can snapshot itself
// (the engine probes this before enabling checkpoints).
func (n *node) Checkpointable() error {
	if _, ok := n.inner.(distsim.Snapshotter); !ok {
		return fmt.Errorf("reliable: inner handler %T does not implement Snapshotter", n.inner)
	}
	return nil
}

// Snapshot serializes the wrapper and, behind it, the inner handler.
func (n *node) Snapshot() []int64 {
	w := make([]int64, 0, 64)
	flags := int64(0)
	if n.innerHalted {
		flags |= 1
	}
	if n.innerAwake {
		flags |= 2
	}
	if n.started {
		flags |= 4
	}
	w = append(w, n.tick, n.vr, n.la, flags, int64(n.rng), n.lastBeat)
	w = append(w,
		atomic.LoadInt64(&n.stInnerMsgs), atomic.LoadInt64(&n.stInnerWords),
		atomic.LoadInt64(&n.stDelivered), atomic.LoadInt64(&n.stMaxMsgWords),
		atomic.LoadInt64(&n.stCapExceeded), atomic.LoadInt64(&n.stVRounds),
		atomic.LoadInt64(&n.stRetransmits), atomic.LoadInt64(&n.stAcks),
		atomic.LoadInt64(&n.stHeartbeats),
		atomic.LoadInt64(&n.stDupBatches), atomic.LoadInt64(&n.stChecksumDrops))
	w = append(w, int64(len(n.neighbors)))
	for _, nb := range n.neighbors {
		lk := n.links[nb]
		w = append(w, int64(nb))
		lf := int64(0)
		if lk.abandoned {
			lf |= 1
		}
		w = append(w, lf, lk.recvContig, int64(lk.waitTicks), int64(len(lk.pending)))
		off := 0
		for _, p := range lk.pending {
			w = append(w, p.seq, int64(p.retries), int64(p.rto), p.due, int64(p.words))
			w = append(w, lk.wires[off:off+p.words]...)
			off += p.words
		}
		seqs := make([]int64, 0, len(lk.recvBuf))
		for s := range lk.recvBuf {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		w = append(w, int64(len(seqs)))
		for _, s := range seqs {
			payloads := lk.recvBuf[s]
			w = append(w, s, int64(len(payloads)))
			for _, p := range payloads {
				w = append(w, int64(len(p)))
				w = append(w, p...)
			}
		}
	}
	inner := n.inner.(distsim.Snapshotter).Snapshot()
	w = append(w, int64(len(inner)))
	w = append(w, inner...)
	return w
}

// Restore rebuilds the wrapper (and inner handler) from a snapshot.
func (n *node) Restore(state []int64) error {
	r := distsim.NewSnapshotReader("reliable: snapshot", state)
	n.tick = r.Next()
	n.vr = r.Next()
	n.la = r.Next()
	flags := r.Next()
	n.innerHalted = flags&1 != 0
	n.innerAwake = flags&2 != 0
	n.started = flags&4 != 0
	n.rng = uint64(r.Next())
	n.lastBeat = r.Next()
	for _, cell := range []*int64{&n.stInnerMsgs, &n.stInnerWords, &n.stDelivered,
		&n.stMaxMsgWords, &n.stCapExceeded, &n.stVRounds, &n.stRetransmits, &n.stAcks,
		&n.stHeartbeats, &n.stDupBatches, &n.stChecksumDrops} {
		atomic.StoreInt64(cell, r.Next())
	}
	// A link takes at least 6 words (neighbor, flags, recvContig, waitTicks
	// and the two counts), a pending batch 5, a buffered sequence 2.
	nNb := r.Count(6)
	n.neighbors = make([]distsim.NodeID, 0, nNb)
	n.links = make(map[distsim.NodeID]*link, nNb)
	for range nNb {
		nb := distsim.NodeID(r.Next())
		n.neighbors = append(n.neighbors, nb)
		lk := &link{recvBuf: make(map[int64][][]int64)}
		lf := r.Next()
		lk.abandoned = lf&1 != 0
		lk.recvContig = r.Next()
		lk.waitTicks = int(r.Next())
		for range r.Count(5) {
			p := pendingBatch{seq: r.Next(), retries: int(r.Next()), rto: int(r.Next()), due: r.Next()}
			wire := r.Slice()
			p.words = len(wire)
			lk.wires = append(lk.wires, wire...)
			lk.pending = append(lk.pending, p)
		}
		for range r.Count(2) {
			seq := r.Next()
			k := r.Count(1)
			payloads := make([][]int64, 0, k)
			for range k {
				payloads = append(payloads, slices.Clone(r.Slice()))
			}
			lk.recvBuf[seq] = payloads
		}
		if lk.abandoned {
			lk.recvBuf = nil
			n.sess.reportAbandoned(n.id, nb)
		}
		n.links[nb] = lk
	}
	snap, ok := n.inner.(distsim.Snapshotter)
	if !ok {
		return fmt.Errorf("reliable: inner handler %T does not implement Snapshotter", n.inner)
	}
	inner := slices.Clone(r.Slice())
	if r.Err() != nil {
		return r.Err()
	}
	return snap.Restore(inner)
}
