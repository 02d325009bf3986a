package reliable

import (
	"fmt"
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
	r := snapCursor{buf: state}
	n.tick = r.next()
	n.vr = r.next()
	n.la = r.next()
	flags := r.next()
	n.innerHalted = flags&1 != 0
	n.innerAwake = flags&2 != 0
	n.started = flags&4 != 0
	n.rng = uint64(r.next())
	n.lastBeat = r.next()
	atomic.StoreInt64(&n.stInnerMsgs, r.next())
	atomic.StoreInt64(&n.stInnerWords, r.next())
	atomic.StoreInt64(&n.stDelivered, r.next())
	atomic.StoreInt64(&n.stMaxMsgWords, r.next())
	atomic.StoreInt64(&n.stCapExceeded, r.next())
	atomic.StoreInt64(&n.stVRounds, r.next())
	atomic.StoreInt64(&n.stRetransmits, r.next())
	atomic.StoreInt64(&n.stAcks, r.next())
	atomic.StoreInt64(&n.stHeartbeats, r.next())
	atomic.StoreInt64(&n.stDupBatches, r.next())
	atomic.StoreInt64(&n.stChecksumDrops, r.next())
	nNb := int(r.next())
	n.neighbors = make([]distsim.NodeID, 0, nNb)
	n.links = make(map[distsim.NodeID]*link, nNb)
	for i := 0; i < nNb; i++ {
		nb := distsim.NodeID(r.next())
		n.neighbors = append(n.neighbors, nb)
		lk := &link{recvBuf: make(map[int64][][]int64)}
		lf := r.next()
		lk.abandoned = lf&1 != 0
		lk.recvContig = r.next()
		lk.waitTicks = int(r.next())
		nPend := int(r.next())
		for j := 0; j < nPend; j++ {
			p := pendingBatch{seq: r.next(), retries: int(r.next()), rto: int(r.next()), due: r.next()}
			wire := r.slice()
			p.words = len(wire)
			lk.wires = append(lk.wires, wire...)
			lk.pending = append(lk.pending, p)
		}
		nBuf := int(r.next())
		for j := 0; j < nBuf; j++ {
			seq := r.next()
			k := int(r.next())
			payloads := make([][]int64, 0, k)
			for x := 0; x < k; x++ {
				payloads = append(payloads, append([]int64(nil), r.slice()...))
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
	inner := append([]int64(nil), r.slice()...)
	if r.err != nil {
		return r.err
	}
	return snap.Restore(inner)
}

// snapCursor is a bounds-checked reader over a snapshot word stream.
type snapCursor struct {
	buf []int64
	pos int
	err error
}

func (r *snapCursor) next() int64 {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.err = fmt.Errorf("reliable: truncated snapshot (offset %d)", r.pos)
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

func (r *snapCursor) slice() []int64 {
	l := r.next()
	if r.err != nil {
		return nil
	}
	if l < 0 || r.pos+int(l) > len(r.buf) {
		r.err = fmt.Errorf("reliable: corrupt snapshot length %d at offset %d", l, r.pos)
		return nil
	}
	s := r.buf[r.pos : r.pos+int(l)]
	r.pos += int(l)
	return s
}
