package distsim

import (
	"cmp"
	"slices"
)

// Buffers holds a network's round buffers: the node contexts, the
// double-buffered payload arenas the handlers send into, the delivery list
// and the per-receiver inboxes, and the task list. The zero value is ready.
// Passing one Buffers to the successive networks of a build (through
// Config.Buffers) makes every network after the first run without growing
// them; the buffers go away with the Buffers. A Buffers serves one running
// network at a time.
type Buffers struct {
	nodes []NodeCtx
	// segs[p][w] is writer w's segment of arena p. Sends of one step land in
	// one arena, while the inboxes being read view the other.
	segs  [2][]segment
	deliv []pendingMsg // this round's deliveries in arrival order
	msgs  []Message    // the deliveries grouped by receiver
	start []int32      // node v's inbox is msgs[start[v]:start[v+1]]
	fill  []int32      // counting-sort cursors
	tasks []nodeTask
}

// segment is one writer's share of a step: the payload words sent and the
// messages that index them.
type segment struct {
	words []int64
	out   []outMsg
}

// prepare sizes the buffers for n nodes and the given number of writer
// segments and empties them, keeping their capacity.
func (b *Buffers) prepare(n, writers int) {
	if len(b.nodes) != n {
		b.nodes = make([]NodeCtx, n)
		b.start = make([]int32, n+1)
		b.fill = make([]int32, n)
	}
	for p := range b.segs {
		if len(b.segs[p]) != writers {
			b.segs[p] = make([]segment, writers)
		}
		b.resetSegments(p)
	}
	clear(b.start)
}

// resetSegments empties arena p for the next step's sends.
func (b *Buffers) resetSegments(p int) {
	for w := range b.segs[p] {
		b.segs[p][w].words = b.segs[p][w].words[:0]
		b.segs[p][w].out = b.segs[p][w].out[:0]
	}
}

// inbox is node v's inbox of the current round, capped so an append by the
// handler cannot reach the next node's messages.
func (b *Buffers) inbox(v int) []Message {
	lo, hi := b.start[v], b.start[v+1]
	return b.msgs[lo:hi:hi]
}

// fillFromSegments groups a fault-free round's sends by receiver with a
// counting sort. The segments hold the sends in sender order and the sort
// is stable, so every inbox comes out sorted by sender without sorting.
func (b *Buffers) fillFromSegments(segs []segment) {
	start := b.start
	clear(start)
	total := 0
	for s := range segs {
		for _, o := range segs[s].out {
			start[o.to+1]++
		}
		total += len(segs[s].out)
	}
	b.countsToOffsets(total)
	fill := b.fill
	for s := range segs {
		seg := &segs[s]
		for _, o := range seg.out {
			end := o.off + int(o.n)
			b.msgs[fill[o.to]] = Message{From: o.from, Data: seg.words[o.off:end:end]}
			fill[o.to]++
		}
	}
}

// fillFromDeliveries groups a faulted round's deliveries by receiver. The
// delayed messages due this round come first, so each inbox is then
// sorted stably by sender.
func (b *Buffers) fillFromDeliveries(deliv []pendingMsg) {
	start := b.start
	clear(start)
	for _, d := range deliv {
		start[d.to+1]++
	}
	b.countsToOffsets(len(deliv))
	fill := b.fill
	for _, d := range deliv {
		b.msgs[fill[d.to]] = d.msg
		fill[d.to]++
	}
	for v := 0; v+1 < len(start); v++ {
		if in := b.msgs[start[v]:start[v+1]]; len(in) > 1 {
			slices.SortStableFunc(in, func(x, y Message) int { return cmp.Compare(x.From, y.From) })
		}
	}
}

// countsToOffsets turns the per-receiver counts in start[v+1] into inbox
// offsets, sizes msgs for total messages and points the fill cursors at
// each inbox's first slot.
func (b *Buffers) countsToOffsets(total int) {
	start := b.start
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
	b.msgs = slices.Grow(b.msgs[:0], total)[:total]
	copy(b.fill, start)
}
