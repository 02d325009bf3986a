package reliable

import "spanner/internal/distsim"

// Wire format. Every transport message is a flat word slice whose last word
// is distsim.ChecksumWords of everything before it; a corrupted word — the
// faults.Plan flips at least one bit somewhere — fails the check and the
// message is discarded, to be recovered by retransmission. The tag words
// are far outside the small non-negative ranges inner protocols use, so a
// corrupted payload can't masquerade as a transport frame.
//
//	batch: [tagBatch, seq, lastActive, cumAck, k, k×(len, words...), checksum]
//	ack:   [tagAck, cumAck, checksum]
//	beat:  [tagBeat, lastActive, checksum]
//
// seq is the batch's virtual round (batches on a link are born in seq
// order, so it doubles as the per-link sequence number); cumAck is the
// highest seq below which the sender has received every batch of the
// reverse direction. A heartbeat is a blocked node's sign of life: it
// resets the receiver's patience timer, so a node stalled behind a dead
// link is not mistaken for dead by its live neighbors (which would cascade
// abandonment through healthy links).

const (
	tagBatch int64 = -1001
	tagAck   int64 = -1002
	tagBeat  int64 = -1003
)

// checksumOK verifies the footer of a received frame.
func checksumOK(w []int64) bool {
	if len(w) < 2 {
		return false
	}
	return distsim.ChecksumWords(w[:len(w)-1]) == w[len(w)-1]
}

// appendBatch appends the wire image of one link batch to dst.
func appendBatch(dst []int64, seq, lastActive, cumAck int64, payloads [][]int64) []int64 {
	start := len(dst)
	dst = append(dst, tagBatch, seq, lastActive, cumAck, int64(len(payloads)))
	for _, p := range payloads {
		dst = append(dst, int64(len(p)))
		dst = append(dst, p...)
	}
	return append(dst, distsim.ChecksumWords(dst[start:]))
}

// controlFrame is an ack or heartbeat frame, built in place: SendWords
// copies its words, so one buffer per node serves every control send.
type controlFrame [3]int64

// encode fills f with [tag, word, checksum] and returns it as a slice.
func (f *controlFrame) encode(tag, word int64) []int64 {
	f[0], f[1] = tag, word
	f[2] = distsim.ChecksumWords(f[:2])
	return f[:]
}

// batchFrame is a decoded link batch.
type batchFrame struct {
	seq        int64
	lastActive int64
	cumAck     int64
	payloads   [][]int64
}

// decodeBatch parses a checksum-verified batch frame. The payload slices
// alias the wire slice, so they are valid only while the wire message is
// (see clonePayloads).
func decodeBatch(w []int64) (batchFrame, bool) {
	if len(w) < 6 {
		return batchFrame{}, false
	}
	f := batchFrame{seq: w[1], lastActive: w[2], cumAck: w[3]}
	k := w[4]
	if k < 0 || k > int64(len(w)) {
		return batchFrame{}, false
	}
	pos := 5
	f.payloads = make([][]int64, 0, k)
	for i := int64(0); i < k; i++ {
		if pos >= len(w)-1 {
			return batchFrame{}, false
		}
		l := w[pos]
		pos++
		if l < 0 || pos+int(l) > len(w)-1 {
			return batchFrame{}, false
		}
		f.payloads = append(f.payloads, w[pos:pos+int(l)])
		pos += int(l)
	}
	if pos != len(w)-1 {
		return batchFrame{}, false
	}
	return f, true
}

// clonePayloads copies decoded payloads into one fresh backing array.
func clonePayloads(ps [][]int64) [][]int64 {
	size := 0
	for _, p := range ps {
		size += len(p)
	}
	words := make([]int64, 0, size)
	out := make([][]int64, len(ps))
	for i, p := range ps {
		words = append(words, p...)
		out[i] = words[len(words)-len(p) : len(words) : len(words)]
	}
	return out
}
