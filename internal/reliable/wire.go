package reliable

// Wire format. Every transport message is a flat word slice whose last word
// is an FNV-1a checksum of everything before it; a corrupted word — the
// faults.Plan flips at least one bit somewhere — fails the check and the
// message is discarded, to be recovered by retransmission. The tag words
// are far outside the small non-negative ranges inner protocols use, so a
// corrupted payload can't masquerade as a transport frame.
//
//	batch: [tagBatch, seq, lastActive, cumAck, k, k×(len, words...), checksum]
//	ack:   [tagAck, cumAck, checksum]
//
// seq is the batch's virtual round (batches on a link are born in seq
// order, so it doubles as the per-link sequence number); cumAck is the
// highest seq below which the sender has received every batch of the
// reverse direction.

const (
	tagBatch int64 = -1001
	tagAck   int64 = -1002
	tagBeat  int64 = -1003
)

// fnvWords folds FNV-1a over a word slice.
func fnvWords(words []int64) int64 {
	h := uint64(1469598103934665603)
	for _, w := range words {
		for shift := 0; shift < 64; shift += 8 {
			h ^= uint64(byte(uint64(w) >> shift))
			h *= 1099511628211
		}
	}
	return int64(h)
}

// seal appends the checksum footer.
func seal(w []int64) []int64 { return append(w, fnvWords(w)) }

// checksumOK verifies the footer of a received frame.
func checksumOK(w []int64) bool {
	if len(w) < 2 {
		return false
	}
	return fnvWords(w[:len(w)-1]) == w[len(w)-1]
}

// encodeBatch builds the wire image of one link batch.
func encodeBatch(seq, lastActive, cumAck int64, payloads [][]int64) []int64 {
	size := 5
	for _, p := range payloads {
		size += 1 + len(p)
	}
	w := make([]int64, 0, size+1)
	w = append(w, tagBatch, seq, lastActive, cumAck, int64(len(payloads)))
	for _, p := range payloads {
		w = append(w, int64(len(p)))
		w = append(w, p...)
	}
	return seal(w)
}

// encodeAck builds a standalone cumulative acknowledgement.
func encodeAck(cumAck int64) []int64 {
	return seal([]int64{tagAck, cumAck})
}

// encodeBeat builds a heartbeat: a blocked node's sign of life, carrying the
// activity watermark. It resets the receiver's patience timer so a node
// stalled behind a dead link is not mistaken for dead by its live neighbors
// (which would cascade abandonment through healthy links).
func encodeBeat(lastActive int64) []int64 {
	return seal([]int64{tagBeat, lastActive})
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
