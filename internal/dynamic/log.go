package dynamic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"spanner/internal/graph"
)

// The update log is an append-only sequence of checksummed segments, one
// per batch. A torn tail (crash mid-append) loses at most the last segment:
// readers return the longest valid prefix plus a typed error. Layout per
// segment, as little-endian int64 words:
//
//	logMagic | seq | count | count × (op<<opShift | edgeKey) | fnv footer
//
// The footer checksums every preceding word of the segment. Edge keys
// occupy the low 62 bits (they pack two int32s), leaving the top bits for
// the op.
const (
	logMagic int64 = 0x3147_4c55_4e41_5053 // "SPANULG1" little-endian
	opShift        = 62
	keyMask  int64 = (1 << opShift) - 1
)

// Typed update-log errors. ReadLog returns the valid prefix alongside any
// of these, so a torn tail degrades to replaying fewer batches, never to
// replaying garbage.
var (
	ErrLogTruncated = errors.New("dynamic: truncated update log")
	ErrLogChecksum  = errors.New("dynamic: update log checksum mismatch")
	ErrLogMagic     = errors.New("dynamic: bad update log magic")
	ErrLogOrder     = errors.New("dynamic: update log segments out of order")
	ErrLogCorrupt   = errors.New("dynamic: corrupt update log")
)

// fnvWords is FNV-1a over the little-endian bytes of each word, the
// footer of every update log segment.
func fnvWords(words []int64) int64 {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	h := uint64(offset)
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], uint64(w))
		for _, c := range b {
			h ^= uint64(c)
			h *= prime
		}
	}
	return int64(h)
}

// LogWriter appends checksummed batch segments to an update log file.
type LogWriter struct {
	f   *os.File
	seq int64
}

// CreateLog creates (or truncates) an update log at path.
func CreateLog(path string) (*LogWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dynamic: create update log: %w", err)
	}
	return &LogWriter{f: f}, nil
}

// segmentWords encodes one batch as its checksummed segment words — the
// unit Append writes and the recovery path re-encodes to prove a salvaged
// prefix is byte-identical to what the writer put down.
func segmentWords(seq int64, b Batch) ([]int64, error) {
	words := make([]int64, 0, len(b)+4)
	words = append(words, logMagic, seq, int64(len(b)))
	for _, up := range b {
		key := graph.EdgeKey(up.U, up.V)
		if key&^keyMask != 0 {
			return nil, fmt.Errorf("dynamic: vertex id %d too large for the update log format", up.U)
		}
		words = append(words, int64(up.Op)<<opShift|key)
	}
	words = append(words, fnvWords(words))
	return words, nil
}

// wordsBytes renders words little-endian, the log's on-disk form.
func wordsBytes(words []int64) []byte {
	buf := make([]byte, 8*len(words))
	for i, wd := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(wd))
	}
	return buf
}

// Append writes one batch as a checksummed segment and syncs it to disk, so
// a crash after Append returns never loses that segment.
func (w *LogWriter) Append(b Batch) error {
	words, err := segmentWords(w.seq+1, b)
	if err != nil {
		return err
	}
	w.seq++
	if _, err := w.f.Write(wordsBytes(words)); err != nil {
		return fmt.Errorf("dynamic: append update log: %w", err)
	}
	return w.f.Sync()
}

// Close closes the log file.
func (w *LogWriter) Close() error { return w.f.Close() }

// ReadLog reads an update log, returning every fully valid segment in
// order. On a torn or corrupt tail it returns the valid prefix together
// with a typed error; callers replaying a log after a crash keep the prefix
// and resume from there.
func ReadLog(path string) ([]Batch, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dynamic: read update log: %w", err)
	}
	return DecodeLog(data)
}

// DecodeLog decodes an update log from bytes; see ReadLog.
func DecodeLog(data []byte) ([]Batch, error) {
	batches, _, err := decodeSegments(logWords(data))
	return batches, err
}

// logWords converts log bytes to whole little-endian words; a ragged tail
// (a torn partial word) is dropped here and surfaces as a torn segment.
func logWords(data []byte) []int64 {
	data = data[:len(data)-len(data)%8]
	words := make([]int64, len(data)/8)
	for i := range words {
		words[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return words
}

// decodeSegments walks segments from the head, returning every fully valid
// batch, the word offset where the valid prefix ends, and the typed error
// that stopped the walk (nil when the whole input parsed).
func decodeSegments(words []int64) (batches []Batch, validWords int, err error) {
	pos := 0
	for pos < len(words) {
		// Header: magic, seq, count.
		if len(words)-pos < 3 {
			return batches, pos, fmt.Errorf("%w: %d trailing words", ErrLogTruncated, len(words)-pos)
		}
		if words[pos] != logMagic {
			return batches, pos, fmt.Errorf("%w: segment %d", ErrLogMagic, len(batches)+1)
		}
		seq := words[pos+1]
		if seq != int64(len(batches)+1) {
			return batches, pos, fmt.Errorf("%w: segment %d has seq %d", ErrLogOrder, len(batches)+1, seq)
		}
		count := words[pos+2]
		if count < 0 || count > int64(len(words)-pos-3) {
			return batches, pos, fmt.Errorf("%w: segment %d claims %d updates", ErrLogTruncated, seq, count)
		}
		end := pos + 3 + int(count)
		if end >= len(words) { // footer word must follow
			return batches, pos, fmt.Errorf("%w: segment %d footer missing", ErrLogTruncated, seq)
		}
		if got, want := words[end], fnvWords(words[pos:end]); got != want {
			return batches, pos, fmt.Errorf("%w: segment %d", ErrLogChecksum, seq)
		}
		b := make(Batch, 0, count)
		for _, w := range words[pos+3 : end] {
			op := Op(uint64(w) >> opShift)
			if op > OpDelete {
				return batches, pos, fmt.Errorf("%w: segment %d has op %d", ErrLogCorrupt, seq, op)
			}
			key := w & keyMask
			u, v := graph.UnpackEdgeKey(key)
			if u < 0 || v <= u {
				return batches, pos, fmt.Errorf("%w: segment %d has edge key %d", ErrLogCorrupt, seq, key)
			}
			b = append(b, Update{Op: op, U: u, V: v})
		}
		batches = append(batches, b)
		pos = end + 1
	}
	return batches, pos, nil
}
