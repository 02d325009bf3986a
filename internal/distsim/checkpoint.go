package distsim

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"spanner/internal/graph"
)

// Round-boundary checkpointing. A checkpoint captures the complete
// deterministic state of a run at the top of a round — engine counters,
// fault-injector RNG position, delayed deliveries, undrained outboxes,
// per-node engine flags and every handler's Snapshot — as a flat int64
// stream. Resume rebuilds a Network from the newest checkpoint and Run
// continues mid-stream; because every piece of nondeterminism (the fault
// RNG) is position-restored, the resumed run's spanner, metrics and trace
// are byte-identical to the uninterrupted run (asserted in tests).

// Snapshotter is implemented by handlers that support checkpointing: all
// protocol state serialized to a flat word slice, and restored from one.
// Snapshot must be deterministic (map contents emitted in sorted order) so
// checkpoint files are reproducible.
type Snapshotter interface {
	Snapshot() []int64
	Restore(state []int64) error
}

// CheckpointConfig enables round-boundary checkpointing on a run.
type CheckpointConfig struct {
	// Dir receives one ckpt-%08d.bin file per boundary (created if absent).
	Dir string
	// Every is the round interval K: state is persisted before executing
	// rounds 1+K, 1+2K, ... . Zero disables checkpointing.
	Every int
}

const (
	ckptMagic   int64 = 0x4453434b50543031 // "DSCKPT01"
	ckptVersion int64 = 1
)

// checkpointable validates that the run can be checkpointed: a directory is
// configured and every handler can snapshot itself.
func (net *Network) checkpointable() error {
	cc := net.cfg.Checkpoint
	if cc == nil || cc.Every <= 0 {
		return nil
	}
	if cc.Dir == "" {
		return fmt.Errorf("distsim: checkpointing requires a directory")
	}
	if err := os.MkdirAll(cc.Dir, 0o755); err != nil {
		return err
	}
	for v, h := range net.handlers {
		if h == nil {
			continue
		}
		if _, ok := h.(Snapshotter); !ok {
			return fmt.Errorf("distsim: handler of node %d (%T) does not implement Snapshotter", v, h)
		}
		// Wrappers that delegate snapshotting probe their inner handler here,
		// so an impossible checkpoint fails before the run instead of mid-way.
		if p, ok := h.(interface{ Checkpointable() error }); ok {
			if err := p.Checkpointable(); err != nil {
				return fmt.Errorf("distsim: node %d: %w", v, err)
			}
		}
	}
	return nil
}

// snapWriter accumulates the word stream of a checkpoint.
type snapWriter struct{ buf []int64 }

func (w *snapWriter) put(vs ...int64) { w.buf = append(w.buf, vs...) }
func (w *snapWriter) putSlice(s []int64) {
	w.buf = append(w.buf, int64(len(s)))
	w.buf = append(w.buf, s...)
}

// snapReader consumes a checkpoint word stream with bounds checking.
type snapReader struct {
	buf []int64
	pos int
	err error
}

func (r *snapReader) get() int64 {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.err = fmt.Errorf("distsim: truncated checkpoint (offset %d)", r.pos)
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

func (r *snapReader) getSlice() []int64 {
	n := r.get()
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+int(n) > len(r.buf) {
		r.err = fmt.Errorf("distsim: corrupt checkpoint length %d at offset %d", n, r.pos)
		return nil
	}
	s := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return s
}

// fnvWords is FNV-1a folded over a word stream (the checkpoint's integrity
// footer; rename-into-place already excludes torn files, this catches disk
// rot and hand-edited artifacts).
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

// writeCheckpoint persists the state "about to execute round r".
func (net *Network) writeCheckpoint(round int) error {
	w := &snapWriter{buf: make([]int64, 0, 1024)}
	w.put(ckptMagic, ckptVersion, int64(net.g.N()), int64(net.g.M()), int64(round), int64(net.stallStreak))
	w.put(
		atomic.LoadInt64(&net.rounds),
		atomic.LoadInt64(&net.messages),
		atomic.LoadInt64(&net.words),
		atomic.LoadInt64(&net.maxMsgWords),
		atomic.LoadInt64(&net.capExceeded),
		atomic.LoadInt64(&net.fDropped),
		atomic.LoadInt64(&net.fDroppedLink),
		atomic.LoadInt64(&net.fDroppedCrash),
		atomic.LoadInt64(&net.fDuplicated),
		atomic.LoadInt64(&net.fCorrupted),
		atomic.LoadInt64(&net.fDelayed),
	)
	if net.inj != nil {
		run, draws := net.inj.State()
		w.put(1, run, draws)
	} else {
		w.put(0)
	}
	// Delayed deliveries, by due round (sorted for reproducible files).
	dues := make([]int, 0, len(net.pending))
	for due := range net.pending {
		dues = append(dues, due)
	}
	sort.Ints(dues)
	w.put(int64(len(dues)))
	for _, due := range dues {
		entries := net.pending[due]
		w.put(int64(due), int64(len(entries)))
		for _, d := range entries {
			w.put(int64(d.to), int64(d.msg.From))
			w.putSlice(d.msg.Data)
		}
	}
	// Round trace so far (only recorded under TraceRounds).
	w.put(int64(len(net.trace)))
	for _, t := range net.trace {
		w.put(int64(t.Round), t.Messages, t.Words)
	}
	// Per-node engine flags, undrained outboxes and handler snapshots. The
	// undrained sends sit in the write arena in sender order.
	var undrained []pendingMsg
	for _, seg := range net.bufs.segs[net.wp] {
		for _, o := range seg.out {
			undrained = append(undrained, pendingMsg{to: o.to,
				msg: Message{From: o.from, Data: seg.words[o.off : o.off+int(o.n)]}})
		}
	}
	for v := range net.nodes {
		node := &net.nodes[v]
		flags := int64(0)
		if node.halted {
			flags |= 1
		}
		if node.awake {
			flags |= 2
		}
		k := 0
		for k < len(undrained) && undrained[k].msg.From == NodeID(v) {
			k++
		}
		w.put(flags, int64(k))
		for _, d := range undrained[:k] {
			w.put(int64(d.to))
			w.putSlice(d.msg.Data)
		}
		undrained = undrained[k:]
		if h := net.handlers[v]; h != nil {
			w.put(1)
			w.putSlice(h.(Snapshotter).Snapshot())
		} else {
			w.put(0)
		}
	}
	if len(undrained) > 0 {
		return fmt.Errorf("distsim: undrained sends of node %d are out of sender order", undrained[0].msg.From)
	}
	return WriteWordsFile(filepath.Join(net.cfg.Checkpoint.Dir, CheckpointName(round)), w.buf)
}

// CheckpointName is the file name of the checkpoint taken before round r.
func CheckpointName(round int) string { return fmt.Sprintf("ckpt-%08d.bin", round) }

// WriteWordsFile persists a word stream as little-endian bytes with an
// FNV-1a footer, via a temp file and rename, so a killed writer never
// leaves a torn artifact under the final name. Shared by engine checkpoints
// and the pipeline-level manifests the drivers write.
func WriteWordsFile(path string, words []int64) error {
	words = append(words, fnvWords(words))
	buf := make([]byte, 8*len(words))
	for i, v := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadWordsFile loads and integrity-checks a word-stream artifact written
// by WriteWordsFile, returning the stream without the footer.
func ReadWordsFile(path string) ([]int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw)%8 != 0 || len(raw) < 2*8 {
		return nil, fmt.Errorf("distsim: %s: malformed size %d", path, len(raw))
	}
	words := make([]int64, len(raw)/8)
	for i := range words {
		words[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	body, sum := words[:len(words)-1], words[len(words)-1]
	if fnvWords(body) != sum {
		return nil, fmt.Errorf("distsim: %s: checksum mismatch", path)
	}
	return body, nil
}

// ReadCheckpointWords loads and integrity-checks a checkpoint file,
// returning the word stream without the footer.
func ReadCheckpointWords(path string) ([]int64, error) {
	body, err := ReadWordsFile(path)
	if err != nil {
		return nil, err
	}
	if len(body) < 8 || body[0] != ckptMagic || body[1] != ckptVersion {
		return nil, fmt.Errorf("distsim: checkpoint %s: bad magic/version", path)
	}
	return body, nil
}

// Checkpoints lists the checkpoint files in dir, oldest first.
func Checkpoints(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.bin"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// LatestCheckpoint returns the newest checkpoint in dir ("" when none).
func LatestCheckpoint(dir string) (string, error) {
	all, err := Checkpoints(dir)
	if err != nil || len(all) == 0 {
		return "", err
	}
	return all[len(all)-1], nil
}

// Resume rebuilds a killed run from the newest checkpoint in
// cfg.Checkpoint.Dir. The caller supplies fresh handlers exactly as it
// would to NewNetwork; their state is overwritten by Restore. Run then
// continues from the checkpointed round and produces results, metrics and
// trace byte-identical to the uninterrupted run. Note the wall-clock
// Deadline (if any) restarts at the resumed Run call.
func Resume(g *graph.Graph, handlers []Handler, cfg Config) (*Network, error) {
	if cfg.Checkpoint == nil || cfg.Checkpoint.Dir == "" {
		return nil, fmt.Errorf("distsim: Resume requires Config.Checkpoint.Dir")
	}
	path, err := LatestCheckpoint(cfg.Checkpoint.Dir)
	if err != nil {
		return nil, err
	}
	if path == "" {
		return nil, fmt.Errorf("distsim: no checkpoint in %s", cfg.Checkpoint.Dir)
	}
	return ResumeFrom(g, handlers, cfg, path)
}

// ResumeFrom is Resume from an explicit checkpoint file.
func ResumeFrom(g *graph.Graph, handlers []Handler, cfg Config, path string) (*Network, error) {
	words, err := ReadCheckpointWords(path)
	if err != nil {
		return nil, err
	}
	net, err := newNetwork(g, handlers, cfg, false)
	if err != nil {
		return nil, err
	}
	r := &snapReader{buf: words}
	r.get() // magic
	r.get() // version
	n, m := r.get(), r.get()
	if int(n) != g.N() || int(m) != g.M() {
		return nil, fmt.Errorf("distsim: checkpoint %s is for a %dx%d graph, not %dx%d",
			path, n, m, g.N(), g.M())
	}
	net.resumeRound = int(r.get())
	net.stallStreak = int(r.get())
	atomic.StoreInt64(&net.rounds, r.get())
	atomic.StoreInt64(&net.messages, r.get())
	atomic.StoreInt64(&net.words, r.get())
	atomic.StoreInt64(&net.maxMsgWords, r.get())
	atomic.StoreInt64(&net.capExceeded, r.get())
	atomic.StoreInt64(&net.fDropped, r.get())
	atomic.StoreInt64(&net.fDroppedLink, r.get())
	atomic.StoreInt64(&net.fDroppedCrash, r.get())
	atomic.StoreInt64(&net.fDuplicated, r.get())
	atomic.StoreInt64(&net.fCorrupted, r.get())
	atomic.StoreInt64(&net.fDelayed, r.get())
	if r.get() == 1 {
		run, draws := r.get(), r.get()
		if cfg.Faults.IsZero() {
			return nil, fmt.Errorf("distsim: checkpoint %s ran under a fault plan; Resume needs the same Config.Faults", path)
		}
		net.inj = cfg.Faults.InjectorForRun(run, draws)
	}
	nDue := int(r.get())
	for i := 0; i < nDue; i++ {
		due, count := int(r.get()), int(r.get())
		for j := 0; j < count; j++ {
			to, from := NodeID(r.get()), NodeID(r.get())
			data := append([]int64(nil), r.getSlice()...)
			if net.pending == nil {
				net.pending = make(map[int][]pendingMsg)
			}
			net.pending[due] = append(net.pending[due], pendingMsg{to: to, msg: Message{From: from, Data: data}})
			net.pendingCount++
		}
	}
	nTrace := int(r.get())
	for i := 0; i < nTrace; i++ {
		net.trace = append(net.trace, RoundStats{Round: int(r.get()), Messages: r.get(), Words: r.get()})
	}
	for v := range net.nodes {
		node := &net.nodes[v]
		flags := r.get()
		node.halted = flags&1 != 0
		node.awake = flags&2 != 0
		nOut := int(r.get())
		node.seg = &net.bufs.segs[net.wp][0]
		for j := 0; j < nOut; j++ {
			to := NodeID(r.get())
			off := node.store(r.getSlice())
			node.seg.out = append(node.seg.out, outMsg{from: node.id, to: to, n: int32(len(node.seg.words) - off), off: off})
		}
		hasHandler := r.get() == 1
		if r.err != nil {
			return nil, r.err
		}
		if hasHandler {
			if net.handlers[v] == nil {
				return nil, fmt.Errorf("distsim: checkpoint %s has state for node %d but no handler was supplied", path, v)
			}
			snap, ok := net.handlers[v].(Snapshotter)
			if !ok {
				return nil, fmt.Errorf("distsim: handler of node %d (%T) does not implement Snapshotter", v, net.handlers[v])
			}
			if err := snap.Restore(append([]int64(nil), r.getSlice()...)); err != nil {
				return nil, fmt.Errorf("distsim: restoring node %d: %w", v, err)
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return net, nil
}
