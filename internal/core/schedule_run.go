package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"spanner/internal/distsim"
	"spanner/internal/faults"
	"spanner/internal/graph"
	"spanner/internal/obs"
	"spanner/internal/reliable"
)

// ScheduleOpts configures RunExpandScheduleOpts, the robust driver of the
// distributed Expand pipeline (the Section 2 skeleton and Baswana–Sen both
// run through it).
type ScheduleOpts struct {
	Seed   int64
	MsgCap int // protocol message cap in words; <= 0 disables
	Faults *faults.Plan
	Obs    *obs.Observer
	Label  string
	// Reliable, when non-nil, wraps every engine run in the reliable
	// transport: the protocol then completes under drop/delay/duplicate/
	// corruption plans without Heal. The engine's wire cap is disabled and
	// MsgCap is enforced at the protocol level instead (still strict: a
	// violating run errors after completing). InnerCap 0 inherits MsgCap.
	Reliable *reliable.Policy
	// CheckpointDir enables call-boundary manifests; with CheckpointEvery
	// > 0 each engine run additionally writes round-boundary checkpoints
	// under CheckpointDir/call-NNN. A killed run restarts with Resume.
	CheckpointDir   string
	CheckpointEvery int
	// Resume picks the pipeline up from the newest manifest in
	// CheckpointDir (and mid-call from the newest engine checkpoint), with
	// spanner, metrics and per-call profiles byte-identical to the
	// uninterrupted run.
	Resume bool
	// goroutinePerNode selects the engine's goroutine-per-vertex mode.
	goroutinePerNode bool
}

// ScheduleResult is the outcome of RunExpandScheduleOpts. On error Spanner
// still holds every edge committed before the failure (never nil).
type ScheduleResult struct {
	Spanner *graph.EdgeSet
	Metrics distsim.Metrics
	PerCall []distsim.Metrics
	// Abandoned lists the directed links the reliable transport gave up on
	// (empty without Reliable or on a clean run); any entry means the
	// spanner may be missing edges and should flow into a degradation
	// report or Heal.
	Abandoned [][2]distsim.NodeID
}

const (
	manifestMagic   int64 = 0x455850414e4d4631 // "EXPANMF1"
	manifestVersion int64 = 1
)

// manifestName is the call-boundary manifest written immediately before
// executing call idx.
func manifestName(idx int) string { return fmt.Sprintf("manifest-%03d.bin", idx) }

// callDir holds call idx's engine round-boundary checkpoints.
func callDir(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("call-%03d", idx))
}

// metricsToWords flattens an engine metrics snapshot (the transport ledger
// included) for a manifest.
func metricsToWords(w []int64, m distsim.Metrics) []int64 {
	w = append(w, int64(m.Rounds), m.Messages, m.Words, int64(m.MaxMsgWords), m.CapExceeded,
		m.Faults.Dropped, m.Faults.DroppedLink, m.Faults.DroppedCrash,
		m.Faults.Duplicated, m.Faults.Corrupted, m.Faults.Delayed)
	t := m.Transport
	wrapped := int64(0)
	if t.Wrapped {
		wrapped = 1
	}
	return append(w, wrapped, t.Messages, t.Words, t.Delivered, int64(t.MaxMsgWords),
		t.CapExceeded, int64(t.VirtualRounds), t.Retransmits, t.Acks, t.Heartbeats,
		t.DupBatches, t.ChecksumDrops, t.LinksAbandoned)
}

func metricsFromWords(r *wordCursor) distsim.Metrics {
	var m distsim.Metrics
	m.Rounds = int(r.next())
	m.Messages = r.next()
	m.Words = r.next()
	m.MaxMsgWords = int(r.next())
	m.CapExceeded = r.next()
	m.Faults.Dropped = r.next()
	m.Faults.DroppedLink = r.next()
	m.Faults.DroppedCrash = r.next()
	m.Faults.Duplicated = r.next()
	m.Faults.Corrupted = r.next()
	m.Faults.Delayed = r.next()
	m.Transport.Wrapped = r.next() != 0
	m.Transport.Messages = r.next()
	m.Transport.Words = r.next()
	m.Transport.Delivered = r.next()
	m.Transport.MaxMsgWords = int(r.next())
	m.Transport.CapExceeded = r.next()
	m.Transport.VirtualRounds = int(r.next())
	m.Transport.Retransmits = r.next()
	m.Transport.Acks = r.next()
	m.Transport.Heartbeats = r.next()
	m.Transport.DupBatches = r.next()
	m.Transport.ChecksumDrops = r.next()
	m.Transport.LinksAbandoned = r.next()
	return m
}

// writeManifest persists the pipeline state "about to execute call idx".
func writeManifest(dir string, idx int, g *graph.Graph, opts ScheduleOpts,
	scheduleLen int, res *ScheduleResult, nodes []skelNode) error {
	w := make([]int64, 0, 1024)
	w = append(w, manifestMagic, manifestVersion,
		int64(g.N()), int64(g.M()), opts.Seed, int64(opts.MsgCap), int64(scheduleLen),
		int64(idx), opts.Faults.Runs())
	w = metricsToWords(w, res.Metrics)
	w = append(w, int64(len(res.PerCall)))
	for _, m := range res.PerCall {
		w = metricsToWords(w, m)
	}
	w = append(w, int64(len(res.Abandoned)))
	for _, l := range res.Abandoned {
		w = append(w, int64(l[0]), int64(l[1]))
	}
	keys := res.Spanner.Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w = append(w, int64(len(keys)))
	w = append(w, keys...)
	for v := range nodes {
		snap := nodes[v].Snapshot()
		w = append(w, int64(len(snap)))
		w = append(w, snap...)
	}
	return distsim.WriteWordsFile(filepath.Join(dir, manifestName(idx)), w)
}

// loadManifest restores the pipeline state from the newest manifest in dir,
// returning the next call index to execute.
func loadManifest(dir string, g *graph.Graph, opts ScheduleOpts,
	scheduleLen int, res *ScheduleResult, nodes []skelNode) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "manifest-*.bin"))
	if err != nil {
		return 0, err
	}
	if len(matches) == 0 {
		return 0, fmt.Errorf("core: no manifest in %s to resume from", dir)
	}
	sort.Strings(matches)
	path := matches[len(matches)-1]
	words, err := distsim.ReadWordsFile(path)
	if err != nil {
		return 0, err
	}
	r := &wordCursor{buf: words, who: "manifest"}
	if r.next() != manifestMagic || r.next() != manifestVersion {
		return 0, fmt.Errorf("core: %s: bad magic/version", path)
	}
	if int(r.next()) != g.N() || int(r.next()) != g.M() || r.next() != opts.Seed ||
		int(r.next()) != opts.MsgCap || int(r.next()) != scheduleLen {
		return 0, fmt.Errorf("core: %s was written for a different graph, seed, cap or schedule", path)
	}
	idx := int(r.next())
	opts.Faults.SetRuns(r.next())
	res.Metrics = metricsFromWords(r)
	res.PerCall = nil
	for i, k := 0, int(r.next()); i < k; i++ {
		res.PerCall = append(res.PerCall, metricsFromWords(r))
	}
	res.Abandoned = nil
	for i, k := 0, int(r.next()); i < k; i++ {
		res.Abandoned = append(res.Abandoned, [2]distsim.NodeID{
			distsim.NodeID(r.next()), distsim.NodeID(r.next())})
	}
	for i, k := 0, int(r.next()); i < k; i++ {
		res.Spanner.AddKey(r.next())
	}
	for v := range nodes {
		l := int(r.next())
		if r.err != nil {
			return 0, r.err
		}
		if l < 0 || r.pos+l > len(r.buf) {
			return 0, fmt.Errorf("core: %s: corrupt node snapshot length", path)
		}
		if err := nodes[v].Restore(r.buf[r.pos : r.pos+l]); err != nil {
			return 0, err
		}
		r.pos += l
	}
	return idx, r.err
}

// RunExpandScheduleOpts executes the distributed Expand protocol over an
// arbitrary call schedule with the full robustness toolkit: optional
// reliable transport (ScheduleOpts.Reliable), call-boundary manifests plus
// engine round-boundary checkpoints (CheckpointDir/CheckpointEvery), and
// resumption of a killed run (Resume). See RunExpandSchedule for the
// protocol itself; results are byte-identical across the plain, wrapped,
// checkpointed and resumed execution modes (asserted in tests).
func RunExpandScheduleOpts(g *graph.Graph, schedule []Call, opts ScheduleOpts) (ScheduleResult, error) {
	n := g.N()
	res := ScheduleResult{Spanner: graph.NewEdgeSet(2 * n)}
	if n == 0 || len(schedule) == 0 {
		return res, nil
	}
	label := opts.Label
	if label == "" {
		label = "expand.schedule"
	}
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return res, err
		}
	}
	root := opts.Obs.StartSpan(label, obs.I("n", int64(n)), obs.I("m", int64(g.M())),
		obs.I("calls", int64(len(schedule))), obs.I(obs.AttrMaxMsgWords, int64(opts.MsgCap)))

	nodes := make([]skelNode, n)
	handlers := make([]distsim.Handler, n)
	for v := 0; v < n; v++ {
		handlers[v] = &nodes[v]
	}
	// One set of engine round buffers serves every call of the schedule.
	bufs := new(distsim.Buffers)
	startCall := 0
	if opts.Resume {
		if opts.CheckpointDir == "" {
			root.End(obs.S("error", "resume without checkpoint dir"))
			return res, fmt.Errorf("core: Resume requires a checkpoint directory")
		}
		idx, err := loadManifest(opts.CheckpointDir, g, opts, len(schedule), &res, nodes)
		if err != nil {
			root.End(obs.S("error", err.Error()))
			return res, err
		}
		startCall = idx
	} else {
		// Pre-draw each vertex's first-unsampled call index against the
		// public schedule (the paper's line-1 pre-sampling).
		rng := rand.New(rand.NewSource(opts.Seed))
		// A vertex holds at most one candidate per neighbor, so its
		// candidate list and index are cut from two slabs at its degree.
		candSlab := make([]skelCand, 2*g.M())
		idSlab := make([]int32, 2*g.M())
		off := 0
		for v := 0; v < n; v++ {
			tau := int64(len(schedule) - 1)
			for idx, c := range schedule {
				if !(rng.Float64() < c.P) {
					tau = int64(idx)
					break
				}
			}
			nodes[v] = skelNode{
				self:        distsim.NodeID(v),
				superCenter: int32(v),
				cluster:     int32(v),
				clusterTau:  tau,
				p1:          distsim.NodeID(v),
				p2:          distsim.NodeID(v),
			}
			end := off + g.Degree(int32(v))
			nodes[v].cands = candSlab[off:off:end]
			nodes[v].candIdx.ids = idSlab[off:off:end]
			off = end
		}
	}

	for idx := startCall; idx < len(schedule); idx++ {
		call := schedule[idx]
		resumedCall := opts.Resume && idx == startCall
		if !resumedCall {
			if call.ContractBefore {
				for v := range nodes {
					nodes[v].contractLocal()
				}
			}
			for v := range nodes {
				if !nodes[v].dead {
					nodes[v].resetCall(int64(idx), call.AbortQ, opts.MsgCap)
				}
			}
		}
		liveCount := 0
		for v := range nodes {
			if !nodes[v].dead {
				liveCount++
			}
		}
		if liveCount == 0 {
			break
		}
		if opts.CheckpointDir != "" && !resumedCall {
			if err := writeManifest(opts.CheckpointDir, idx, g, opts, len(schedule), &res, nodes); err != nil {
				root.End(obs.S("error", err.Error()))
				return res, fmt.Errorf("core: manifest for call %d: %w", idx, err)
			}
		}
		cspan := root.Child("expand.call",
			obs.I("call", int64(idx)), obs.I(obs.AttrLevel, int64(call.Round)),
			obs.I("iter", int64(call.Iter)), obs.F("p", call.P),
			obs.I(obs.AttrSize, int64(liveCount)))

		engineHandlers := handlers
		var sess *reliable.Session
		cfg := distsim.Config{
			MaxMsgWords:      opts.MsgCap,
			Strict:           opts.MsgCap > 0,
			Faults:           opts.Faults,
			Obs:              opts.Obs,
			Parent:           cspan,
			GoroutinePerNode: opts.goroutinePerNode,
			Buffers:          bufs,
		}
		if opts.Reliable != nil {
			pol := *opts.Reliable
			if pol.InnerCap == 0 {
				pol.InnerCap = opts.MsgCap
			}
			pol = pol.ForRun(int64(idx))
			engineHandlers, sess = reliable.Wrap(handlers, pol)
			cfg.MaxMsgWords, cfg.Strict = 0, false
			cfg.Transport = sess
		}
		if opts.CheckpointDir != "" && opts.CheckpointEvery > 0 {
			cfg.Checkpoint = &distsim.CheckpointConfig{
				Dir:   callDir(opts.CheckpointDir, idx),
				Every: opts.CheckpointEvery,
			}
		}
		var net *distsim.Network
		var err error
		midCall := ""
		if resumedCall && cfg.Checkpoint != nil {
			midCall, _ = distsim.LatestCheckpoint(cfg.Checkpoint.Dir)
		}
		if midCall != "" {
			net, err = distsim.ResumeFrom(g, engineHandlers, cfg, midCall)
		} else {
			net, err = distsim.NewNetwork(g, engineHandlers, cfg)
		}
		if err != nil {
			cspan.End(obs.S("error", err.Error()))
			root.End(obs.S("error", err.Error()))
			return res, err
		}
		m, err := net.Run()
		if err == nil && sess != nil && opts.MsgCap > 0 && sess.CapExceeded() > 0 {
			err = fmt.Errorf("distsim: %d protocol messages exceeded cap %d", sess.CapExceeded(), opts.MsgCap)
		}
		if sess != nil {
			res.Abandoned = append(res.Abandoned, sess.Abandoned()...)
		}
		if err != nil {
			// Salvage the edges the protocol committed before the failure:
			// the partial spanner is the healing layer's starting point.
			res.Metrics.Add(m)
			for v := range nodes {
				for _, k := range nodes[v].outEdges {
					res.Spanner.AddKey(k)
				}
			}
			cspan.End(obs.S("error", err.Error()))
			root.End(obs.S("error", err.Error()))
			return res, fmt.Errorf("core: distributed Expand call %d: %w", idx, err)
		}
		res.PerCall = append(res.PerCall, m)
		res.Metrics.Add(m)
		edgesBefore := res.Spanner.Len()
		liveAfter := 0
		for v := range nodes {
			for _, k := range nodes[v].outEdges {
				res.Spanner.AddKey(k)
			}
			nodes[v].outEdges = nodes[v].outEdges[:0]
			if !nodes[v].dead {
				liveAfter++
			}
		}
		cspan.End(obs.I(obs.AttrRounds, int64(m.Rounds)), obs.I(obs.AttrMessages, m.Messages),
			obs.I(obs.AttrWords, m.Words), obs.I(obs.AttrMaxMsgWords, int64(m.MaxMsgWords)),
			obs.I(obs.AttrCapExceeded, m.CapExceeded),
			obs.I(obs.AttrEdges, int64(res.Spanner.Len()-edgesBefore)),
			obs.I("live_after", int64(liveAfter)))
	}
	root.End(obs.I(obs.AttrEdges, int64(res.Spanner.Len())),
		obs.I(obs.AttrRounds, int64(res.Metrics.Rounds)), obs.I(obs.AttrMessages, res.Metrics.Messages),
		obs.I(obs.AttrWords, res.Metrics.Words), obs.I(obs.AttrMaxMsgWords, int64(res.Metrics.MaxMsgWords)),
		obs.I(obs.AttrCapExceeded, res.Metrics.CapExceeded))
	return res, nil
}
