package fibonacci

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"spanner/internal/distsim"
	"spanner/internal/graph"
	"spanner/internal/obs"
	"spanner/internal/reliable"
	"spanner/internal/verify"
)

// This file implements the distributed construction of Sect. 4.4 on the
// distsim engine. Per level i the protocol runs three waves:
//
//  1. Parent wave: a truncated BFS flood from V_i to radius ℓ^{i-1}; every
//     reached vertex learns δ(v,V_i) and the first edge of P(v, p_i(v)) and
//     keeps that edge when δ(v,V_i) ≤ ℓ^{i-1}. The same wave supplies
//     δ(·,V_i), the pruning distances for level i−1's ball wave.
//  2. Ball wave: every y ∈ V_i broadcasts its identity to distance ℓ^i;
//     a vertex forwards a token only while it is strictly closer to the
//     token's source than to V_{i+1}. A vertex that would have to send a
//     message longer than the cap ceases participation (Monte Carlo rule)
//     and floods a cessation notice; any v ∈ V_{i-1} that detects a
//     possibly-lost ball member orders every vertex within ℓ^i to keep all
//     incident edges (the Las Vegas repair).
//  3. Commit wave: every v ∈ V_{i-1} retraces each ball token's arrival
//     pointers; each vertex on the path records its path edge.
type fibStage int

const (
	stageBall fibStage = iota + 1
	stageCommit
)

// Token message layout: [mTok, k, (src,dist)*k].
// Commit: [mCommit, src]. Cease: [mCease, origin, step, hops].
// Repair: [mRepair, hops].
const (
	mTok int64 = iota + 1
	mCommit
	mCease
	mRepair
)

// fibNode carries the per-vertex protocol state for one level's ball and
// commit waves.
type fibNode struct {
	self     distsim.NodeID
	isSource bool  // v ∈ V_i
	isOwner  bool  // v ∈ V_{i-1}
	radius   int64 // ℓ^i
	distNext int32 // δ(v, V_{i+1}), MaxInt32 if none
	msgCap   int   // 0 = unbounded

	stage          fibStage
	tokens         map[int32]tokenInfo
	ceased         bool
	ceaseStep      int32
	ceaseForwarded map[int64]bool
	committed      map[int32]bool
	repairing      bool
	repairBudget   int64 // hops of repair reach already flooded

	// outputs
	outEdges   []int64
	sawCease   bool // a cessation notice was received (diagnostics)
	detectFail bool // this owner detected a possibly-incomplete ball
}

var _ distsim.Handler = (*fibNode)(nil)

func (f *fibNode) Start(n *distsim.NodeCtx) {
	switch f.stage {
	case stageBall:
		if f.isSource && f.distNext > 0 {
			f.tokens = map[int32]tokenInfo{int32(f.self): {d: 0, via: -1}}
			if f.radius > 0 {
				f.send(n, []int32{int32(f.self)})
			}
		}
	case stageCommit:
		if !f.isOwner || f.tokens == nil {
			return
		}
		// Retrace each ball member; dedup per source.
		srcs := make([]int32, 0, len(f.tokens))
		for u := range f.tokens {
			srcs = append(srcs, u)
		}
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		for _, u := range srcs {
			f.commit(n, u)
		}
	}
}

// send forwards freshly learned tokens to the neighbors, ceasing if the
// message would exceed the cap (Sect. 4.4's Monte Carlo rule).
func (f *fibNode) send(n *distsim.NodeCtx, fresh []int32) {
	words := 2 + 2*len(fresh)
	if f.msgCap > 0 && words > f.msgCap {
		f.ceased = true
		// The step at which participation ceased = the largest token
		// distance we would have forwarded.
		var maxD int32
		for _, u := range fresh {
			if d := f.tokens[u].d; d > maxD {
				maxD = d
			}
		}
		f.ceaseStep = maxD
		// Flood the cessation notice to distance ℓ^i (Las Vegas repair).
		n.Broadcast(mCease, int64(f.self), int64(f.ceaseStep), 1)
		return
	}
	payload := make([]int64, 2, words)
	payload[0] = mTok
	payload[1] = int64(len(fresh))
	for _, u := range fresh {
		payload = append(payload, int64(u), int64(f.tokens[u].d))
	}
	n.Broadcast(payload...)
}

// commit sends the first retrace step for ball member u and records the
// local path edge.
func (f *fibNode) commit(n *distsim.NodeCtx, u int32) {
	if f.committed == nil {
		f.committed = make(map[int32]bool)
	}
	if f.committed[u] {
		return
	}
	f.committed[u] = true
	info, ok := f.tokens[u]
	if !ok || info.via < 0 {
		return // we are the source itself
	}
	f.outEdges = append(f.outEdges, graph.EdgeKey(int32(f.self), info.via))
	n.Send(distsim.NodeID(info.via), mCommit, int64(u))
}

func (f *fibNode) HandleRound(n *distsim.NodeCtx, inbox []distsim.Message) {
	switch f.stage {
	case stageBall:
		f.ballRound(n, inbox)
	case stageCommit:
		for _, m := range inbox {
			if m.Data[0] == mCommit {
				f.commit(n, int32(m.Data[1]))
			}
		}
	}
}

func (f *fibNode) ballRound(n *distsim.NodeCtx, inbox []distsim.Message) {
	var fresh []int32
	for _, m := range inbox {
		switch m.Data[0] {
		case mTok:
			if f.ceased {
				continue
			}
			k := int(m.Data[1])
			for t := 0; t < k; t++ {
				u := int32(m.Data[2+2*t])
				d := int32(m.Data[3+2*t]) + 1
				if int64(d) > f.radius || d >= f.distNext {
					continue // out of range or pruned by δ(·,V_{i+1})
				}
				if f.tokens == nil {
					f.tokens = make(map[int32]tokenInfo, 4)
				}
				if _, ok := f.tokens[u]; ok {
					continue
				}
				f.tokens[u] = tokenInfo{d: d, via: int32(m.From)}
				if int64(d) < f.radius {
					fresh = append(fresh, u)
				}
			}
		case mCease:
			f.sawCease = true
			origin, step, hops := int32(m.Data[1]), int32(m.Data[2]), m.Data[3]
			// Detection (Sect. 4.4): an owner x fails if a ceased vertex z
			// might have blocked a ball member: δ(x,z) + k < δ(x,V_{i+1}).
			if f.isOwner && int64(f.distNext) > hops+int64(step) {
				f.detectFail = true
				f.startRepair(n)
			}
			if hops < int64(f.radius) && !f.repairing {
				key := (int64(origin) << 32) | int64(step)
				if f.ceaseForwarded == nil {
					f.ceaseForwarded = make(map[int64]bool)
				}
				if !f.ceaseForwarded[key] {
					f.ceaseForwarded[key] = true
					n.Broadcast(mCease, int64(origin), int64(step), hops+1)
				}
			}
		case mRepair:
			f.applyRepair(n, m.Data[1])
		}
	}
	if len(fresh) > 0 {
		f.send(n, fresh)
	}
}

// startRepair begins the "keep all incident edges within ℓ^i" broadcast.
func (f *fibNode) startRepair(n *distsim.NodeCtx) {
	if f.repairing {
		return
	}
	f.applyRepair(n, 1)
}

// applyRepair keeps all incident edges and propagates the repair order.
// Repair floods from several owners may overlap; a node re-broadcasts only
// when a notice carries strictly more remaining reach than anything it has
// already flooded.
func (f *fibNode) applyRepair(n *distsim.NodeCtx, hops int64) {
	if !f.repairing {
		f.repairing = true
		for _, w := range n.Neighbors() {
			f.outEdges = append(f.outEdges, graph.EdgeKey(int32(f.self), int32(w)))
		}
	}
	if remaining := f.radius - hops; remaining > 0 && remaining > f.repairBudget {
		f.repairBudget = remaining
		n.Broadcast(mRepair, hops+1)
	}
}

// DistributedResult reports a distributed Fibonacci construction.
type DistributedResult struct {
	Params  *Params
	Spanner *graph.EdgeSet
	LevelOf []int8
	// Metrics aggregates engine metrics across all waves.
	Metrics distsim.Metrics
	// StageMetrics holds (level, wave) metrics in execution order.
	StageMetrics []StageMetric
	// Ceased counts vertices that hit the Monte Carlo cessation rule;
	// Repairs counts owners that triggered the Las Vegas repair.
	Ceased  int
	Repairs int
	// Abandoned lists links the reliable transport gave up on
	// (Options.Reliable runs only; empty after a clean run).
	Abandoned [][2]int32
	// Degradation reports what remains unverified when Options.Degrade
	// absorbed a build failure or link abandonment (nil on clean runs).
	Degradation *verify.DegradationReport
	// Health records verifier-gated repair when Options.Resilience was set
	// (nil otherwise).
	Health *verify.HealReport
	// BuildErr is the error of the initial distributed build that healing
	// recovered from (empty when the build itself succeeded).
	BuildErr string
}

// StageMetric labels one engine run.
type StageMetric struct {
	Level   int
	Wave    string // "parent", "ball", "commit"
	Metrics distsim.Metrics
}

// BuildDistributed constructs the Fibonacci spanner by message passing.
// When opts.T > 0 the ball-wave messages are capped at the Sect. 4.4 bound
// s = 4·max_i(q_i/q_{i+1})·ln n words and the cessation/repair protocol is
// armed; with T = 0 messages are unbounded (the LOCAL model), matching the
// sequential construction exactly.
//
// With opts.Resilience set the (possibly fault-injected) build is verified
// against the adjacent-pair stretch bound and healed: distributed retries
// on the residual subgraph, then a sequential rebuild, then the raw-edge
// fallback, with the outcome recorded in DistributedResult.Health.
func BuildDistributed(g *graph.Graph, opts Options) (*DistributedResult, error) {
	res, err := buildDistributed(g, opts)
	if res == nil {
		return nil, err // configuration error, nothing to heal
	}
	if err != nil && opts.Resilience == nil && !opts.Degrade {
		return nil, err
	}
	if err != nil {
		res.BuildErr = err.Error()
	}
	if opts.Degrade && (err != nil || len(res.Abandoned) > 0) {
		// Graceful degradation: the partial spanner plus a typed report
		// replace the error.
		cause, detail := verify.CauseAbandoned, ""
		if err != nil {
			cause, detail = verify.CauseBuildError, err.Error()
		}
		bound := int(math.Ceil(StretchBoundAt(1, res.Params.Order, res.Params.Ell)))
		res.Degradation = verify.Degrade(g, res.Spanner, bound, cause, detail,
			res.Abandoned, 64, opts.Seed)
	}
	if opts.Resilience != nil {
		r := *opts.Resilience
		bound := r.Bound(int(math.Ceil(StretchBoundAt(1, res.Params.Order, res.Params.Ell))))
		res.Health = verify.Heal(g, res.Spanner, bound, r,
			func(residual *graph.Graph, attempt int) (*graph.EdgeSet, error) {
				ropts := opts
				ropts.Resilience = nil
				ropts.Seed = opts.Seed + int64(attempt)<<32
				if attempt >= r.Attempts() {
					ropts.Faults = nil
					sr, serr := Build(residual, ropts)
					if serr != nil {
						return nil, serr
					}
					return sr.Spanner, nil
				}
				rr, rerr := buildDistributed(residual, ropts)
				if rr == nil {
					return nil, rerr
				}
				res.Metrics.Add(rr.Metrics)
				return rr.Spanner, rerr
			})
	}
	return res, nil
}

// salvageEdges moves committed per-node spanner edges of a failed wave into
// the partial result — edges a node selected before the failure are valid.
func salvageEdges(s *graph.EdgeSet, nodes []fibNode) {
	for v := range nodes {
		for _, k := range nodes[v].outEdges {
			s.AddKey(k)
		}
		nodes[v].outEdges = nodes[v].outEdges[:0]
	}
}

// buildDistributed is the construction itself. On an engine failure it
// returns the partial result built so far together with the error (a nil
// result means a configuration error).
func buildDistributed(g *graph.Graph, opts Options) (*DistributedResult, error) {
	opts = opts.withDefaults()
	n := g.N()
	if n == 0 {
		p, err := ResolveParams(1, 1, opts.Epsilon, opts.Ell, opts.T)
		if err != nil {
			return nil, err
		}
		return &DistributedResult{Params: p, Spanner: graph.NewEdgeSet(0)}, nil
	}
	params, err := ResolveParams(n, opts.Order, opts.Epsilon, opts.Ell, opts.T)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	levelOf := SampleLevels(n, params, rng)
	res := &DistributedResult{
		Params:  params,
		Spanner: graph.NewEdgeSet(4 * n),
		LevelOf: levelOf,
	}
	o := params.Order
	msgCap := params.MessageCap()
	span := opts.Obs.StartSpan("fib.build.dist",
		obs.I("n", int64(n)), obs.I("m", int64(g.M())),
		obs.I("order", int64(o)), obs.I("ell", int64(params.Ell)),
		obs.I(obs.AttrMaxMsgWords, int64(msgCap)))

	levelSets := make([][]int32, o+2)
	for v := int32(0); int(v) < n; v++ {
		for i := 0; i <= int(levelOf[v]) && i <= o; i++ {
			levelSets[i] = append(levelSets[i], v)
		}
	}

	addMetrics := func(level int, wave string, m distsim.Metrics) {
		res.StageMetrics = append(res.StageMetrics, StageMetric{Level: level, Wave: wave, Metrics: m})
		res.Metrics.Add(m)
	}

	// Reliable-transport plumbing: each engine wave gets a fresh session
	// (wrapper state is per-run) seeded deterministically from the wave
	// counter, and its abandoned links are folded into the result.
	waveIdx := int64(0)
	newWaveSession := func(innerCap int) *reliable.Session {
		pol := *opts.Reliable
		if pol.InnerCap == 0 {
			pol.InnerCap = innerCap
		}
		return reliable.NewSession(n, pol.ForRun(waveIdx))
	}
	noteAbandoned := func(sess *reliable.Session) {
		if sess == nil {
			return
		}
		for _, l := range sess.Abandoned() {
			res.Abandoned = append(res.Abandoned, [2]int32{int32(l[0]), int32(l[1])})
		}
	}

	// One set of engine round buffers serves every wave.
	bufs := new(distsim.Buffers)

	// Parent waves: δ(·,V_i) within ℓ^{i-1} plus parent pointers; also the
	// pruning distances for level i−1's ball wave.
	dists := make([][]int32, o+2)
	for i := 1; i <= o; i++ {
		if len(levelSets[i]) == 0 {
			continue
		}
		r := clampRadius(params.Radius[i-1], n)
		pspan := span.Child("fib.parent",
			obs.I(obs.AttrLevel, int64(i)), obs.I(obs.AttrSize, int64(len(levelSets[i]))),
			obs.I("radius", r))
		pcfg := distsim.Config{Faults: opts.Faults, Obs: opts.Obs, Parent: pspan,
			Buffers: bufs}
		var pwrap func([]distsim.Handler) []distsim.Handler
		var psess *reliable.Session
		if opts.Reliable != nil {
			psess = newWaveSession(0)
			pcfg.Transport = psess
			pwrap = psess.WrapAll
		}
		waveIdx++
		bres, err := distsim.RunBFSRadiusWrapped(g, levelSets[i], r, pcfg, pwrap)
		noteAbandoned(psess)
		if err != nil {
			pspan.End(obs.S("error", err.Error()))
			span.End(obs.S("error", err.Error()))
			if bres != nil {
				addMetrics(i, "parent", bres.Metrics)
			}
			return res, fmt.Errorf("fibonacci: parent wave %d: %w", i, err)
		}
		dists[i] = bres.Dist
		edgesBefore := res.Spanner.Len()
		for v := int32(0); int(v) < n; v++ {
			if d := bres.Dist[v]; d >= 1 && int64(d) <= r {
				res.Spanner.Add(v, bres.Parent[v])
			}
		}
		pspan.End(obs.I(obs.AttrRounds, int64(bres.Metrics.Rounds)),
			obs.I(obs.AttrMessages, bres.Metrics.Messages),
			obs.I(obs.AttrWords, bres.Metrics.Words),
			obs.I(obs.AttrEdges, int64(res.Spanner.Len()-edgesBefore)))
		addMetrics(i, "parent", bres.Metrics)
	}

	// S₀ locally: vertices with δ(v,V₁) ≥ 2 keep all incident edges.
	s0span := span.Child("fib.s0", obs.I(obs.AttrLevel, 0))
	s0Before := res.Spanner.Len()
	for v := int32(0); int(v) < n; v++ {
		if distAt(dists[1], v) >= 2 {
			for _, w := range g.Neighbors(v) {
				res.Spanner.Add(v, w)
			}
		}
	}
	s0span.End(obs.I(obs.AttrEdges, int64(res.Spanner.Len()-s0Before)))

	// Ball + commit waves per level.
	for i := 1; i <= o; i++ {
		if len(levelSets[i]) == 0 {
			continue
		}
		opts.Obs.Registry().Gauge("fib.level_size", obs.Label{Key: "level", Value: itoa(i)}).Set(int64(len(levelSets[i])))
		nodes := make([]fibNode, n)
		handlers := make([]distsim.Handler, n)
		radius := clampRadius(params.Radius[i], n)
		for v := 0; v < n; v++ {
			distNext := distAt(dists[i+1], int32(v))
			if opts.DisablePruning {
				distNext = 1<<31 - 1
			}
			nodes[v] = fibNode{
				self:     distsim.NodeID(v),
				isSource: int(levelOf[v]) >= i,
				isOwner:  int(levelOf[v]) >= i-1,
				radius:   radius,
				distNext: distNext,
				msgCap:   msgCap,
				stage:    stageBall,
			}
			handlers[v] = &nodes[v]
		}
		bspan := span.Child("fib.ball",
			obs.I(obs.AttrLevel, int64(i)), obs.I(obs.AttrSize, int64(len(levelSets[i]))),
			obs.I("radius", radius))
		cfg := distsim.Config{MaxMsgWords: msgCap, Faults: opts.Faults, Obs: opts.Obs, Parent: bspan,
			Buffers: bufs}
		engineHandlers := handlers
		var bsess *reliable.Session
		if opts.Reliable != nil {
			bsess = newWaveSession(msgCap)
			engineHandlers = bsess.WrapAll(handlers)
			cfg.MaxMsgWords = 0
			cfg.Transport = bsess
		}
		waveIdx++
		net, err := distsim.NewNetwork(g, engineHandlers, cfg)
		if err != nil {
			bspan.End(obs.S("error", err.Error()))
			span.End(obs.S("error", err.Error()))
			return res, err
		}
		m, err := net.Run()
		noteAbandoned(bsess)
		if err != nil {
			bspan.End(obs.S("error", err.Error()))
			span.End(obs.S("error", err.Error()))
			addMetrics(i, "ball", m)
			salvageEdges(res.Spanner, nodes)
			return res, fmt.Errorf("fibonacci: ball wave %d: %w", i, err)
		}
		addMetrics(i, "ball", m)

		edgesBefore := res.Spanner.Len()
		ceasedBefore, repairsBefore := res.Ceased, res.Repairs
		for v := range nodes {
			if nodes[v].ceased {
				res.Ceased++
			}
			if nodes[v].detectFail {
				res.Repairs++
			}
			for _, k := range nodes[v].outEdges {
				res.Spanner.AddKey(k)
			}
			nodes[v].outEdges = nodes[v].outEdges[:0]
			nodes[v].stage = stageCommit
		}
		bspan.End(obs.I(obs.AttrRounds, int64(m.Rounds)),
			obs.I(obs.AttrMessages, m.Messages), obs.I(obs.AttrWords, m.Words),
			obs.I(obs.AttrEdges, int64(res.Spanner.Len()-edgesBefore)),
			obs.I("ceased", int64(res.Ceased-ceasedBefore)),
			obs.I("repairs", int64(res.Repairs-repairsBefore)))

		cspan := span.Child("fib.commit",
			obs.I(obs.AttrLevel, int64(i)), obs.I(obs.AttrSize, int64(len(levelSets[i]))))
		ccfg := distsim.Config{MaxMsgWords: msgCap, Faults: opts.Faults, Obs: opts.Obs, Parent: cspan,
			Buffers: bufs}
		engineHandlers = handlers
		var csess *reliable.Session
		if opts.Reliable != nil {
			csess = newWaveSession(msgCap)
			engineHandlers = csess.WrapAll(handlers)
			ccfg.MaxMsgWords = 0
			ccfg.Transport = csess
		}
		waveIdx++
		net, err = distsim.NewNetwork(g, engineHandlers, ccfg)
		if err != nil {
			cspan.End(obs.S("error", err.Error()))
			span.End(obs.S("error", err.Error()))
			return res, err
		}
		m, err = net.Run()
		noteAbandoned(csess)
		if err != nil {
			cspan.End(obs.S("error", err.Error()))
			span.End(obs.S("error", err.Error()))
			addMetrics(i, "commit", m)
			salvageEdges(res.Spanner, nodes)
			return res, fmt.Errorf("fibonacci: commit wave %d: %w", i, err)
		}
		addMetrics(i, "commit", m)
		edgesBefore = res.Spanner.Len()
		for v := range nodes {
			for _, k := range nodes[v].outEdges {
				res.Spanner.AddKey(k)
			}
		}
		cspan.End(obs.I(obs.AttrRounds, int64(m.Rounds)),
			obs.I(obs.AttrMessages, m.Messages), obs.I(obs.AttrWords, m.Words),
			obs.I(obs.AttrEdges, int64(res.Spanner.Len()-edgesBefore)))
	}
	span.End(obs.I(obs.AttrEdges, int64(res.Spanner.Len())),
		obs.I(obs.AttrRounds, int64(res.Metrics.Rounds)),
		obs.I(obs.AttrMessages, res.Metrics.Messages),
		obs.I(obs.AttrWords, res.Metrics.Words),
		obs.I(obs.AttrMaxMsgWords, int64(res.Metrics.MaxMsgWords)),
		obs.I(obs.AttrCapExceeded, res.Metrics.CapExceeded),
		obs.I("ceased", int64(res.Ceased)), obs.I("repairs", int64(res.Repairs)))
	return res, nil
}
