package oracle

import (
	"fmt"
	"sort"

	"spanner/internal/distsim"
	"spanner/internal/faults"
	"spanner/internal/flatmap"
	"spanner/internal/graph"
	"spanner/internal/obs"
	"spanner/internal/reliable"
	"spanner/internal/verify"
)

// Distributed construction of the Thorup–Zwick oracle using exactly the
// machinery of the paper's Sect. 4.4: per level, a multi-source BFS wave
// computes witnesses, and a pruned token flood delivers each cluster's
// contents (the tokens a vertex retains are precisely its bunch entries at
// that level). This demonstrates that the Fibonacci spanner's distributed
// toolkit builds the conclusion's "most interesting application" as well;
// with the same seed it produces exactly the sequential oracle.

// tzNode is the per-vertex state of one level's cluster flood.
type tzNode struct {
	self     distsim.NodeID
	isSource bool  // v ∈ A_i \ A_{i+1}
	distNext int32 // δ(v, A_{i+1}); MaxInt32 at the top level
	tokens   map[int32]int32
	fresh    []int32
}

var _ distsim.Handler = (*tzNode)(nil)

func (t *tzNode) Start(n *distsim.NodeCtx) {
	if !t.isSource || t.distNext <= 0 {
		return
	}
	t.tokens = map[int32]int32{int32(t.self): 0}
	t.forward(n, []int32{int32(t.self)})
}

func (t *tzNode) forward(n *distsim.NodeCtx, fresh []int32) {
	payload := make([]int64, 1, 1+2*len(fresh))
	payload[0] = int64(len(fresh))
	for _, w := range fresh {
		payload = append(payload, int64(w), int64(t.tokens[w]))
	}
	n.Broadcast(payload...)
}

func (t *tzNode) HandleRound(n *distsim.NodeCtx, inbox []distsim.Message) {
	var fresh []int32
	for _, m := range inbox {
		k := int(m.Data[0])
		for i := 0; i < k; i++ {
			w := int32(m.Data[1+2*i])
			d := int32(m.Data[2+2*i]) + 1
			if d >= t.distNext {
				continue // Thorup–Zwick pruning: w is no longer a bunch entry
			}
			if t.tokens == nil {
				t.tokens = make(map[int32]int32, 4)
			}
			if _, ok := t.tokens[w]; ok {
				continue
			}
			t.tokens[w] = d
			fresh = append(fresh, w)
		}
	}
	if len(fresh) > 0 {
		sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })
		t.forward(n, fresh)
	}
}

// NewDistributed builds the oracle by message passing and returns it with
// the aggregate communication metrics. Given the same seed it computes the
// same hierarchy, witnesses and bunches as New.
func NewDistributed(g *graph.Graph, k int, seed int64) (*Oracle, distsim.Metrics, error) {
	return NewDistributedObs(g, k, seed, nil)
}

// NewDistributedObs is NewDistributed with per-level witness/flood spans and
// engine round events emitted to ob (nil disables observability).
func NewDistributedObs(g *graph.Graph, k int, seed int64, ob *obs.Observer) (*Oracle, distsim.Metrics, error) {
	o, m, _, err := newDistributed(g, k, seed, ob, nil, nil, false)
	return o, m, err
}

// NewDistributedReliable runs every engine wave under the reliable
// transport: the construction completes exactly under drop/duplicate/
// corrupt/delay plans with no repairs. If the transport had to abandon
// links (unrecoverable loss), the oracle is returned anyway — partial —
// together with a DegradationReport quantifying what its spanner misses
// against the 2k−1 bound; the report is nil after a clean run.
func NewDistributedReliable(g *graph.Graph, k int, seed int64, ob *obs.Observer,
	plan *faults.Plan, pol reliable.Policy) (*Oracle, distsim.Metrics, *verify.DegradationReport, error) {
	o, m, abandoned, err := newDistributed(g, k, seed, ob, plan, &pol, false)
	if err != nil {
		return o, m, nil, err
	}
	var rep *verify.DegradationReport
	if len(abandoned) > 0 {
		rep = verify.Degrade(g, o.Spanner(), 2*k-1, verify.CauseAbandoned, "",
			abandoned, 64, seed)
	}
	return o, m, rep, nil
}

// NewDistributedFT is the fault-tolerant distributed construction: every
// engine wave runs under plan (nil = lossless), and with r non-nil the
// finished oracle's spanner is verified against the 2k-1 stretch bound.
// The oracle's bunch structure cannot be patched edge-by-edge the way the
// spanner pipelines heal, so repair is whole-build: up to r.Attempts()
// distributed builds (each under a fresh fault stream), then the sequential
// fault-free construction, with the outcome recorded in the HealReport.
func NewDistributedFT(g *graph.Graph, k int, seed int64, ob *obs.Observer, plan *faults.Plan, r *verify.Resilience) (*Oracle, distsim.Metrics, *verify.HealReport, error) {
	var total distsim.Metrics
	if r == nil {
		o, m, _, err := newDistributed(g, k, seed, ob, plan, nil, false)
		return o, m, nil, err
	}
	bound := r.Bound(2*k - 1)
	hr := &verify.HealReport{Bound: bound, Checked: true}
	for attempt := 0; attempt < r.Attempts(); attempt++ {
		if attempt > 0 {
			hr.Attempts++
		}
		o, m, _, err := newDistributed(g, k, seed, ob, plan, nil, false)
		total.Add(m)
		if err != nil {
			hr.RetryErrors = append(hr.RetryErrors, err.Error())
			continue
		}
		viol := len(verify.ViolatedEdges(g, o.Spanner(), bound))
		hr.Violations = append(hr.Violations, viol)
		if viol == 0 {
			hr.Verified = true
			return o, total, hr, nil
		}
	}
	// The distributed protocol never converged under the plan: fall back to
	// the sequential construction and record the degradation.
	hr.Attempts++
	hr.Degraded = true
	o, err := New(g, k, seed)
	if err != nil {
		return nil, total, hr, err
	}
	hr.Violations = append(hr.Violations, len(verify.ViolatedEdges(g, o.Spanner(), bound)))
	hr.Verified = hr.Violations[len(hr.Violations)-1] == 0
	return o, total, hr, nil
}

// newDistributed is the construction shared by the public variants. With
// pol non-nil every wave runs under the reliable transport (independent
// per-wave jitter streams); the returned slice lists abandoned links.
// perNode runs every wave in the engine's goroutine-per-vertex mode.
func newDistributed(g *graph.Graph, k int, seed int64, ob *obs.Observer, plan *faults.Plan, pol *reliable.Policy, perNode bool) (*Oracle, distsim.Metrics, [][2]int32, error) {
	var total distsim.Metrics
	var abandoned [][2]int32
	if k < 1 {
		return nil, total, nil, fmt.Errorf("oracle: k must be >= 1, got %d", k)
	}
	n := g.N()
	o := newOracle(g, k)
	if n == 0 {
		o.bunch = flatmap.FromStaged(0, nil)
		return o, total, nil, nil
	}
	// Identical sampling to New (same seed ⇒ same hierarchy).
	levelSets := o.sampleLevels(seed)
	marks := newEdgeMarks(g)

	add := func(m distsim.Metrics) { total.Add(m) }

	span := ob.StartSpan("oracle.dist",
		obs.I("n", int64(n)), obs.I("m", int64(g.M())), obs.I("k", int64(k)))

	// Reliable-transport plumbing: a fresh session per wave, seeded from a
	// deterministic wave counter, with abandoned links folded together.
	waveIdx := int64(0)
	newWaveSession := func() *reliable.Session {
		return reliable.NewSession(n, pol.ForRun(waveIdx))
	}
	noteAbandoned := func(sess *reliable.Session) {
		if sess == nil {
			return
		}
		for _, l := range sess.Abandoned() {
			abandoned = append(abandoned, [2]int32{int32(l[0]), int32(l[1])})
		}
	}

	// One set of engine round buffers serves every wave.
	bufs := new(distsim.Buffers)

	// Witness waves: distributed multi-source BFS per level.
	for i := 0; i < k; i++ {
		wspan := span.Child("oracle.witness",
			obs.I(obs.AttrLevel, int64(i)), obs.I(obs.AttrSize, int64(len(levelSets[i]))))
		wcfg := distsim.Config{Faults: plan, Obs: ob, Parent: wspan, GoroutinePerNode: perNode,
			Buffers: bufs}
		var wwrap func([]distsim.Handler) []distsim.Handler
		var wsess *reliable.Session
		if pol != nil {
			wsess = newWaveSession()
			wcfg.Transport = wsess
			wwrap = wsess.WrapAll
		}
		waveIdx++
		res, err := distsim.RunBFSRadiusWrapped(g, levelSets[i], 0, wcfg, wwrap)
		noteAbandoned(wsess)
		if err != nil {
			wspan.End(obs.S("error", err.Error()))
			span.End(obs.S("error", err.Error()))
			return nil, total, abandoned, fmt.Errorf("oracle: witness wave %d: %w", i, err)
		}
		add(res.Metrics)
		o.distTo[i] = res.Dist
		o.witness[i] = res.Nearest
		added := 0
		for v := int32(0); int(v) < n; v++ {
			if res.Dist[v] >= 1 && !marks.has(v, res.Parent[v]) {
				marks.add(v, res.Parent[v])
				added++
			}
		}
		wspan.End(obs.I(obs.AttrRounds, int64(res.Metrics.Rounds)),
			obs.I(obs.AttrMessages, res.Metrics.Messages),
			obs.I(obs.AttrWords, res.Metrics.Words),
			obs.I(obs.AttrEdges, int64(added)))
	}

	// Cluster floods per level; each node's tokens are its bunch entries at
	// that level.
	var stage []flatmap.Staged
	for i := 0; i < k; i++ {
		nodes := make([]tzNode, n)
		handlers := make([]distsim.Handler, n)
		for v := 0; v < n; v++ {
			distNext := int32(1<<31 - 1)
			if i+1 < k {
				if d := o.distTo[i+1][v]; d != graph.Unreachable {
					distNext = d
				}
			}
			nodes[v] = tzNode{
				self:     distsim.NodeID(v),
				isSource: int(o.level[v]) == i,
				distNext: distNext,
			}
			handlers[v] = &nodes[v]
		}
		fspan := span.Child("oracle.flood",
			obs.I(obs.AttrLevel, int64(i)), obs.I(obs.AttrSize, int64(len(levelSets[i]))))
		fcfg := distsim.Config{Faults: plan, Obs: ob, Parent: fspan, GoroutinePerNode: perNode,
			Buffers: bufs}
		engineHandlers := handlers
		var fsess *reliable.Session
		if pol != nil {
			fsess = newWaveSession()
			engineHandlers = fsess.WrapAll(handlers)
			fcfg.Transport = fsess
		}
		waveIdx++
		net, err := distsim.NewNetwork(g, engineHandlers, fcfg)
		if err != nil {
			fspan.End(obs.S("error", err.Error()))
			span.End(obs.S("error", err.Error()))
			return nil, total, abandoned, err
		}
		m, err := net.Run()
		noteAbandoned(fsess)
		if err != nil {
			fspan.End(obs.S("error", err.Error()))
			span.End(obs.S("error", err.Error()))
			return nil, total, abandoned, fmt.Errorf("oracle: cluster flood %d: %w", i, err)
		}
		add(m)
		fspan.End(obs.I(obs.AttrRounds, int64(m.Rounds)),
			obs.I(obs.AttrMessages, m.Messages), obs.I(obs.AttrWords, m.Words))
		for v := int32(0); int(v) < n; v++ {
			for w, d := range nodes[v].tokens {
				stage = append(stage, flatmap.Staged{Row: v, Entry: flatmap.Entry{Key: w, Val: d}})
			}
		}
	}
	o.bunch = flatmap.FromStaged(n, stage)

	// Bunch path edges for the oracle's spanner: retrace each bunch entry
	// via a neighbor one step closer holding the same token. (Sequentially
	// this is the via chain; here it is reconstructed locally from the
	// collected token tables, which the message-passing commit wave of
	// Sect. 4.4 would do with one round per hop.)
	for v := int32(0); int(v) < n; v++ {
		for _, e := range o.bunch.Row(v) {
			w, d := e.Key, e.Val
			if d == 0 {
				continue
			}
			for j, y := range g.Neighbors(v) {
				if dy, ok := o.bunch.Get(y, w); ok && dy == d-1 || y == w && d == 1 {
					marks.mark(v, j)
					break
				}
			}
		}
	}
	o.spanner = marks.keys()
	span.End(obs.I(obs.AttrEdges, int64(len(o.spanner))),
		obs.I(obs.AttrRounds, int64(total.Rounds)),
		obs.I(obs.AttrMessages, total.Messages),
		obs.I(obs.AttrWords, total.Words))
	return o, total, abandoned, nil
}
