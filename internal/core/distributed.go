package core

import (
	"math"
	"slices"

	"spanner/internal/distsim"
	"spanner/internal/faults"
	"spanner/internal/graph"
	"spanner/internal/obs"
	"spanner/internal/verify"
)

// This file implements Theorem 2's distributed construction of the
// linear-size spanner on the distsim engine. The message-level protocol
// follows Sect. 2's implementation description:
//
//   - Every vertex can compute the Expand schedule locally (it depends only
//     on n, D and κ), so sampling decisions are pre-drawn: each vertex
//     draws, for the hypothetical clusters it would head, the first call at
//     which that cluster is left unsampled (after which the cluster
//     dissolves). Members learn their cluster's decision when they join.
//   - Each vertex w maintains two spanner-edge pointers: p1(w) toward the
//     center of its contracted vertex π⁻¹(u) and p2(w) toward the center of
//     its current cluster (Fig. 4). Contraction is the purely local step
//     p1 := p2.
//   - One Expand call is: (1) every live vertex announces its contracted
//     vertex, cluster, and the cluster's sampling status to its neighbors;
//     (2) members of unsampled clusters convergecast their best
//     sampled-cluster candidate edge up the p1 tree; (3) the center either
//     picks a join edge and broadcasts it down (vertices on the path to the
//     chosen edge re-aim their p2 pointers toward it, everyone else sets
//     p2 := p1), or, with no candidate anywhere, runs the death procedure:
//     a pipelined convergecast of one candidate edge per adjacent cluster,
//     chunked to the message cap, with Theorem 2's abort rule (if more than
//     4·sᵢ·ln n clusters are seen, give up and keep every incident edge).
//
// Deviations from the paper, both conservative: phase boundaries are
// detected adaptively (children-counting) instead of by worst-case radius
// timetables, and a dying vertex's pipelined streaming runs inside its own
// call instead of overlapping subsequent calls, so measured round counts
// upper-bound the paper's schedule.

// Message type tags (first payload word).
const (
	mAnnounce int64 = iota + 1
	mReport
	mJoinChain
	mJoinOff
	mNotify
	mDeathReq
	mDeathTriples
	mDeathDone
	mAbort
	mDead
	mAbortDead
)

// skelCand is a candidate edge to a foreign cluster.
type skelCand struct {
	cluster int32 // foreign cluster id (center vertex of its head)
	tau     int64 // that cluster's first-unsampled call index
	u, v    int32 // representative original edge, u on our side
}

// skelNode is the per-vertex protocol state. One instance persists across
// every Expand call; the driver resets the per-call scratch between engine
// runs and performs the (local) contraction step.
type skelNode struct {
	self distsim.NodeID
	dead bool

	// Tree and cluster state.
	superCenter int32            // center of π⁻¹(u); identifies the contracted vertex
	cluster     int32            // current cluster id (center vertex of the cluster head)
	clusterTau  int64            // cluster's first-unsampled call index
	p1          distsim.NodeID   // parent toward superCenter (self at the center)
	p2          distsim.NodeID   // parent toward the cluster center
	children1   []distsim.NodeID // p1-tree children
	children2   []distsim.NodeID // p2-tree children (duplicates removed on contraction)

	// Per-call context, set by the driver.
	call       int64
	sampledNow bool
	abortQ     int
	chunk      int // death triples per message

	// Per-call scratch. It keeps its capacity from call to call, so a
	// vertex allocates only while its largest call's state is still growing.
	announceDone  bool
	cands         []skelCand
	candIdx       clusterSet // clusters of cands
	hasBest       bool
	best          skelCand
	bestFromChild distsim.NodeID // children1 supplier of best; self if local
	reportsLeft   int
	decided       bool

	deathSeenOn   bool       // deathSeen is live (the death procedure began)
	deathSeen     clusterSet // clusters already queued toward the root
	deathQueue    []skelCand
	deathDoneLeft int
	deathStarted  bool
	abortSent     bool

	// outEdges collects the spanner edges this vertex selected this call.
	outEdges []int64
	// payload is the scratch a death-triples message is built in.
	payload []int64
}

// clusterSet is a set of cluster ids that stops allocating once grown: a
// linear scan while it holds at most smallSet ids, an index map past that.
type clusterSet struct {
	ids []int32
	idx map[int32]struct{} // every id, once len(ids) > smallSet
}

const smallSet = 16

func (c *clusterSet) has(id int32) bool {
	if len(c.ids) <= smallSet {
		return slices.Contains(c.ids, id)
	}
	_, ok := c.idx[id]
	return ok
}

// add inserts id and reports whether it was new.
func (c *clusterSet) add(id int32) bool {
	if c.has(id) {
		return false
	}
	c.ids = append(c.ids, id)
	switch {
	case len(c.ids) == smallSet+1:
		if c.idx == nil {
			c.idx = make(map[int32]struct{}, 4*smallSet)
		}
		for _, x := range c.ids {
			c.idx[x] = struct{}{}
		}
	case len(c.ids) > smallSet+1:
		c.idx[id] = struct{}{}
	}
	return true
}

func (c *clusterSet) reset() {
	if len(c.ids) > smallSet {
		clear(c.idx)
	}
	c.ids = c.ids[:0]
}

var _ distsim.Handler = (*skelNode)(nil)

func (s *skelNode) isRoot() bool { return int32(s.self) == s.superCenter }

// resetCall prepares the scratch state for the next Expand call.
func (s *skelNode) resetCall(callIdx int64, abortQ, cap int) {
	s.call = callIdx
	s.sampledNow = callIdx < s.clusterTau
	s.abortQ = abortQ
	s.chunk = 1 << 20
	if cap > 0 {
		s.chunk = (cap - 2) / 3
		if s.chunk < 1 {
			s.chunk = 1
		}
	}
	s.announceDone = false
	s.cands = s.cands[:0]
	s.candIdx.reset()
	s.hasBest = false
	s.bestFromChild = -1
	s.reportsLeft = len(s.children1)
	s.decided = false
	s.deathSeenOn = false
	s.deathSeen.reset()
	s.deathQueue = s.deathQueue[:0]
	s.deathDoneLeft = 0
	s.deathStarted = false
	s.abortSent = false
	s.outEdges = s.outEdges[:0]
}

// contractLocal performs the end-of-round step: p1 := p2 (Fig. 4's "each
// vertex w will simply set p1(w) equal to p2(w)").
func (s *skelNode) contractLocal() {
	if s.dead {
		return
	}
	s.p1 = s.p2
	s.superCenter = s.cluster
	s.children1 = append(s.children1[:0], s.children2...)
	slices.Sort(s.children1)
	s.children1 = slices.Compact(s.children1)
}

func (s *skelNode) Start(n *distsim.NodeCtx) {
	if s.dead {
		return
	}
	sampled := int64(0)
	if s.sampledNow {
		sampled = 1
	}
	n.Broadcast(mAnnounce, int64(s.superCenter), int64(s.cluster), sampled, s.clusterTau)
	// Ensure the round-1 handler fires even for vertices with no live
	// neighbors (they must still decide to die this call).
	n.WakeNextRound()
}

func (s *skelNode) HandleRound(n *distsim.NodeCtx, inbox []distsim.Message) {
	if s.dead {
		return
	}
	for _, m := range inbox {
		switch m.Data[0] {
		case mAnnounce:
			s.onAnnounce(m)
		case mReport:
			s.onReport(n, m)
		case mJoinChain:
			s.onJoin(n, m, true)
		case mJoinOff:
			s.onJoin(n, m, false)
		case mNotify:
			s.children2 = append(s.children2, m.From)
		case mDeathReq:
			s.startDeath(n)
		case mDeathTriples:
			s.onDeathTriples(n, m)
		case mDeathDone:
			s.deathDoneLeft--
		case mAbort:
			s.onAbort(n)
		case mDead:
			s.die(n, false)
		case mAbortDead:
			s.die(n, true)
		}
		if s.dead {
			return
		}
	}
	// End-of-inbox transitions. The first invocation of the call is the
	// announce round (every live vertex broadcast in Start and woke itself).
	if !s.announceDone {
		s.announceDone = true
		s.afterAnnounce(n)
		return
	}
	if !s.sampledNow && !s.decided && s.reportsLeft == 0 && !s.deathStarted {
		s.finishConvergecast(n)
	}
	if s.deathStarted && !s.dead {
		s.pumpDeath(n)
	}
}

func (s *skelNode) onAnnounce(m distsim.Message) {
	superC := int32(m.Data[1])
	clusterC := int32(m.Data[2])
	sampled := m.Data[3] == 1
	tau := m.Data[4]
	_ = superC
	if clusterC == s.cluster {
		return // same cluster: not a candidate
	}
	if !s.candIdx.add(clusterC) {
		return // already have a representative edge to this cluster
	}
	c := skelCand{cluster: clusterC, tau: tau, u: int32(s.self), v: int32(m.From)}
	s.cands = append(s.cands, c)
	if sampled && (!s.hasBest || c.cluster < s.best.cluster) {
		s.hasBest = true
		s.best = c
		s.bestFromChild = s.self
	}
}

// afterAnnounce runs once all announcements are in (end of round 1).
func (s *skelNode) afterAnnounce(n *distsim.NodeCtx) {
	if s.sampledNow {
		return // our cluster grows passively; nothing to do
	}
	if s.reportsLeft == 0 {
		s.finishConvergecast(n)
	}
}

func (s *skelNode) onReport(n *distsim.NodeCtx, m distsim.Message) {
	s.reportsLeft--
	if m.Data[1] == 1 {
		c := skelCand{
			cluster: int32(m.Data[2]), tau: m.Data[3],
			u: int32(m.Data[4]), v: int32(m.Data[5]),
		}
		if !s.hasBest || c.cluster < s.best.cluster {
			s.hasBest = true
			s.best = c
			s.bestFromChild = m.From
		}
	}
	if s.reportsLeft == 0 && !s.decided {
		s.finishConvergecast(n)
	}
}

// finishConvergecast fires when every child has reported: forward the best
// candidate up, or decide at the root.
func (s *skelNode) finishConvergecast(n *distsim.NodeCtx) {
	s.decided = true
	if !s.isRoot() {
		if s.hasBest {
			n.Send(s.p1, mReport, 1, int64(s.best.cluster), s.best.tau, int64(s.best.u), int64(s.best.v))
		} else {
			n.Send(s.p1, mReport, 0, 0, 0, 0, 0)
		}
		return
	}
	// Root decision: join the best sampled cluster or die.
	if s.hasBest {
		s.adoptCluster(s.best.cluster, s.best.tau)
		if s.bestFromChild == s.self {
			s.joinTerminal(n)
			s.sendJoinDown(n, -1)
		} else {
			s.rechain(s.bestFromChild, -1)
			n.Send(s.bestFromChild, mJoinChain, int64(s.best.cluster), s.best.tau)
			s.sendJoinDown(n, s.bestFromChild)
		}
		return
	}
	s.startDeathAsRoot(n)
}

// adoptCluster records the new cluster identity after a join.
func (s *skelNode) adoptCluster(cluster int32, tau int64) {
	s.cluster = cluster
	s.clusterTau = tau
}

// joinTerminal is run by the vertex owning the chosen edge (u',w'): include
// the edge, aim p2 across it, and notify w' that it gained a subtree.
func (s *skelNode) joinTerminal(n *distsim.NodeCtx) {
	s.outEdges = append(s.outEdges, graph.EdgeKey(s.best.u, s.best.v))
	s.p2 = distsim.NodeID(s.best.v)
	s.children2 = append(s.children2[:0], s.children1...)
	if !s.isRoot() {
		s.children2 = append(s.children2, s.p1)
	}
	n.Send(distsim.NodeID(s.best.v), mNotify)
}

// rechain re-aims p2 down toward the chain child that owns the winning edge.
func (s *skelNode) rechain(chainChild, parent distsim.NodeID) {
	s.p2 = chainChild
	s.children2 = s.children2[:0]
	for _, c := range s.children1 {
		if c != chainChild {
			s.children2 = append(s.children2, c)
		}
	}
	if parent >= 0 {
		s.children2 = append(s.children2, parent)
	}
}

// resetP2 restores the default p2 := p1 for off-chain vertices (Fig. 4).
func (s *skelNode) resetP2() {
	s.p2 = s.p1
	s.children2 = append(s.children2[:0], s.children1...)
}

// sendJoinDown propagates the join decision to every child except the chain
// child (which got mJoinChain).
func (s *skelNode) sendJoinDown(n *distsim.NodeCtx, chainChild distsim.NodeID) {
	for _, c := range s.children1 {
		if c != chainChild {
			n.Send(c, mJoinOff, int64(s.cluster), s.clusterTau)
		}
	}
}

func (s *skelNode) onJoin(n *distsim.NodeCtx, m distsim.Message, chain bool) {
	s.adoptCluster(int32(m.Data[1]), m.Data[2])
	if !chain {
		s.resetP2()
		s.sendJoinDown(n, -1)
		return
	}
	if s.bestFromChild == s.self {
		s.joinTerminal(n)
		s.sendJoinDown(n, -1)
		return
	}
	s.rechain(s.bestFromChild, m.From)
	n.Send(s.bestFromChild, mJoinChain, int64(s.cluster), s.clusterTau)
	s.sendJoinDown(n, s.bestFromChild)
}

// --- death procedure ---

func (s *skelNode) startDeathAsRoot(n *distsim.NodeCtx) {
	s.startDeath(n)
}

func (s *skelNode) startDeath(n *distsim.NodeCtx) {
	if s.deathStarted {
		return
	}
	s.deathStarted = true
	s.deathDoneLeft = len(s.children1)
	s.deathSeenOn = true
	s.deathQueue = append(s.deathQueue[:0], s.cands...)
	for _, c := range s.cands {
		s.deathSeen.add(c.cluster)
	}
	for _, c := range s.children1 {
		n.Send(c, mDeathReq)
	}
	s.checkAbort(n)
	if !s.dead {
		s.pumpDeath(n)
	}
}

func (s *skelNode) onDeathTriples(n *distsim.NodeCtx, m distsim.Message) {
	k := int(m.Data[1])
	for i := 0; i < k; i++ {
		c := skelCand{
			cluster: int32(m.Data[2+3*i]),
			u:       int32(m.Data[3+3*i]),
			v:       int32(m.Data[4+3*i]),
		}
		if s.deathSeen.add(c.cluster) {
			s.deathQueue = append(s.deathQueue, c)
		}
	}
	s.checkAbort(n)
}

// checkAbort applies Theorem 2's q > 4·sᵢ·ln n rule.
func (s *skelNode) checkAbort(n *distsim.NodeCtx) {
	if s.abortQ <= 0 || len(s.deathSeen.ids) <= s.abortQ || s.abortSent {
		return
	}
	s.abortSent = true
	if s.isRoot() {
		s.die(n, true)
		return
	}
	n.Send(s.p1, mAbort)
}

func (s *skelNode) onAbort(n *distsim.NodeCtx) {
	if s.isRoot() {
		s.die(n, true)
		return
	}
	if !s.abortSent {
		s.abortSent = true
		n.Send(s.p1, mAbort)
	}
}

// pumpDeath streams queued triples toward the root, chunked to the message
// cap, and emits completion when the subtree is drained.
func (s *skelNode) pumpDeath(n *distsim.NodeCtx) {
	if s.abortSent {
		return // abort in flight; streaming is moot
	}
	if s.isRoot() {
		if s.deathDoneLeft == 0 {
			// Every adjacent cluster collected: select exactly one edge per
			// cluster (line 7 of Expand) and dissolve.
			for _, c := range s.deathQueue {
				s.outEdges = append(s.outEdges, graph.EdgeKey(c.u, c.v))
			}
			s.die(n, false)
		}
		return
	}
	if len(s.deathQueue) > 0 {
		k := s.chunk
		if k > len(s.deathQueue) {
			k = len(s.deathQueue)
		}
		s.payload = append(s.payload[:0], mDeathTriples, int64(k))
		for _, c := range s.deathQueue[:k] {
			s.payload = append(s.payload, int64(c.cluster), int64(c.u), int64(c.v))
		}
		s.deathQueue = s.deathQueue[k:]
		n.SendWords(s.p1, s.payload)
	}
	if len(s.deathQueue) > 0 {
		n.WakeNextRound()
		return
	}
	if s.deathDoneLeft == 0 {
		n.Send(s.p1, mDeathDone)
		s.deathStarted = false // drained; nothing further to pump
	}
}

// die finalizes the vertex. With keepAll set (the abort rule) it first
// includes every incident original edge.
func (s *skelNode) die(n *distsim.NodeCtx, keepAll bool) {
	if keepAll {
		for _, w := range n.Neighbors() {
			s.outEdges = append(s.outEdges, graph.EdgeKey(int32(s.self), int32(w)))
		}
	}
	tag := mDead
	if keepAll {
		tag = mAbortDead
	}
	for _, c := range s.children1 {
		n.Send(c, tag)
	}
	s.dead = true
}

// degradeSample is the edge-sample size degradation reports use to estimate
// achieved stretch.
const degradeSample = 64

// DistributedResult reports a distributed skeleton run.
type DistributedResult struct {
	Spanner *graph.EdgeSet
	// Metrics aggregates engine metrics across every Expand call.
	Metrics distsim.Metrics
	// CallMetrics holds the per-call engine metrics in schedule order.
	CallMetrics []distsim.Metrics
	// Calls is the schedule that was executed.
	Calls []Call
	// MaxMsgWords is the message cap that was enforced.
	MaxMsgWords int
	// Health records verifier-gated repair when Options.Resilience was set
	// (nil otherwise). Degradation is explicit here, never silent.
	Health *verify.HealReport
	// Abandoned lists the directed links the reliable transport gave up on
	// (Options.Reliable runs only; empty after a clean run).
	Abandoned [][2]distsim.NodeID
	// Degradation is the graceful-degradation report: set when
	// Options.Degrade is true and the build failed or abandoned links, in
	// which case Spanner is the partial result and the error is absorbed
	// here instead of returned.
	Degradation *verify.DegradationReport
	// BuildErr is the error of the initial distributed build that healing
	// recovered from (empty when the build itself succeeded).
	BuildErr string
}

// BuildSkeletonDistributed runs Theorem 2's protocol on the distsim engine
// and returns the spanner together with the communication metrics. The
// message cap is ⌈log₂^κ n⌉ words (at least 8, the protocol's largest fixed
// message) and is enforced strictly: a protocol bug that violates the model
// fails the run rather than silently succeeding.
func BuildSkeletonDistributed(g *graph.Graph, opts Options) (*DistributedResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := g.N()
	res := &DistributedResult{Spanner: graph.NewEdgeSet(2 * n)}
	if n == 0 {
		return res, nil
	}
	res.Calls = Schedule(n, opts)

	// Message cap: O(log^κ n) words.
	msgCap := int(math.Ceil(math.Pow(math.Log2(float64(n)), opts.Kappa)))
	if msgCap < 8 {
		msgCap = 8
	}
	res.MaxMsgWords = msgCap

	sr, err := RunExpandScheduleOpts(g, res.Calls, ScheduleOpts{
		Seed: opts.Seed, MsgCap: msgCap, Faults: opts.Faults, Obs: opts.Obs,
		Label: "skeleton.dist", Reliable: opts.Reliable,
		CheckpointDir: opts.CheckpointDir, CheckpointEvery: opts.CheckpointEvery,
		Resume: opts.Resume, goroutinePerNode: opts.goroutinePerNode,
	})
	if err != nil && opts.Resilience == nil && !opts.Degrade {
		return nil, err
	}
	res.Spanner = sr.Spanner
	res.Metrics = sr.Metrics
	res.CallMetrics = sr.PerCall
	res.Abandoned = sr.Abandoned
	if err != nil {
		res.BuildErr = err.Error()
	}
	if opts.Degrade && (err != nil || len(sr.Abandoned) > 0) {
		// Graceful degradation: absorb the failure into a typed report on
		// the partial spanner instead of an error.
		cause, detail := verify.CauseAbandoned, ""
		if err != nil {
			cause, detail = verify.CauseBuildError, err.Error()
		}
		abandoned := make([][2]int32, len(sr.Abandoned))
		for i, l := range sr.Abandoned {
			abandoned[i] = [2]int32{int32(l[0]), int32(l[1])}
		}
		bound := int(math.Ceil(DistortionBound(n, opts)))
		res.Degradation = verify.Degrade(g, res.Spanner, bound, cause, detail,
			abandoned, degradeSample, opts.Seed)
	}
	if opts.Resilience != nil {
		r := *opts.Resilience
		bound := r.Bound(int(math.Ceil(DistortionBound(n, opts))))
		res.Health = verify.Heal(g, res.Spanner, bound, r,
			func(residual *graph.Graph, attempt int) (*graph.EdgeSet, error) {
				seed := opts.Seed + int64(attempt)<<32
				if attempt >= r.Attempts() {
					// Last attempt: sequential, fault-free reconstruction on
					// the residual damage.
					seqOpts := opts
					seqOpts.Faults = nil
					seqOpts.Resilience = nil
					seqOpts.Seed = seed
					sr, serr := BuildSkeleton(residual, seqOpts)
					if serr != nil {
						return nil, serr
					}
					return sr.Spanner, nil
				}
				// Distributed retry on the residual subgraph, still under the
				// fault plan (fresh injector stream, so retries differ) and,
				// when configured, under the reliable transport.
				hr, rerr := RunExpandScheduleOpts(residual, Schedule(residual.N(), opts),
					ScheduleOpts{Seed: seed, MsgCap: msgCap, Faults: opts.Faults,
						Obs: opts.Obs, Label: "skeleton.heal", Reliable: opts.Reliable})
				res.Metrics.Add(hr.Metrics)
				return hr.Spanner, rerr
			})
	}
	return res, nil
}

// RunExpandSchedule executes the distributed Expand protocol over an
// arbitrary call schedule (the Section 2 skeleton uses the tower schedule;
// Baswana–Sen is the same protocol over k fixed-probability calls without
// contraction). The schedule should end with a zero-probability call so
// every vertex resolves. msgCap <= 0 disables the message cap. plan (nil
// ok) injects faults into every engine run. o (nil ok) receives one span
// per Expand call labeled with the contraction level, nested under a root
// span named label.
//
// On error the returned edge set is the partial spanner built so far (never
// nil), so verifier-gated healing can repair the residual damage instead of
// starting over.
func RunExpandSchedule(g *graph.Graph, schedule []Call, seed int64, msgCap int, plan *faults.Plan, o *obs.Observer, label string) (*graph.EdgeSet, distsim.Metrics, []distsim.Metrics, error) {
	r, err := RunExpandScheduleOpts(g, schedule, ScheduleOpts{
		Seed: seed, MsgCap: msgCap, Faults: plan, Obs: o, Label: label,
	})
	return r.Spanner, r.Metrics, r.PerCall, err
}
