// Package dynamic maintains a valid spanner incrementally under batched
// edge updates, the serving-system counterpart of the one-shot pipelines:
// a build is frozen into an artifact once, then kept alive under churn.
//
// The maintenance strategy mirrors the role the cluster structure plays in
// the paper. An inserted edge only matters when it is not already covered
// within the stretch bound, so insertions are filtered against the current
// stretch certificate (a truncated BFS in the maintained spanner) and
// admitted only when uncovered — the dynamic analogue of a cluster center
// absorbing a vertex it already dominates. For deletions the maintainer
// keeps the certificates themselves materialized: every graph edge stores
// the spanner-edge keys of one witness path of length ≤ bound, and an
// inverted index maps each spanner edge to the certificates whose witness
// runs through it. A deletion can only invalidate certificates whose
// stored witness used a deleted spanner edge, so repair re-checks exactly
// that dependent set — typically a handful of edges, independent of n —
// and hands the still-uncovered residue to verifier-gated repair
// (verify.Heal). When accumulated drift exceeds a budget — size ratio,
// repaired-edge count, or batch count — a rebuild scheduler escalates to a
// full from-scratch rebuild.
//
// The witness index is built whole only at construction and after a full
// rebuild. At the bound a skeleton's stretch implies (13–18 at n = 5000) a
// witness search covers most of the spanner, so the build is an all-pairs
// BFS in all but name. It runs as verify.Certify, the forward-edge
// certificate sweep on graph's multi-source, bit-parallel BFS kernel
// (MS-BFS): 64 searches share each pass over a vertex's spanner neighbours,
// for O(⌈n/64⌉·L·(n+|S|)) time at depth L, and the 64-source sweeps are
// spread over runtime.GOMAXPROCS(0) workers. The same sweep derives the
// bound (DeriveBound) and picks exactly the witness paths a per-vertex BFS
// would.
//
// Everything randomized takes an explicit seed; the same seed yields the
// same stream, the same admissions, and the same maintained spanner.
package dynamic

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"spanner/internal/baseline"
	"spanner/internal/graph"
	"spanner/internal/obs"
	"spanner/internal/verify"
)

// Op is the kind of a single edge update.
type Op uint8

const (
	// OpInsert adds an edge to the graph.
	OpInsert Op = iota
	// OpDelete removes an edge from the graph.
	OpDelete
)

// String renders the op for logs.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Update is a single edge insertion or deletion.
type Update struct {
	Op   Op
	U, V int32
}

// Batch is an ordered group of updates applied atomically: the maintained
// spanner is guaranteed valid at batch boundaries, not between individual
// updates.
type Batch []Update

// ErrBadUpdate reports an update whose endpoints are out of range or equal.
var ErrBadUpdate = errors.New("dynamic: update endpoint out of range")

// ErrInvalidSpanner reports that the initial spanner handed to NewMaintainer
// does not satisfy the stretch bound (or is not a subgraph).
var ErrInvalidSpanner = errors.New("dynamic: initial spanner does not satisfy bound")

// RebuildPolicy decides when accumulated churn escalates to a full rebuild.
// Each budget is checked after every batch; exceeding any one triggers the
// escalation. Zero values take defaults; negative values disable a budget.
type RebuildPolicy struct {
	// MaxSizeRatio escalates when the maintained spanner grows past this
	// multiple of its size at the last full build (default 2.0; <0 disables).
	MaxSizeRatio float64
	// MaxRepairedEdges escalates once localized repair has added this many
	// edges since the last full build (0 disables).
	MaxRepairedEdges int
	// MaxBatches escalates after this many batches since the last full
	// build (0 disables).
	MaxBatches int
}

func (p RebuildPolicy) withDefaults() RebuildPolicy {
	if p.MaxSizeRatio == 0 {
		p.MaxSizeRatio = 2.0
	}
	return p
}

// Config configures a Maintainer. The zero value is usable: the bound is
// derived from the initial spanner and repairs/rebuilds use the greedy
// construction at the matching k.
type Config struct {
	// Bound is the stretch bound to maintain, as an edge certificate: every
	// graph edge (u,v) keeps δ_S(u,v) ≤ Bound. 0 derives the bound from the
	// initial spanner's worst edge stretch (floored at 3).
	Bound int
	// Policy is the rebuild-escalation budget.
	Policy RebuildPolicy
	// Resilience tunes the verifier-gated repair pass (attempt budget,
	// backoff). The zero value is usable.
	Resilience verify.Resilience
	// Rebuild produces a fresh spanner of g meeting Bound when the policy
	// escalates. Nil uses the greedy (2k−1)-spanner with k = (Bound+1)/2.
	Rebuild func(g *graph.Graph) (*graph.EdgeSet, error)
	// Repair is the verify.Heal rebuild callback used for localized repair.
	// Nil uses the greedy construction on the residual.
	Repair func(residual *graph.Graph, attempt int) (*graph.EdgeSet, error)
	// VerifyEach runs the full edge-certificate verifier after every batch
	// and records the result in the report. Intended for tests and
	// experiments; production callers rely on the localized invariant.
	VerifyEach bool
	// Obs receives dynamic.* counters and histograms (nil = off).
	Obs *obs.Observer
}

// BatchReport records what one ApplyBatch did. All key slices are sorted
// canonical edge keys, so reports are deterministic given the seed.
type BatchReport struct {
	// Seq is the 1-based batch number within this maintainer.
	Seq int

	// Inserted counts insert ops applied to the graph (excludes duplicates).
	Inserted int
	// InsertDups counts insert ops whose edge was already present.
	InsertDups int
	// Admitted counts inserted edges added to the spanner (uncovered).
	Admitted int
	// Filtered counts inserted edges already covered within the bound.
	Filtered int
	// Deleted counts delete ops applied to the graph (excludes misses).
	Deleted int
	// DeleteMisses counts delete ops whose edge was absent.
	DeleteMisses int
	// SpannerDeleted counts deleted edges that were in the spanner —
	// exactly the deletions that can break certificates.
	SpannerDeleted int

	// Candidates counts the certificates whose stored witness path used a
	// deleted spanner edge — the edges re-checked after this batch's
	// deletions (0 when no spanner edge was deleted).
	Candidates int
	// Heal is the localized repair report (nil when no repair ran).
	Heal *verify.HealReport
	// RepairedEdges counts spanner edges added by localized repair.
	RepairedEdges int
	// Rebuilt is true when the escalation policy triggered a full rebuild.
	Rebuilt bool

	// VerifyChecked/PostViolations report the optional full verification
	// (Config.VerifyEach).
	VerifyChecked  bool
	PostViolations int

	// GraphAdd/GraphDel/SpanAdd/SpanDel are the net edge-key deltas of this
	// batch, in the order a delta codec applies them.
	GraphAdd, GraphDel []int64
	SpanAdd, SpanDel   []int64

	// SpannerSize and GraphM are the sizes after the batch.
	SpannerSize int
	GraphM      int
	// Elapsed is the wall-clock batch time.
	Elapsed time.Duration
}

// Verified reports whether the optional per-batch verification passed.
func (r *BatchReport) Verified() bool {
	return r.VerifyChecked && r.PostViolations == 0
}

// Maintainer holds a graph and a spanner of it, and applies update batches
// while keeping the spanner's stretch certificate valid. It is not safe for
// concurrent use; serving layers serialize updates (serve.Engine.ApplyDelta).
type Maintainer struct {
	cfg   Config
	n     int
	bound int

	edges   *graph.EdgeSet // current graph edges
	spanner *graph.EdgeSet // maintained spanner
	g       *graph.Graph   // lazy CSR of edges (see Graph); gDirty marks staleness
	gDirty  bool
	// sadj is the spanner's live adjacency, mutated in lockstep with the
	// spanner set — batches never pay a CSR rematerialization for the BFS
	// traffic (profiling showed Builder.Build dominating batch cost).
	sadj [][]int32

	baselineSize  int // |S| at the last full build
	repairedSince int
	batchesSince  int
	rebuilds      int
	seq           int

	dist []int32 // BFS scratch, len n, Unreachable outside calls

	// witness stores, per graph-edge key, the spanner-edge keys of one
	// witness path of length ≤ bound certifying that edge; usedBy is the
	// inverted index (spanner-edge key → dependent graph-edge keys). Kept
	// in lockstep with edges/spanner so deletions re-check only the
	// certificates that actually died.
	witness map[int64][]int64
	usedBy  map[int64]map[int64]struct{}

	mAdmitted, mFiltered *obs.Counter
	mDeletes, mRepaired  *obs.Counter
	mRebuilds            *obs.Counter
	mBatchUS             *obs.Histogram
	mViolations          *obs.Histogram
}

// NewMaintainer validates that spanner is a subgraph of g satisfying the
// configured bound and returns a maintainer over independent copies of both
// (the caller's graph and edge set are never mutated).
//
// Validation, the bound derivation (when Config.Bound ≤ 0) and the witness
// index are one run of verify.Certify: O(⌈n/64⌉·L·(n+|S|))
// time for spanner depth L (the bound, or the worst edge stretch when
// derived), on runtime.GOMAXPROCS(0) workers, each holding O(n) words of
// scratch.
func NewMaintainer(g *graph.Graph, spanner *graph.EdgeSet, cfg Config) (*Maintainer, error) {
	if g == nil || spanner == nil {
		return nil, errors.New("dynamic: nil graph or spanner")
	}
	if !spanner.Subset(g) {
		return nil, fmt.Errorf("%w: spanner has edges outside the graph", ErrInvalidSpanner)
	}
	m := &Maintainer{
		cfg:          cfg,
		n:            g.N(),
		bound:        cfg.Bound,
		edges:        graph.NewEdgeSet(g.M()),
		spanner:      spanner.Clone(),
		g:            g,
		baselineSize: spanner.Len(),
	}
	g.ForEachEdge(func(u, v int32) { m.edges.Add(u, v) })
	span := m.rebuildAdj()
	m.dist = make([]int32, m.n)
	for i := range m.dist {
		m.dist[i] = graph.Unreachable
	}
	// Building the witness index doubles as the validity check: it fails
	// exactly when some graph edge has no spanner path within the bound.
	// With no bound configured, the same pass derives it.
	if err := m.initWitnesses(span); err != nil {
		return nil, err
	}
	reg := cfg.Obs.Registry()
	m.mAdmitted = reg.Counter("dynamic.inserts", obs.Label{Key: "fate", Value: "admitted"})
	m.mFiltered = reg.Counter("dynamic.inserts", obs.Label{Key: "fate", Value: "filtered"})
	m.mDeletes = reg.Counter("dynamic.deletes")
	m.mRepaired = reg.Counter("dynamic.repair.edges")
	m.mRebuilds = reg.Counter("dynamic.rebuilds")
	m.mBatchUS = reg.Histogram("dynamic.batch_us")
	m.mViolations = reg.Histogram("dynamic.batch_violations")
	return m, nil
}

// DeriveBound returns the worst edge stretch of spanner over g — the
// tightest bound the edge certificate already satisfies — floored at 3 (the
// smallest nontrivial spanner stretch). It errors when some graph edge's
// endpoints are disconnected in the spanner.
func DeriveBound(g *graph.Graph, spanner *graph.EdgeSet) (int, error) {
	return boundOf(verify.Certify(g, spanner.ToGraph(g.N()), -1, false))
}

// boundOf turns a check with no radius into DeriveBound's answer.
func boundOf(c *verify.Certificates) (int, error) {
	if len(c.Violated) > 0 {
		u, count := c.Violated[0][0], 0
		for _, e := range c.Violated {
			if e[0] == u {
				count++
			}
		}
		return 0, fmt.Errorf("dynamic: cannot derive bound: %d graph edges at vertex %d unreachable in spanner", count, u)
	}
	return int(max(c.Worst, 3)), nil
}

// Bound returns the maintained stretch bound.
func (m *Maintainer) Bound() int { return m.bound }

// Graph returns the current graph, materializing it if updates have been
// applied since the last call. The returned value is replaced, never
// mutated, so callers may hold it across batches.
func (m *Maintainer) Graph() *graph.Graph {
	if m.gDirty {
		m.g = m.edges.ToGraph(m.n)
		m.gDirty = false
	}
	return m.g
}

// rebuildAdj reconstructs the spanner adjacency from scratch in sorted key
// order — adjacency order feeds witness-path tie-breaking, so it must be a
// deterministic function of the history, never map iteration order. It
// returns the spanner as a graph, whose sorted lists are the adjacency's
// until the next update.
func (m *Maintainer) rebuildAdj() *graph.Graph {
	keys := m.spanner.Keys()
	sortKeys(keys)
	span := graph.FromKeys(m.n, keys)
	m.sadj = make([][]int32, m.n)
	for v := range m.sadj {
		m.sadj[v] = slices.Clone(span.Neighbors(int32(v)))
	}
	return span
}

// addAdj/delAdj keep the spanner adjacency in lockstep with the spanner
// set. delAdj swap-removes, so neighbor order depends on update history —
// deterministically, since the history is seeded.
func (m *Maintainer) addAdj(u, v int32) {
	m.sadj[u] = append(m.sadj[u], v)
	m.sadj[v] = append(m.sadj[v], u)
}

func (m *Maintainer) delAdj(u, v int32) {
	drop := func(x, y int32) {
		l := m.sadj[x]
		for i, w := range l {
			if w == y {
				l[i] = l[len(l)-1]
				m.sadj[x] = l[:len(l)-1]
				return
			}
		}
	}
	drop(u, v)
	drop(v, u)
}

// Spanner returns the maintained spanner edge set. Treat it as read-only;
// it is mutated in place by ApplyBatch.
func (m *Maintainer) Spanner() *graph.EdgeSet { return m.spanner }

// Size returns the maintained spanner's edge count.
func (m *Maintainer) Size() int { return m.spanner.Len() }

// Rebuilds returns how many full rebuilds the scheduler has triggered.
func (m *Maintainer) Rebuilds() int { return m.rebuilds }

// Batches returns how many batches have been applied.
func (m *Maintainer) Batches() int { return m.seq }

// defaultK maps the bound to the greedy parameter: a (2k−1)-spanner with
// k = (bound+1)/2 satisfies 2k−1 ≤ bound.
func (m *Maintainer) defaultK() int {
	k := (m.bound + 1) / 2
	if k < 1 {
		k = 1
	}
	return k
}

func (m *Maintainer) rebuildFull(g *graph.Graph) (*graph.EdgeSet, error) {
	if m.cfg.Rebuild != nil {
		return m.cfg.Rebuild(g)
	}
	res, err := baseline.Greedy(g, m.defaultK())
	if err != nil {
		return nil, err
	}
	return res.Spanner, nil
}

func (m *Maintainer) repairFn(residual *graph.Graph, attempt int) (*graph.EdgeSet, error) {
	if m.cfg.Repair != nil {
		return m.cfg.Repair(residual, attempt)
	}
	res, err := baseline.Greedy(residual, m.defaultK())
	if err != nil {
		return nil, err
	}
	return res.Spanner, nil
}

// initWitnesses computes a witness path for every graph edge with one
// verify.Certify run over span, the spanner as rebuildAdj returned it, and
// builds the inverted index. It errors when some edge is uncovered, so it
// doubles as the full validity check. With no bound set yet, the run has
// no radius and derives the bound as DeriveBound does.
func (m *Maintainer) initWitnesses(span *graph.Graph) error {
	radius := int32(m.bound)
	if m.bound <= 0 {
		radius = -1
	}
	c := verify.Certify(m.Graph(), span, radius, true)
	if m.bound <= 0 {
		b, err := boundOf(c)
		if err != nil {
			return err
		}
		m.bound = b
	}
	if len(c.Violated) > 0 {
		return fmt.Errorf("%w: %d edges stretched past %d", ErrInvalidSpanner, len(c.Violated), m.bound)
	}
	// Count each spanner edge's uses first, so every inner set is made at
	// its final size and none grows while the paths are filed.
	uses := make(map[int64]int, m.spanner.Len())
	for _, path := range c.Paths {
		for _, sk := range path {
			uses[sk]++
		}
	}
	m.usedBy = make(map[int64]map[int64]struct{}, len(uses))
	for sk, k := range uses {
		m.usedBy[sk] = make(map[int64]struct{}, k)
	}
	m.witness = make(map[int64][]int64, m.edges.Len())
	for i, gk := range c.Keys {
		m.witness[gk] = c.Paths[i]
		for _, sk := range c.Paths[i] {
			m.usedBy[sk][gk] = struct{}{}
		}
	}
	return nil
}

// setWitness records path as gk's certificate, replacing any previous one
// in the inverted index.
func (m *Maintainer) setWitness(gk int64, path []int64) {
	m.clearWitness(gk)
	m.witness[gk] = path
	for _, sk := range path {
		set := m.usedBy[sk]
		if set == nil {
			set = make(map[int64]struct{}, 2)
			m.usedBy[sk] = set
		}
		set[gk] = struct{}{}
	}
}

// clearWitness drops gk's certificate and its inverted-index entries.
func (m *Maintainer) clearWitness(gk int64) {
	for _, sk := range m.witness[gk] {
		if set := m.usedBy[sk]; set != nil {
			delete(set, gk)
			if len(set) == 0 {
				delete(m.usedBy, sk)
			}
		}
	}
	delete(m.witness, gk)
}

// walkWitness reconstructs the edge keys of a shortest u→v path from the
// settled dist array of a BFS rooted at u, stepping to any neighbor one
// level closer (adjacency order, so deterministic given the seed).
func (m *Maintainer) walkWitness(dist []int32, u, v int32) []int64 {
	keys := make([]int64, 0, dist[v])
	for x := v; x != u; {
		dx := dist[x]
		next := int32(-1)
		for _, y := range m.sadj[x] {
			if dist[y] == dx-1 {
				next = y
				break
			}
		}
		keys = append(keys, graph.EdgeKey(x, next))
		x = next
	}
	return keys
}

// coveredPath runs a truncated BFS from u over the live spanner adjacency
// and, when v is within bound hops, returns the witness path's
// spanner-edge keys.
func (m *Maintainer) coveredPath(u, v int32) ([]int64, bool) {
	if len(m.sadj[u]) == 0 {
		return nil, false
	}
	dist := m.dist
	dist[u] = 0
	reached := []int32{u}
	found := false
	limit := int32(m.bound)
	for head := 0; head < len(reached) && !found; head++ {
		x := reached[head]
		dx := dist[x]
		if dx == limit {
			continue
		}
		for _, y := range m.sadj[x] {
			if dist[y] != graph.Unreachable {
				continue
			}
			dist[y] = dx + 1
			reached = append(reached, y)
			if y == v {
				found = true
				break
			}
		}
	}
	var keys []int64
	if found {
		keys = m.walkWitness(dist, u, v)
	}
	graph.ResetDistScratch(dist, reached)
	return keys, found
}

// ApplyBatch applies one update batch and restores the stretch certificate:
// deletions first, then insertions filtered against the certificate, then
// verifier-gated localized repair scoped to the balls around deleted
// spanner edges, then the rebuild-escalation check. The report carries the
// net graph/spanner deltas for the artifact delta codec.
func (m *Maintainer) ApplyBatch(b Batch) (*BatchReport, error) {
	start := time.Now()
	// Validate before counting: a rejected batch leaves the maintainer
	// exactly as it was, its sequence number and rebuild budget included.
	for _, up := range b {
		if up.U < 0 || up.V < 0 || int(up.U) >= m.n || int(up.V) >= m.n || up.U == up.V {
			return nil, fmt.Errorf("%w: %s (%d,%d) on %d vertices", ErrBadUpdate, up.Op, up.U, up.V, m.n)
		}
	}
	m.seq++
	m.batchesSince++
	rep := &BatchReport{Seq: m.seq}

	// Phase 1: deletions. A deleted graph edge needs no certificate anymore;
	// a deleted spanner edge is recorded so its dependent certificates (via
	// the inverted index) get re-checked in phase 3.
	var delSpanKeys []int64
	for _, up := range b {
		if up.Op != OpDelete {
			continue
		}
		if !m.edges.Has(up.U, up.V) {
			rep.DeleteMisses++
			continue
		}
		gk := graph.EdgeKey(up.U, up.V)
		m.edges.RemoveKey(gk)
		m.clearWitness(gk)
		rep.Deleted++
		rep.GraphDel = append(rep.GraphDel, gk)
		if m.spanner.HasKey(gk) {
			m.spanner.RemoveKey(gk)
			m.delAdj(up.U, up.V)
			rep.SpannerDeleted++
			delSpanKeys = append(delSpanKeys, gk)
			rep.SpanDel = append(rep.SpanDel, gk)
		}
	}

	// Phase 2: insertions, filtered against the post-deletion certificate.
	// The live adjacency already reflects this batch's deletions, and each
	// admission lands in it immediately, so later inserts in the same batch
	// see earlier admissions.
	for _, up := range b {
		if up.Op != OpInsert {
			continue
		}
		if m.edges.Has(up.U, up.V) {
			rep.InsertDups++
			continue
		}
		gk := graph.EdgeKey(up.U, up.V)
		m.edges.AddKey(gk)
		rep.Inserted++
		rep.GraphAdd = append(rep.GraphAdd, gk)
		if path, ok := m.coveredPath(up.U, up.V); ok {
			rep.Filtered++
			m.setWitness(gk, path)
			continue
		}
		rep.Admitted++
		m.spanner.AddKey(gk)
		m.addAdj(up.U, up.V)
		m.setWitness(gk, []int64{gk})
		rep.SpanAdd = append(rep.SpanAdd, gk)
	}
	m.gDirty = true

	// Phase 3: localized repair. A certificate can only have broken if its
	// stored witness path ran through a spanner edge deleted this batch
	// (repair and insertion only ever add spanner edges). Re-check exactly
	// that dependent set against the post-update spanner; whatever is still
	// uncovered becomes the residual graph handed to verifier-gated repair.
	sizeBeforeRepair := m.spanner.Len()
	if len(delSpanKeys) > 0 {
		risk := make(map[int64]struct{})
		for _, sk := range delSpanKeys {
			for gk := range m.usedBy[sk] {
				risk[gk] = struct{}{}
			}
		}
		riskKeys := make([]int64, 0, len(risk))
		for gk := range risk {
			riskKeys = append(riskKeys, gk)
		}
		sortKeys(riskKeys)
		rep.Candidates = len(riskKeys)

		var residual []int64
		for _, gk := range riskKeys {
			u, v := graph.UnpackEdgeKey(gk)
			if path, ok := m.coveredPath(u, v); ok {
				m.setWitness(gk, path)
				continue
			}
			residual = append(residual, gk)
		}
		if len(residual) > 0 {
			sb := graph.NewBuilder(m.n)
			for _, gk := range residual {
				u, v := graph.UnpackEdgeKey(gk)
				sb.AddEdge(u, v)
			}
			beforeHeal := m.spanner.Clone()
			rep.Heal = verify.Heal(sb.Build(), m.spanner, m.bound, m.cfg.Resilience, m.repairFn)
			// Sync the adjacency and delta with whatever Heal admitted, in
			// sorted order (adjacency order must not depend on map order).
			var healed []int64
			m.spanner.ForEach(func(u, v int32) {
				if !beforeHeal.Has(u, v) {
					healed = append(healed, graph.EdgeKey(u, v))
				}
			})
			sortKeys(healed)
			for _, hk := range healed {
				u, v := graph.UnpackEdgeKey(hk)
				m.addAdj(u, v)
				rep.SpanAdd = append(rep.SpanAdd, hk)
			}
			// Re-witness the residue against the repaired spanner. Heal's
			// raw-edge fallback guarantees coverage unless it degraded.
			for _, gk := range residual {
				u, v := graph.UnpackEdgeKey(gk)
				if path, ok := m.coveredPath(u, v); ok {
					m.setWitness(gk, path)
				} else {
					m.clearWitness(gk) // degraded: VerifyEach will surface it
				}
			}
		}
	}
	rep.RepairedEdges = m.spanner.Len() - sizeBeforeRepair
	m.repairedSince += rep.RepairedEdges

	// Phase 4: rebuild escalation.
	p := m.cfg.Policy.withDefaults()
	trigger := p.MaxSizeRatio > 0 && m.baselineSize > 0 &&
		float64(m.spanner.Len()) > p.MaxSizeRatio*float64(m.baselineSize)
	trigger = trigger || (p.MaxRepairedEdges > 0 && m.repairedSince >= p.MaxRepairedEdges)
	trigger = trigger || (p.MaxBatches > 0 && m.batchesSince >= p.MaxBatches)
	if trigger {
		before := m.spanner
		fresh, err := m.rebuildFull(m.Graph())
		if err != nil {
			return nil, fmt.Errorf("dynamic: full rebuild failed: %w", err)
		}
		m.spanner = fresh.Clone()
		m.baselineSize = m.spanner.Len()
		m.repairedSince = 0
		m.batchesSince = 0
		m.rebuilds++
		rep.Rebuilt = true
		m.mRebuilds.Inc()
		// Fold the rebuild into the batch delta and rebuild the adjacency
		// and witness index (the latter re-validates the fresh spanner).
		m.spanner.ForEach(func(u, v int32) {
			if !before.Has(u, v) {
				rep.SpanAdd = append(rep.SpanAdd, graph.EdgeKey(u, v))
			}
		})
		before.ForEach(func(u, v int32) {
			if !m.spanner.Has(u, v) {
				rep.SpanDel = append(rep.SpanDel, graph.EdgeKey(u, v))
			}
		})
		if err := m.initWitnesses(m.rebuildAdj()); err != nil {
			return nil, fmt.Errorf("dynamic: rebuilt spanner violates bound: %w", err)
		}
	}

	// Deletions run before insertions and rebuild diffs are folded in, so a
	// key deleted and re-added within the batch is a net no-op; cancel both
	// sides so the delta stays strict.
	rep.GraphAdd, rep.GraphDel = cancelKeys(rep.GraphAdd, rep.GraphDel)
	rep.SpanAdd, rep.SpanDel = cancelKeys(rep.SpanAdd, rep.SpanDel)
	sortKeys(rep.GraphAdd)
	sortKeys(rep.GraphDel)
	sortKeys(rep.SpanAdd)
	sortKeys(rep.SpanDel)

	if m.cfg.VerifyEach {
		rep.VerifyChecked = true
		rep.PostViolations = len(verify.ViolatedEdges(m.Graph(), m.spanner, m.bound))
		m.mViolations.Observe(int64(rep.PostViolations))
	}

	rep.SpannerSize = m.spanner.Len()
	rep.GraphM = m.edges.Len()
	rep.Elapsed = time.Since(start)

	m.mAdmitted.Add(int64(rep.Admitted))
	m.mFiltered.Add(int64(rep.Filtered))
	m.mDeletes.Add(int64(rep.Deleted))
	m.mRepaired.Add(int64(rep.RepairedEdges))
	m.mBatchUS.Observe(rep.Elapsed.Microseconds())
	return rep, nil
}

func sortKeys(ks []int64) {
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
}

// cancelKeys removes keys present in both lists from each.
func cancelKeys(add, del []int64) ([]int64, []int64) {
	if len(add) == 0 || len(del) == 0 {
		return add, del
	}
	inDel := make(map[int64]bool, len(del))
	for _, k := range del {
		inDel[k] = true
	}
	both := make(map[int64]bool)
	outAdd := add[:0]
	for _, k := range add {
		if inDel[k] {
			both[k] = true
			continue
		}
		outAdd = append(outAdd, k)
	}
	if len(both) == 0 {
		return add, del
	}
	outDel := del[:0]
	for _, k := range del {
		if !both[k] {
			outDel = append(outDel, k)
		}
	}
	return outAdd, outDel
}
