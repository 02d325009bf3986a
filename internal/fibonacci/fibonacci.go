package fibonacci

import (
	"math/rand"
	"strconv"

	"spanner/internal/faults"
	"spanner/internal/graph"
	"spanner/internal/obs"
	"spanner/internal/reliable"
	"spanner/internal/verify"
)

// itoa is strconv.Itoa, local so gauge-label call sites stay short.
func itoa(i int) string { return strconv.Itoa(i) }

// Options configures Build and BuildDistributed.
type Options struct {
	// Order is o ∈ [1, log_φ log n]; 0 selects the sparsest admissible
	// order log_φ log n.
	Order int
	// Epsilon is ε ∈ (0,1]; the spanner is a (1+ε, β)-spanner for distant
	// pairs. Defaults to 0.5.
	Epsilon float64
	// Ell overrides ℓ (0 = the Theorem 8 default 3(o+t)/ε + 2).
	Ell int
	// T requests maximum message length O(n^{1/t}) for the distributed
	// construction (0 = unbounded); per Sect. 4.4 it raises the effective
	// order by at most t.
	T int
	// Seed seeds the level sampling.
	Seed int64
	// DisablePruning turns off the Thorup–Zwick token-forwarding rule
	// (ablation D3 in DESIGN.md): the ball flood then delivers every
	// level-i token within ℓ^i regardless of δ(·,V_{i+1}). The spanner can
	// only gain edges; the point of the ablation is the message blowup.
	DisablePruning bool
	// Obs, when non-nil, receives phase spans (one per level, labeled with
	// the Fibonacci level), per-round engine events for the distributed
	// build, and registry metrics. Nil disables observability.
	Obs *obs.Observer
	// Faults attaches a deterministic fault-injection plan to the
	// distributed build's engine waves (nil, or a zero plan, keeps the
	// lossless model). Build ignores it.
	Faults *faults.Plan
	// Resilience enables verifier-gated repair of the distributed build
	// against the adjacent-pair stretch bound StretchBoundAt(1, o, ℓ); the
	// outcome lands in DistributedResult.Health. Nil makes faulty builds
	// fail hard.
	Resilience *verify.Resilience
	// Reliable wraps every engine wave of the distributed build in the
	// reliable transport: retransmission recovers wire faults so the waves
	// complete exactly rather than being healed afterwards. Each wave gets
	// an independent jitter stream derived from the policy seed.
	Reliable *reliable.Policy
	// Degrade makes a failed or link-abandoning distributed build return
	// its partial spanner plus DistributedResult.Degradation instead of an
	// error.
	Degrade bool
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 0.5
	}
	return o
}

// LevelStats describes one level of the hierarchy after construction.
type LevelStats struct {
	Level      int
	Size       int   // |V_i|
	Radius     int64 // ℓ^i (clamped to n)
	BallSum    int   // Σ_{v ∈ V_{i-1}} |B_{i+1,ℓ}(v)|
	BallMax    int   // max ball size at this level
	EdgesAfter int   // cumulative spanner size after this level
}

// Result is the outcome of Build.
type Result struct {
	Params  *Params
	Spanner *graph.EdgeSet
	// LevelOf[v] is the highest i with v ∈ V_i.
	LevelOf []int8
	Levels  []LevelStats
}

// Build constructs a Fibonacci spanner of g sequentially. The distributed
// construction (BuildDistributed) computes exactly the same set when the
// Monte Carlo cessation rule does not fire.
func Build(g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	n := g.N()
	if n == 0 {
		p, err := ResolveParams(1, 1, opts.Epsilon, opts.Ell, opts.T)
		if err != nil {
			return nil, err
		}
		return &Result{Params: p, Spanner: graph.NewEdgeSet(0)}, nil
	}
	params, err := ResolveParams(n, opts.Order, opts.Epsilon, opts.Ell, opts.T)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	levelOf := SampleLevels(n, params, rng)
	res := &Result{
		Params:  params,
		Spanner: graph.NewEdgeSet(4 * n),
		LevelOf: levelOf,
	}
	o := params.Order
	span := opts.Obs.StartSpan("fib.build",
		obs.I("n", int64(n)), obs.I("m", int64(g.M())),
		obs.I("order", int64(o)), obs.I("ell", int64(params.Ell)))

	// Per-level distances δ(·, V_i) with min-id parents, i = 1..o.
	// dists[i] is nil when V_i is empty (δ = ∞ everywhere).
	dists := make([][]int32, o+2)
	parents := make([][]int32, o+2)
	levelSets := make([][]int32, o+1)
	for v := int32(0); int(v) < n; v++ {
		for i := 0; i <= int(levelOf[v]) && i <= o; i++ {
			levelSets[i] = append(levelSets[i], v)
		}
	}
	for i := 1; i <= o; i++ {
		if len(levelSets[i]) == 0 {
			continue
		}
		d, near, _ := g.MultiSourceBFS(levelSets[i])
		dists[i] = d
		parents[i] = canonicalParents(g, d, near)
	}

	// S₀: every vertex with δ(v,V₁) ≥ 2 (or ∞) keeps all incident edges.
	s0span := span.Child("fib.s0", obs.I(obs.AttrLevel, 0))
	for v := int32(0); int(v) < n; v++ {
		d1 := distAt(dists[1], v)
		if d1 >= 2 {
			for _, w := range g.Neighbors(v) {
				res.Spanner.Add(v, w)
			}
		}
	}
	s0span.End(obs.I(obs.AttrEdges, int64(res.Spanner.Len())))

	for i := 1; i <= o; i++ {
		stats := LevelStats{Level: i, Size: len(levelSets[i]), Radius: clampRadius(params.Radius[i], n)}
		lspan := span.Child("fib.level",
			obs.I(obs.AttrLevel, int64(i)), obs.I(obs.AttrSize, int64(stats.Size)),
			obs.I("radius", stats.Radius))
		opts.Obs.Registry().Gauge("fib.level_size", obs.Label{Key: "level", Value: itoa(i)}).Set(int64(stats.Size))
		edgesBefore := res.Spanner.Len()

		// Parent forest: union over v of P(v, p_i(v)) for δ(v,V_i) ≤ ℓ^{i-1}.
		// A vertex u lies on such a path iff δ(u,V_i) ≤ ℓ^{i-1}; its own
		// parent edge is exactly the next path edge.
		if dists[i] != nil {
			rPar := clampRadius(params.Radius[i-1], n)
			for v := int32(0); int(v) < n; v++ {
				dv := dists[i][v]
				if dv >= 1 && int64(dv) <= rPar {
					res.Spanner.Add(v, parents[i][v])
				}
			}
		}

		// Ball part of S_i: connect every v ∈ V_{i-1} to B_{i+1,ℓ}(v).
		if len(levelSets[i]) > 0 {
			pruneDist := dists[i+1]
			if opts.DisablePruning {
				pruneDist = nil
			}
			ballSum, ballMax := floodAndCommit(g, levelSets[i], pruneDist, levelOf, int8(i-1),
				clampRadius(params.Radius[i], n), res.Spanner)
			stats.BallSum = ballSum
			stats.BallMax = ballMax
		}
		stats.EdgesAfter = res.Spanner.Len()
		lspan.End(obs.I(obs.AttrEdges, int64(stats.EdgesAfter-edgesBefore)),
			obs.I("ball_sum", int64(stats.BallSum)), obs.I("ball_max", int64(stats.BallMax)),
			obs.I("edges_after", int64(stats.EdgesAfter)))
		res.Levels = append(res.Levels, stats)
	}
	span.End(obs.I(obs.AttrEdges, int64(res.Spanner.Len())),
		obs.I("levels", int64(len(res.Levels))))
	return res, nil
}

// SampleLevels draws the nested hierarchy: every vertex starts at level 0
// and is promoted from level i-1 to i with probability q_i/q_{i-1}.
func SampleLevels(n int, params *Params, rng *rand.Rand) []int8 {
	levelOf := make([]int8, n)
	for v := 0; v < n; v++ {
		lvl := int8(0)
		for i := 1; i <= params.Order; i++ {
			if rng.Float64() < params.Q[i]/params.Q[i-1] {
				lvl = int8(i)
			} else {
				break
			}
		}
		levelOf[v] = lvl
	}
	return levelOf
}

// tokenInfo records the arrival of a source token at a vertex.
type tokenInfo struct {
	d   int32
	via int32 // predecessor toward the source; -1 at the source itself
}

// floodAndCommit runs the pruned multi-source token flood of Sect. 4.4 from
// the level-i sources and commits shortest paths from every level-(i-1)
// vertex to each ball member. distNext is δ(·,V_{i+1}) (nil = ∞). It
// returns the total and maximum ball sizes over the owners.
//
// The pruning rule forwards the token of u ∈ V_i through x only while
// δ(x,u) < δ(x,V_{i+1}) (and within the radius). By the standard
// Thorup–Zwick argument, every vertex v still learns its full ball: for any
// u with δ(v,u) < δ(v,V_{i+1}), every x on a shortest u–v path satisfies
// δ(x,u) = δ(v,u) − δ(x,v) < δ(v,V_{i+1}) − δ(x,v) ≤ δ(x,V_{i+1}).
func floodAndCommit(g *graph.Graph, sources []int32, distNext []int32,
	levelOf []int8, ownerLevel int8, radius int64, spanner *graph.EdgeSet) (ballSum, ballMax int) {

	n := g.N()
	tokens := make([]map[int32]tokenInfo, n)
	type entry struct{ x, u int32 }
	frontier := make([]entry, 0, len(sources))
	for _, u := range sources {
		if distAt(distNext, u) <= 0 {
			continue // u ∈ V_{i+1}: it can never be in a ball
		}
		if tokens[u] == nil {
			tokens[u] = make(map[int32]tokenInfo, 4)
		}
		tokens[u][u] = tokenInfo{d: 0, via: -1}
		frontier = append(frontier, entry{x: u, u: u})
	}
	for d := int64(1); d <= radius && len(frontier) > 0; d++ {
		var next []entry
		for _, e := range frontier {
			for _, y := range g.Neighbors(e.x) {
				if int64(distAt(distNext, y)) <= d {
					continue // pruned: y is at least as close to V_{i+1}
				}
				if tokens[y] == nil {
					tokens[y] = make(map[int32]tokenInfo, 4)
				}
				if prev, ok := tokens[y][e.u]; ok {
					// Canonical tie-break (shared with the distributed
					// protocol): among same-distance deliverers, the
					// minimum-id predecessor wins.
					if prev.d == int32(d) && e.x < prev.via {
						tokens[y][e.u] = tokenInfo{d: int32(d), via: e.x}
					}
					continue
				}
				tokens[y][e.u] = tokenInfo{d: int32(d), via: e.x}
				next = append(next, entry{x: y, u: e.u})
			}
		}
		frontier = next
	}

	// Commit shortest paths from each owner to its ball members.
	for v := int32(0); int(v) < n; v++ {
		if levelOf[v] < ownerLevel || tokens[v] == nil {
			continue
		}
		ball := len(tokens[v])
		ballSum += ball
		if ball > ballMax {
			ballMax = ball
		}
		for u := range tokens[v] {
			x := v
			for x != u {
				info := tokens[x][u]
				spanner.Add(x, info.via)
				x = info.via
			}
		}
	}
	return ballSum, ballMax
}

// canonicalParents derives shortest-path-forest parents deterministically
// from distances and owners: parent(v) is the minimum-id neighbor one step
// closer with the same owning source. This is exactly the choice the
// distributed BFS protocol makes (sorted inboxes pick the minimum sender),
// so the sequential and distributed constructions emit identical forests.
func canonicalParents(g *graph.Graph, dist, nearest []int32) []int32 {
	parent := make([]int32, g.N())
	for v := int32(0); int(v) < g.N(); v++ {
		parent[v] = graph.Unreachable
		switch {
		case dist[v] == 0:
			parent[v] = v
		case dist[v] > 0:
			for _, u := range g.Neighbors(v) { // sorted ascending
				if dist[u] == dist[v]-1 && nearest[u] == nearest[v] {
					parent[v] = u
					break
				}
			}
		}
	}
	return parent
}

// distAt reads a distance array treating nil slices and Unreachable entries
// as "infinitely far" (MaxInt32).
func distAt(dist []int32, v int32) int32 {
	if dist == nil {
		return 1<<31 - 1
	}
	if d := dist[v]; d != graph.Unreachable {
		return d
	}
	return 1<<31 - 1
}

func clampRadius(r int64, n int) int64 {
	if r > int64(n) {
		return int64(n)
	}
	return r
}
