package clusterserve

// The Router is the one coordinator over K ≥ 1 replica groups, each group a
// Cluster. Without a partition map it has one group that owns every vertex
// (a whole-graph deployment). With one, the graph is split
// (internal/partition) and the map pins which partition owns each vertex
// and the content checksum of every part. Queries go to the owning group
// and fail over — first within the group, then across groups, where any
// part can still answer (exactly for paths, as flagged composed landmark
// bounds for distances) — and, with no group quorate, degrade to flagged
// landmark bounds from any member. Mutations run one two-phase commit over
// every group (twophase.go).

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spanner/client"
	"spanner/internal/artifact"
)

// ErrPartitionedRoute reports a route query sent to a partitioned cluster:
// part graphs lack the foreign edges routing tables assume, so no member
// can serve one. Clients should query an unpartitioned deployment.
var ErrPartitionedRoute = errors.New("clusterserve: partitioned cluster does not serve route queries")

// Router coordinates the replica groups. Create with NewRouter, stop with
// Close. Safe for concurrent use.
type Router struct {
	cfg    Config
	ctrl   *http.Client // assignment probes
	groups []*Cluster   // index = partition id

	mu       sync.Mutex
	pm       *artifact.PartitionMap // nil without a map
	pending  []string               // URLs not yet assigned to a group
	assigned map[string]int         // url → partition id

	txnSeq         atomic.Int64
	rr             atomic.Uint64
	remoteServed   atomic.Int64 // queries served by a non-owner group
	degradedServed atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRouter builds the groups and starts their probers. Without
// cfg.MapPath there is one group seeded with cfg.Replicas. With it, the map
// is loaded, one group is built per partition, and an assignment prober
// sorts cfg.Replicas into groups by the partition each reports serving.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:      cfg,
		ctrl:     &http.Client{Timeout: cfg.ProbeTimeout},
		assigned: make(map[string]int),
		stop:     make(chan struct{}),
	}
	if !r.partitioned() {
		r.groups = []*Cluster{newCluster(cfg)}
		return r, nil
	}
	pm, err := artifact.LoadPartitionMap(cfg.MapPath)
	if err != nil {
		return nil, fmt.Errorf("clusterserve: loading partition map: %w", err)
	}
	r.pm = pm
	r.pending = append([]string(nil), cfg.Replicas...)
	for i := 0; i < pm.K; i++ {
		g := cfg
		g.Replicas = nil
		g.Seed = cfg.Seed ^ int64(uint64(i+1)*0x9e3779b97f4a7c15)
		r.groups = append(r.groups, newCluster(g))
	}
	r.wg.Add(1)
	go r.assignLoop()
	return r, nil
}

func (r *Router) partitioned() bool { return r.cfg.MapPath != "" }

// Close stops the assignment prober and every group.
func (r *Router) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
	for _, g := range r.groups {
		g.Close()
	}
}

// Add registers a replica URL (the /join path). Idempotent. Without a map
// the URL joins the one group directly; with one, the assignment prober
// places it in its partition's group once it answers /cluster/info.
func (r *Router) Add(url string) {
	if !r.partitioned() {
		r.groups[0].add(url)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.assigned[url]; ok {
		return
	}
	for _, u := range r.pending {
		if u == url {
			return
		}
	}
	r.pending = append(r.pending, url)
}

// Map returns the loaded partition map (nil without one).
func (r *Router) Map() *artifact.PartitionMap {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pm
}

// Group returns partition id's group (status pages, tests).
func (r *Router) Group(id int) *Cluster { return r.groups[id] }

// Gen returns the composed cluster generation: the minimum committed
// generation across groups, which by construction advances only when every
// group has committed — a mutation is never observable as partially
// committed here.
func (r *Router) Gen() int64 {
	gen := int64(0)
	for i, g := range r.groups {
		gg := g.Gen()
		if i == 0 || gg < gen {
			gen = gg
		}
	}
	return gen
}

// ---- member assignment ----------------------------------------------------

func (r *Router) assignLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.ProbeInterval)
	defer tick.Stop()
	r.assignPending()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.assignPending()
		}
	}
}

// assignPending probes every unassigned URL for the partition it serves.
// Assignment requires the member's split id to match the map: seeding a
// group's bootstrap generation from a member of a different split would
// lock every correct member out, so mismatches stay pending (logged) until
// an operator restarts them with the right part.
func (r *Router) assignPending() {
	r.mu.Lock()
	urls := append([]string(nil), r.pending...)
	pm := r.pm
	r.mu.Unlock()
	for _, url := range urls {
		select {
		case <-r.stop:
			return
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
		info, err := getInfo(ctx, r.ctrl, url)
		cancel()
		if err != nil {
			continue // unreachable; retry next round
		}
		switch {
		case !info.Partitioned:
			r.cfg.Logger.Warn("replica is not partitioned, refusing assignment", "url", url)
			continue
		case info.Partition < 0 || info.Partition >= len(r.groups):
			r.cfg.Logger.Warn("replica reports partition out of range",
				"url", url, "partition", info.Partition, "k", len(r.groups))
			continue
		case info.SplitID != pm.SplitID:
			r.cfg.Logger.Warn("replica split id disagrees with map, refusing assignment",
				"url", url, "partition", info.Partition,
				"replica_split", info.SplitID, "map_split", pm.SplitID)
			continue
		}
		r.groups[info.Partition].add(url)
		r.mu.Lock()
		r.assigned[url] = info.Partition
		for i, u := range r.pending {
			if u == url {
				r.pending = append(r.pending[:i], r.pending[i+1:]...)
				break
			}
		}
		r.mu.Unlock()
		r.cfg.Logger.Info("replica assigned to partition group",
			"url", url, "partition", info.Partition)
	}
}

// ---- query routing --------------------------------------------------------

// Query routes one query; see QueryTraced.
func (r *Router) Query(ctx context.Context, q client.Query) (client.Reply, error) {
	rep, _, err := r.QueryTraced(ctx, q)
	return rep, err
}

// owners returns the groups owning q's endpoints, refusing what a
// partitioned deployment cannot serve: route queries and vertices outside
// the map. Without a map every vertex is group 0's and the replica
// validates.
func owners(pm *artifact.PartitionMap, q client.Query) (gu, gv int, err error) {
	if pm == nil {
		return 0, 0, nil
	}
	if q.Type == "route" {
		return 0, 0, fmt.Errorf("%w: %w", client.ErrBadRequest, ErrPartitionedRoute)
	}
	if q.U < 0 || int(q.U) >= pm.N || q.V < 0 || int(q.V) >= pm.N {
		return 0, 0, fmt.Errorf("%w: vertex out of range [0,%d)", client.ErrBadRequest, pm.N)
	}
	return int(pm.Owner[q.U]), int(pm.Owner[q.V]), nil
}

// QueryTraced routes one query across the groups, failing over on
// transport errors, timeouts and 5xx and hedging the tail when configured:
//
//   - the owning groups' ready members go first; they answer exactly
//     (with a map, a cross-partition dist comes back flagged Composed with
//     the landmark-relay bracket unless boundary replication happens to
//     cover the pair).
//   - then every other quorate group's: exactly for paths (every part
//     carries the full spanner), as Composed bounds for dist.
//   - with no quorate group at all, dist degrades to flagged landmark
//     bounds from any reachable member; everything else is ErrNoQuorum.
//   - with a map, route queries are refused with ErrPartitionedRoute.
func (r *Router) QueryTraced(ctx context.Context, q client.Query) (client.Reply, QueryTrace, error) {
	gu, gv, err := owners(r.Map(), q)
	if err != nil {
		return client.Reply{}, QueryTrace{}, err
	}
	cands, nOwn := r.candidates(gu, gv)
	if len(cands) == 0 {
		return r.degraded(ctx, q)
	}
	rep, tr, err := r.groups[gu].raceQuery(ctx, cands, q)
	if err == nil && tr.Attempts > nOwn {
		r.remoteServed.Add(1)
	}
	return rep, tr, err
}

// candidates builds the ordered failover list for a pair owned by gu/gv:
// owner groups' ready members first (rotated for load spread), then every
// other quorate group's. nOwn is how many candidates belong to the owner
// groups — attempts beyond it were served remotely. Groups below quorum
// contribute nothing: their members may sit on an uncommitted generation.
func (r *Router) candidates(gu, gv int) (cands []*member, nOwn int) {
	appendGroup := func(id int) {
		ready, ok := r.groups[id].quorate()
		if !ok {
			return
		}
		start := int(r.rr.Add(1))
		for i := range ready {
			cands = append(cands, ready[(start+i)%len(ready)])
		}
	}
	appendGroup(gu)
	if gv != gu {
		appendGroup(gv)
	}
	nOwn = len(cands)
	for id := range r.groups {
		if id != gu && id != gv {
			appendGroup(id)
		}
	}
	return cands, nOwn
}

// degraded is the quorum-loss path: distance queries are served as
// flagged landmark bounds by ANY reachable member of any group — the
// landmark estimator is an upper bound on every generation of every part,
// so a possibly-stale answer is still a true bound and is always
// explicitly Degraded, never silently wrong. Other query types (paths
// reference generation-specific structure) fail with ErrNoQuorum.
func (r *Router) degraded(ctx context.Context, q client.Query) (client.Reply, QueryTrace, error) {
	tr := QueryTrace{Degraded: true}
	if q.Type != "dist" {
		return client.Reply{}, tr, fmt.Errorf("%w: %s; only dist degrades", ErrNoQuorum, r.unquorate(0))
	}
	q.AllowDegraded = true
	var members []*member
	for _, g := range r.groups {
		members = append(members, g.snapshotMembers()...)
	}
	if len(members) == 0 {
		return client.Reply{}, tr, fmt.Errorf("%w: no members", ErrNoReplicas)
	}
	start := int(r.rr.Add(1))
	var lastErr error
	for i := range members {
		m := members[(start+i)%len(members)]
		tr.Attempts++
		rep, err := m.cl.Query(ctx, q)
		if err == nil {
			r.degradedServed.Add(1)
			tr.Replica = m.url
			return rep, tr, nil
		}
		lastErr = err
		if i < len(members)-1 {
			tr.Failovers++
		}
		if ctx.Err() != nil {
			break
		}
	}
	return client.Reply{}, tr, fmt.Errorf("%w: degraded fallback exhausted: %v", ErrNoQuorum, lastErr)
}

// Batch splits a batch by owning group, sends each sub-batch to its group
// (falling back to any other quorate group — composed for dist, still
// exact for path), and merges replies back into input order.
func (r *Router) Batch(ctx context.Context, qs []client.Query) ([]client.Reply, error) {
	pm := r.Map()
	buckets := make([][]int, len(r.groups))
	for i, q := range qs {
		g, _, err := owners(pm, q)
		if err != nil {
			return nil, err
		}
		buckets[g] = append(buckets[g], i)
	}
	out := make([]client.Reply, len(qs))
	type subRes struct {
		idx []int
		rs  []client.Reply
		err error
	}
	resc := make(chan subRes, len(buckets))
	sent := 0
	for g, idx := range buckets {
		if len(idx) == 0 {
			continue
		}
		sub := make([]client.Query, len(idx))
		for j, i := range idx {
			sub[j] = qs[i]
		}
		sent++
		go func(g int, idx []int, sub []client.Query) {
			rs, err := r.subBatch(ctx, g, sub)
			resc <- subRes{idx: idx, rs: rs, err: err}
		}(g, idx, sub)
	}
	for ; sent > 0; sent-- {
		res := <-resc
		if res.err != nil {
			return nil, res.err
		}
		for j, i := range res.idx {
			out[i] = res.rs[j]
		}
	}
	return out, nil
}

// subBatch sends one owner's sub-batch to its group, falling over to the
// other quorate groups when the owner cannot serve.
func (r *Router) subBatch(ctx context.Context, owner int, sub []client.Query) ([]client.Reply, error) {
	rs, err := r.groups[owner].Batch(ctx, sub)
	if err == nil {
		return rs, nil
	}
	if errors.Is(err, client.ErrBadRequest) || errors.Is(err, client.ErrConflict) {
		return nil, err
	}
	for id, g := range r.groups {
		if id == owner {
			continue
		}
		if _, ok := g.quorate(); !ok {
			continue
		}
		if rs, err2 := g.Batch(ctx, sub); err2 == nil {
			r.remoteServed.Add(1)
			return rs, nil
		}
	}
	return nil, err
}

// ---- status ---------------------------------------------------------------

// Status is the unpartitioned view: the one group's status plus the
// router's quorum-loss count. A router with a map reports through
// PartitionedStatus.
func (r *Router) Status() Status {
	st := r.groups[0].Status()
	st.Degraded = r.degradedServed.Load()
	return st
}

// PartitionStatus is one partition group's row in PartitionedStatus.
type PartitionStatus struct {
	Partition int `json:"partition"`
	// Vertices is the partition's owned-vertex count from the map.
	Vertices int    `json:"vertices"`
	Status   Status `json:"status"`
}

// PartitionedStatus is a point-in-time view of the whole partitioned
// cluster.
type PartitionedStatus struct {
	// Gen is the composed generation (min across groups: advanced only
	// when every group committed).
	Gen     int64 `json:"gen"`
	SplitID int64 `json:"split_id"`
	K       int   `json:"k"`
	N       int   `json:"n"`
	// Pending lists replicas not yet assigned to a partition group.
	Pending []string          `json:"pending,omitempty"`
	Groups  []PartitionStatus `json:"groups"`
	// RemoteServed counts queries served by a non-owner group;
	// DegradedServed counts total-quorum-loss landmark-bound answers.
	RemoteServed   int64 `json:"remoteServed"`
	DegradedServed int64 `json:"degradedServed"`
}

// PartitionedStatus reports the composed view of a router with a map,
// groups ordered by partition id.
func (r *Router) PartitionedStatus() PartitionedStatus {
	r.mu.Lock()
	pm := r.pm
	pending := append([]string(nil), r.pending...)
	r.mu.Unlock()
	st := PartitionedStatus{
		Gen:            r.Gen(),
		SplitID:        pm.SplitID,
		K:              pm.K,
		N:              pm.N,
		Pending:        pending,
		RemoteServed:   r.remoteServed.Load(),
		DegradedServed: r.degradedServed.Load(),
	}
	for i, g := range r.groups {
		st.Groups = append(st.Groups, PartitionStatus{
			Partition: i,
			Vertices:  pm.Parts[i].Vertices,
			Status:    g.Status(),
		})
	}
	return st
}

// unquorate names every group with fewer than max(want, quorum) ready
// members; "" means every group has enough.
func (r *Router) unquorate(want int) string {
	var short []string
	for i, g := range r.groups {
		ready, ok := g.quorate()
		if !ok || len(ready) < want {
			short = append(short, fmt.Sprintf("group %d: %d/%d ready, quorum %d",
				i, len(ready), len(g.snapshotMembers()), g.quorum()))
		}
	}
	return strings.Join(short, "; ")
}

// Ready reports whether the router can serve exact answers: every group
// meets its quorum. The reason names the groups that do not.
func (r *Router) Ready() (bool, string) {
	reason := r.unquorate(0)
	return reason == "", reason
}

// WaitReady blocks until every group meets its quorum with at least want
// members ready (startup and test helper).
func (r *Router) WaitReady(ctx context.Context, want int) error {
	for {
		reason := r.unquorate(want)
		if reason == "" {
			return nil
		}
		select {
		case <-ctx.Done():
			r.mu.Lock()
			pending := strings.Join(r.pending, ",")
			r.mu.Unlock()
			return fmt.Errorf("clusterserve: %s (pending [%s]): %v", reason, pending, ctx.Err())
		case <-time.After(r.cfg.ProbeInterval / 4):
		}
	}
}
