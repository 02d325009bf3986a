package clusterserve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"

	"spanner/client"
	"spanner/internal/artifact"
)

// ErrPrepare reports a two-phase mutation aborted in phase one: no replica
// changed generation, the cluster still serves the old artifact. Wraps the
// first underlying prepare failure; a delta whose base no longer matches
// also matches client-style conflict handling via ErrConflictPrepare.
var ErrPrepare = errors.New("clusterserve: prepare failed, mutation aborted")

// ErrConflictPrepare reports a prepare refused as a state conflict (409):
// a delta bound to a base generation the replicas no longer serve.
// Unwraps to ErrPrepare.
var ErrConflictPrepare = fmt.Errorf("%w: base generation conflict", ErrPrepare)

// ErrComposedPrepare reports a map swap aborted in phase one: no group
// advanced, every staged part was rolled back. Wraps ErrPrepare.
var ErrComposedPrepare = fmt.Errorf("%w: composed mutation aborted across all partitions", ErrPrepare)

// MutationResult reports a committed generation change.
type MutationResult struct {
	// Gen is the new committed cluster generation.
	Gen int64 `json:"gen"`
	// Checksum identifies the new artifact.
	Checksum int64 `json:"checksum"`
	// Prepared and Committed count replicas through each phase.
	Prepared  int `json:"prepared"`
	Committed int `json:"committed"`
	// Ejected lists replicas dropped for failing commit after a successful
	// prepare (they catch up via replay when they come back).
	Ejected []string `json:"ejected,omitempty"`
}

// ComposedResult reports a committed map swap.
type ComposedResult struct {
	// Gen is the composed cluster generation every group now serves.
	Gen int64 `json:"gen"`
	// SplitID identifies the split now being served.
	SplitID int64 `json:"split_id"`
	// Groups holds each partition's mutation result, indexed by partition.
	Groups []MutationResult `json:"groups"`
}

// Swap advances an unpartitioned router to the artifact at path (a path
// every replica can read); Update does the same for a delta. Both are the
// one-group call of twoPhase.
func (r *Router) Swap(ctx context.Context, path string) (MutationResult, error) {
	return r.swapWhole(ctx, "artifact", path)
}

// Update applies the delta at path cluster-wide; see Swap.
func (r *Router) Update(ctx context.Context, path string) (MutationResult, error) {
	return r.swapWhole(ctx, "delta", path)
}

func (r *Router) swapWhole(ctx context.Context, kind, path string) (MutationResult, error) {
	if r.partitioned() {
		return MutationResult{}, fmt.Errorf("%w: a partitioned router advances by map swap only", client.ErrBadRequest)
	}
	res, err := r.twoPhase(ctx, kind, []string{path}, nil)
	if err != nil {
		return MutationResult{}, err
	}
	return res[0], nil
}

// SwapMap advances a partitioned router to the split described by the
// partition map at mapPath: every group's new part (resolved from the
// map's part references, relative to the map file) goes through one
// twoPhase call, checked against the checksum the map pins for it.
//
// The new map must have the same partition count as the current one; each
// replica additionally refuses a part whose partition id differs from the
// one it serves, so a swap can change the split (new SplitID) but never
// silently reshuffle which group owns which partition id.
func (r *Router) SwapMap(ctx context.Context, mapPath string) (ComposedResult, error) {
	if !r.partitioned() {
		return ComposedResult{}, fmt.Errorf("%w: an unpartitioned router swaps artifacts, not maps", client.ErrBadRequest)
	}
	pm, err := artifact.LoadPartitionMap(mapPath)
	if err != nil {
		return ComposedResult{}, fmt.Errorf("clusterserve: loading partition map: %w", err)
	}
	if pm.K != len(r.groups) {
		return ComposedResult{}, fmt.Errorf("clusterserve: map has %d partitions, cluster has %d — partition count is fixed at deployment",
			pm.K, len(r.groups))
	}
	paths := make([]string, pm.K)
	for _, ref := range pm.Parts {
		if ref.Path == "" {
			return ComposedResult{}, fmt.Errorf("clusterserve: map pins no path for partition %d", ref.ID)
		}
		p := ref.Path
		if !filepath.IsAbs(p) {
			p = filepath.Join(filepath.Dir(mapPath), p)
		}
		paths[ref.ID] = p
	}
	res, err := r.twoPhase(ctx, "part", paths, pm)
	if err != nil {
		return ComposedResult{}, err
	}
	return ComposedResult{Gen: r.Gen(), SplitID: pm.SplitID, Groups: res}, nil
}

// twoPhase advances every group from paths[i] ({kind: path} on the wire)
// through one two-phase commit; pm, when non-nil, is the new partition map
// whose pinned part checksums the staged parts must match.
//
// Phase one (prepare) pushes each group's path to all its ready members in
// parallel; each loads and verifies it — full checksum walk for artifacts
// and parts, base-checksum match plus apply for deltas — and stages the
// result without serving it. Any prepare failure, any checksum divergence
// between one group's staged results, or any divergence from a pinned
// checksum aborts the stage in EVERY group: replicas roll back by dropping
// it, and no generation advances. Two replicas can therefore never commit
// different artifacts under one generation number.
//
// Phase two records every group's generation first — the point of no
// return: from the first commit call onward some replica may serve the new
// generation, so the records must exist before any answer can carry it —
// then cuts every prepared member over in parallel. A member that dies
// between its prepare and its commit is ejected and reconciled later by
// its group's catch-up replay, whether it actually applied the commit
// (rejoins already at the new generation) or not (replays to it). The
// composed generation (Gen, the minimum across groups) therefore advances
// only once every group holds its record, and is never observable as
// partially committed.
func (r *Router) twoPhase(ctx context.Context, kind string, paths []string, pm *artifact.PartitionMap) ([]MutationResult, error) {
	// Group mutMus are always taken in index order, so concurrent calls
	// serialize on group 0's.
	for _, g := range r.groups {
		g.mutMu.Lock()
		defer g.mutMu.Unlock()
	}
	k := len(r.groups)
	readySets := make([][]*member, k)
	targets := make([]int64, k)
	for i, g := range r.groups {
		ready, ok := g.quorate()
		if !ok {
			return nil, fmt.Errorf("%w: group %d has %d ready < quorum %d — refusing a mutation that could not be verified on a majority",
				ErrNoQuorum, i, len(ready), g.quorum())
		}
		readySets[i] = ready
		targets[i] = g.Gen() + 1
	}
	txn := fmt.Sprintf("g%d-%d", targets[0], r.txnSeq.Add(1))

	// Phase one: prepare every group in parallel.
	results := make([][]prepRes, k)
	var wg sync.WaitGroup
	for i, g := range r.groups {
		wg.Add(1)
		go func(i int, g *Cluster) {
			defer wg.Done()
			results[i] = g.preparePhase(ctx, readySets[i], txn, targets[i], kind, paths[i])
		}(i, g)
	}
	wg.Wait()
	checksums := make([]int64, k)
	var prepErr error
	conflict := false
	for i := range r.groups {
		sum, conf, err := evalPrepare(results[i])
		conflict = conflict || conf
		if err == nil && pm != nil && sum != pm.Parts[i].Checksum {
			err = fmt.Errorf("staged checksum %d diverges from map's pinned %d", sum, pm.Parts[i].Checksum)
		}
		if err != nil && prepErr == nil {
			prepErr = err
			if pm != nil {
				prepErr = fmt.Errorf("partition %d: %v", i, err)
			}
		}
		checksums[i] = sum
	}
	if prepErr != nil {
		for i, g := range r.groups {
			g.abortAll(readySets[i], txn)
		}
		r.cfg.Logger.Warn("mutation aborted in prepare", "txn", txn, "kind", kind, "err", prepErr)
		var abort error
		switch {
		case pm == nil && conflict:
			abort = ErrConflictPrepare
		case pm == nil:
			abort = ErrPrepare
		case conflict:
			abort = fmt.Errorf("%w: %w", ErrConflictPrepare, ErrComposedPrepare)
		default:
			abort = ErrComposedPrepare
		}
		return nil, fmt.Errorf("%w: %v", abort, prepErr)
	}

	for i, g := range r.groups {
		g.recordCommit(genRecord{Gen: targets[i], Checksum: checksums[i], Kind: kind, Path: paths[i]})
	}
	if pm != nil {
		r.mu.Lock()
		r.pm = pm
		r.mu.Unlock()
	}

	// Phase two: commit every group in parallel.
	res := make([]MutationResult, k)
	for i, g := range r.groups {
		res[i] = MutationResult{Gen: targets[i], Checksum: checksums[i], Prepared: len(readySets[i])}
		wg.Add(1)
		go func(i int, g *Cluster) {
			defer wg.Done()
			g.commitPhase(ctx, readySets[i], txn, targets[i], checksums[i], &res[i])
		}(i, g)
	}
	wg.Wait()
	r.cfg.Logger.Info("mutation committed", "txn", txn, "kind", kind, "gen", r.Gen(), "groups", k)
	return res, nil
}

// prepRes is one replica's phase-one outcome.
type prepRes struct {
	m        *member
	checksum int64
	status   int
	err      error
}

// preparePhase pushes {kind: path} to every member in parallel and collects
// each staged checksum. It does not interpret the results — twoPhase does,
// through evalPrepare and the partition map's pins.
func (c *Cluster) preparePhase(ctx context.Context, members []*member, txn string, gen int64, kind, path string) []prepRes {
	results := make([]prepRes, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			body := map[string]any{"txn": txn, "gen": gen, kind: path}
			var out struct {
				Checksum int64 `json:"checksum"`
			}
			status, err := c.post(ctx, m, "/cluster/prepare", body, &out)
			results[i] = prepRes{m: m, checksum: out.Checksum, status: status, err: err}
		}(i, m)
	}
	wg.Wait()
	return results
}

// evalPrepare folds phase-one results into a single staged checksum,
// reporting the first failure and whether any replica refused with a state
// conflict (409). Checksum divergence between replicas that read the same
// path is a failure: nothing is safe to commit.
func evalPrepare(results []prepRes) (checksum int64, conflict bool, err error) {
	for _, r := range results {
		switch {
		case r.err != nil:
			if err == nil {
				err = r.err
			}
			if r.status == http.StatusConflict {
				conflict = true
			}
		case checksum == 0:
			checksum = r.checksum
		case r.checksum != checksum:
			// Replicas verified different artifacts from the same path —
			// divergent filesystems or a torn write. Nothing safe to commit.
			if err == nil {
				err = fmt.Errorf("staged checksum divergence: %d vs %d on %s",
					checksum, r.checksum, r.m.url)
			}
		}
	}
	return checksum, conflict, err
}

// recordCommit appends the generation record and advances the committed
// generation (twoPhase's point of no return).
func (c *Cluster) recordCommit(rec genRecord) {
	c.mu.Lock()
	c.records = append(c.records, rec)
	c.gen = rec.Gen
	c.mu.Unlock()
}

// commitPhase cuts every prepared member over in parallel. Failures eject
// (the prober replays them back in); successes route immediately. The
// committed/ejected tallies are folded into res.
func (c *Cluster) commitPhase(ctx context.Context, members []*member, txn string, gen, checksum int64, res *MutationResult) {
	type comRes struct {
		m   *member
		err error
	}
	coms := make([]comRes, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			_, err := c.post(ctx, m, "/cluster/commit", map[string]any{"txn": txn, "gen": gen}, nil)
			coms[i] = comRes{m: m, err: err}
		}(i, m)
	}
	wg.Wait()
	for _, r := range coms {
		if r.err == nil {
			res.Committed++
			r.m.mu.Lock()
			r.m.gen = gen
			r.m.checksum = checksum
			r.m.mu.Unlock()
			continue
		}
		res.Ejected = append(res.Ejected, r.m.url)
		r.m.mu.Lock()
		wasReady := r.m.ready
		r.m.ready = false
		r.m.consecOK = 0
		r.m.lastErr = "commit failed: " + r.err.Error()
		r.m.mu.Unlock()
		if wasReady {
			c.ejections.Add(1)
		}
		c.cfg.Logger.Warn("replica ejected: commit failed",
			"url", r.m.url, "txn", txn, "gen", gen, "err", r.err)
	}
}

// abortAll rolls back a failed prepare everywhere, best-effort: a replica
// that misses the abort (crashed, partitioned) keeps an orphaned stage,
// which the prober clears or the next prepare supersedes.
func (c *Cluster) abortAll(members []*member, txn string) {
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ControlTimeout)
			defer cancel()
			_, _ = c.post(ctx, m, "/cluster/abort", map[string]string{"txn": txn}, nil)
		}(m)
	}
	wg.Wait()
}
