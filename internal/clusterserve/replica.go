// Package clusterserve is the multi-node serving tier: a health-gated
// router/coordinator (Cluster) fronting N spannerd replicas, and the
// replica-side agent (Replica) that gives each daemon a cluster control
// plane. Together they keep a fleet of replicas answering dist/path/route
// queries with the single-node zero-wrong-answer guarantee while
// individual nodes die, restart and rejoin.
//
// The consistency unit is the cluster generation: a monotone counter the
// router assigns, mapped 1:1 to an artifact checksum. Generations advance
// only through a two-phase swap — prepare (every live replica loads and
// verifies the new artifact or delta, staging the result without serving
// it) then commit (each replica atomically cuts over) — with
// abort-and-rollback on any prepare failure, so two replicas can never
// serve different artifacts under the same generation. A replica that
// misses a commit (killed mid-swap) restarts from its own crash-safe
// recovery scan (internal/recovery.LastGood plus delta replay), reports
// its checksum, and the router replays the recorded prepare/commit chain
// to walk it forward to the committed generation before routing to it
// again.
//
// Cluster generations are deliberately distinct from engine snapshot ids:
// a snapshot id is a replica-local counter that restarts from 1 after a
// crash, so it cannot be compared across nodes. Replies carry both — the
// replica translates the snapshot id that actually answered into the
// cluster generation it was committed under, atomically enough that an
// in-flight query finishing on the old snapshot during a commit is stamped
// with the old generation.
package clusterserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"

	"spanner/internal/artifact"
	"spanner/internal/serve"
)

// replicaInfo is the /cluster/info wire form, the router's probe target.
type replicaInfo struct {
	// Gen is the committed cluster generation (0 before adoption).
	Gen int64 `json:"gen"`
	// Checksum identifies the artifact currently serving.
	Checksum int64 `json:"checksum"`
	// Snapshot is the replica-local engine generation behind Checksum.
	Snapshot int64 `json:"snapshot"`
	// N is the vertex count (workload generators size themselves by it).
	N int `json:"n"`
	// Ready reports whether the replica may receive routed traffic;
	// Reason says why not ("unadopted", "swap-prepare").
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
	// Partitioned marks a replica serving one partition of a split graph;
	// Partition is its id and SplitID names the split it belongs to. The
	// partition router groups members by Partition and refuses members
	// whose SplitID disagrees with the loaded map.
	Partitioned bool  `json:"partitioned,omitempty"`
	Partition   int   `json:"partition,omitempty"`
	SplitID     int64 `json:"split_id,omitempty"`
}

// genMapMax bounds the snapshot→generation translation map; snapshots
// older than the newest genMapMax commits translate to 0 (unknown), which
// only affects replies pinned before ~64 generations of churn ago.
const genMapMax = 64

// Replica is the replica-side cluster agent wrapped around a serving
// engine. It owns the staged-generation state machine (prepare / commit /
// abort), the adoption handshake, and the snapshot-id→cluster-generation
// translation for replies. Safe for concurrent use.
type Replica struct {
	eng    *serve.Engine
	logger *slog.Logger

	mu         sync.Mutex
	stagedArt  *artifact.Artifact
	stagedPart *artifact.Part
	stagedSum  int64 // checksum of whichever stage is pending
	stagedTxn  string
	stagedGen  int64
	gen        int64           // committed cluster generation; 0 = unadopted
	byEngine   map[int64]int64 // engine snapshot id → cluster generation
	sums       map[int64]int64 // engine snapshot id → content checksum (probe cache)
}

// NewReplica builds the cluster agent for eng. A nil logger discards.
func NewReplica(eng *serve.Engine, logger *slog.Logger) *Replica {
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	return &Replica{eng: eng, logger: logger,
		byEngine: make(map[int64]int64), sums: make(map[int64]int64)}
}

// Gen returns the committed cluster generation (0 before adoption).
func (r *Replica) Gen() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// GenOf translates an engine snapshot id into the cluster generation it
// was committed under (0 when unknown — pre-adoption snapshots).
func (r *Replica) GenOf(engineSnap int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byEngine[engineSnap]
}

// Ready reports whether the replica may receive routed traffic, with the
// reason when it may not. A staged-but-uncommitted generation parks the
// replica: the router must not route to a node that may cut over (or roll
// back) at any instant of an in-flight two-phase swap.
func (r *Replica) Ready() (bool, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.gen == 0:
		return false, "unadopted"
	case r.stagedArt != nil || r.stagedPart != nil:
		return false, "swap-prepare"
	}
	return true, ""
}

// checksumOf returns the content checksum identifying what snap serves —
// the part checksum for a partition snapshot (what the partition map pins),
// the artifact checksum otherwise — memoized per engine snapshot id so the
// probe loop doesn't recompute it every round.
func (r *Replica) checksumOf(snap *serve.Snapshot) int64 {
	r.mu.Lock()
	if sum, ok := r.sums[snap.ID]; ok {
		r.mu.Unlock()
		return sum
	}
	r.mu.Unlock()
	var sum int64
	if p := snap.Part(); p != nil {
		sum = p.Checksum()
	} else {
		sum = snap.Art.Checksum()
	}
	r.mu.Lock()
	r.sums[snap.ID] = sum
	for len(r.sums) > genMapMax {
		min := int64(-1)
		for k := range r.sums {
			if min < 0 || k < min {
				min = k
			}
		}
		delete(r.sums, min)
	}
	r.mu.Unlock()
	return sum
}

// info snapshots the probe answer.
func (r *Replica) info() replicaInfo {
	snap := r.eng.Snapshot()
	checksum := r.checksumOf(snap)
	ready, reason := r.Ready()
	r.mu.Lock()
	gen := r.gen
	r.mu.Unlock()
	info := replicaInfo{
		Gen:      gen,
		Checksum: checksum,
		Snapshot: snap.ID,
		N:        snap.N(),
		Ready:    ready,
		Reason:   reason,
	}
	if p := snap.Part(); p != nil {
		info.Partitioned = true
		info.Partition = p.ID
		info.SplitID = p.SplitID
	}
	return info
}

// mapGen records engine snapshot id → cluster generation, pruning the
// oldest entries past genMapMax.
func (r *Replica) mapGen(engineSnap, clusterGen int64) {
	r.byEngine[engineSnap] = clusterGen
	for len(r.byEngine) > genMapMax {
		min := int64(-1)
		for k := range r.byEngine {
			if min < 0 || k < min {
				min = k
			}
		}
		delete(r.byEngine, min)
	}
}

// Register wires the cluster control plane onto mux: /cluster/info,
// /cluster/adopt, /cluster/prepare, /cluster/commit, /cluster/abort.
func (r *Replica) Register(mux *http.ServeMux) {
	mux.HandleFunc("/cluster/info", r.handleInfo)
	mux.HandleFunc("/cluster/adopt", r.handleAdopt)
	mux.HandleFunc("/cluster/prepare", r.handlePrepare)
	mux.HandleFunc("/cluster/commit", r.handleCommit)
	mux.HandleFunc("/cluster/abort", r.handleAbort)
}

func (r *Replica) handleInfo(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.info())
}

// handleAdopt is the join/rejoin handshake: the router asserts "your
// current artifact IS cluster generation G". The replica verifies the
// checksum before believing it — a stale replica must never claim a
// generation it does not hold — and answers its actual checksum on
// mismatch so the router can plan a catch-up replay.
func (r *Replica) handleAdopt(w http.ResponseWriter, req *http.Request) {
	var body struct {
		Gen      int64 `json:"gen"`
		Checksum int64 `json:"checksum"`
	}
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil || body.Gen <= 0 {
		writeErr(w, http.StatusBadRequest, `want {"gen":g,"checksum":c}`)
		return
	}
	snap := r.eng.Snapshot()
	if got := r.checksumOf(snap); got != body.Checksum {
		writeJSON(w, http.StatusConflict, map[string]any{
			"err":      "clusterserve: adopt checksum mismatch",
			"checksum": got,
		})
		return
	}
	r.mu.Lock()
	r.gen = body.Gen
	r.mapGen(snap.ID, body.Gen)
	r.mu.Unlock()
	r.logger.Info("adopted cluster generation", "gen", body.Gen, "checksum", body.Checksum)
	writeJSON(w, http.StatusOK, map[string]any{"gen": body.Gen})
}

// handlePrepare is phase one of the two-phase swap: load and verify the
// new artifact or partition part (or apply a delta to the live one), then
// stage the result without serving it. While a stage is pending the
// replica reports not-ready. A replica killed here loses only the
// in-memory stage — its served generation is untouched, which is what
// makes abort a no-op rollback.
func (r *Replica) handlePrepare(w http.ResponseWriter, req *http.Request) {
	var body struct {
		Txn      string `json:"txn"`
		Gen      int64  `json:"gen"`
		Artifact string `json:"artifact,omitempty"`
		Delta    string `json:"delta,omitempty"`
		Part     string `json:"part,omitempty"`
	}
	set := 0
	if err := json.NewDecoder(req.Body).Decode(&body); err == nil {
		for _, p := range []string{body.Artifact, body.Delta, body.Part} {
			if p != "" {
				set++
			}
		}
	}
	if body.Txn == "" || body.Gen <= 0 || set != 1 {
		writeErr(w, http.StatusBadRequest,
			`want {"txn":t,"gen":g} with exactly one of "artifact"|"delta"|"part"`)
		return
	}
	var stagedArt *artifact.Artifact
	var stagedPart *artifact.Part
	var checksum int64
	switch {
	case body.Artifact != "":
		a, err := artifact.Load(body.Artifact)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "loading artifact: "+err.Error())
			return
		}
		stagedArt, checksum = a, a.Checksum()
	case body.Part != "":
		p, err := artifact.LoadPart(body.Part)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "loading part: "+err.Error())
			return
		}
		// A partitioned replica must stay on its own shard: committing a
		// foreign part would silently reshuffle ownership under the router's
		// feet. Moving between splits (different SplitID) is fine — that is
		// exactly what a composed resplit swap does — but the partition id
		// is pinned.
		if cur := r.eng.Snapshot().Part(); cur != nil && cur.ID != p.ID {
			writeErr(w, http.StatusConflict, fmt.Sprintf(
				"clusterserve: replica serves partition %d, refusing part %d", cur.ID, p.ID))
			return
		}
		stagedPart, checksum = p, p.Checksum()
	default:
		d, err := artifact.LoadDelta(body.Delta)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "loading delta: "+err.Error())
			return
		}
		next, err := d.Apply(r.eng.Snapshot().Art)
		if err != nil {
			status := http.StatusUnprocessableEntity
			if errors.Is(err, artifact.ErrBaseMismatch) {
				status = http.StatusConflict
			}
			writeErr(w, status, err.Error())
			return
		}
		stagedArt, checksum = next, next.Checksum()
	}
	r.mu.Lock()
	if (r.stagedArt != nil || r.stagedPart != nil) && r.stagedTxn != body.Txn {
		// A crashed coordinator's orphaned stage; the new transaction
		// supersedes it (equivalent to an abort of the old one).
		r.logger.Warn("replacing orphaned staged generation",
			"old_txn", r.stagedTxn, "new_txn", body.Txn)
	}
	r.stagedArt = stagedArt
	r.stagedPart = stagedPart
	r.stagedSum = checksum
	r.stagedTxn = body.Txn
	r.stagedGen = body.Gen
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"txn":      body.Txn,
		"gen":      body.Gen,
		"checksum": checksum,
	})
}

// handleCommit is phase two: atomically cut the engine over to the staged
// artifact and record the generation mapping. The snapshot-id mapping is
// written under the same lock that publishes the generation, so reply
// translation never observes a committed snapshot without its generation.
func (r *Replica) handleCommit(w http.ResponseWriter, req *http.Request) {
	var body struct {
		Txn string `json:"txn"`
		Gen int64  `json:"gen"`
	}
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil || body.Txn == "" {
		writeErr(w, http.StatusBadRequest, `want {"txn":t,"gen":g}`)
		return
	}
	r.mu.Lock()
	if (r.stagedArt == nil && r.stagedPart == nil) || r.stagedTxn != body.Txn {
		r.mu.Unlock()
		writeErr(w, http.StatusConflict,
			fmt.Sprintf("clusterserve: no staged generation for txn %q", body.Txn))
		return
	}
	gen, sum := r.stagedGen, r.stagedSum
	var snapID int64
	var err error
	if r.stagedPart != nil {
		snapID, err = r.eng.SwapPart(r.stagedPart)
	} else {
		snapID, err = r.eng.Swap(r.stagedArt)
	}
	if err != nil {
		r.mu.Unlock()
		writeErr(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	r.gen = gen
	r.mapGen(snapID, gen)
	r.sums[snapID] = sum // seed the probe cache; pruned alongside byEngine
	r.stagedArt, r.stagedPart, r.stagedSum, r.stagedTxn, r.stagedGen = nil, nil, 0, "", 0
	r.mu.Unlock()
	r.logger.Info("committed cluster generation", "gen", gen, "snapshot", snapID)
	writeJSON(w, http.StatusOK, map[string]any{"gen": gen, "snapshot": snapID})
}

// handleAbort rolls back a staged generation. An empty txn aborts whatever
// is staged — the router's recovery hammer for a stage orphaned by a
// coordinator crash. Always answers 200: aborting nothing is success.
func (r *Replica) handleAbort(w http.ResponseWriter, req *http.Request) {
	var body struct {
		Txn string `json:"txn"`
	}
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, `want {"txn":t}`)
		return
	}
	r.mu.Lock()
	aborted := false
	if (r.stagedArt != nil || r.stagedPart != nil) && (body.Txn == "" || r.stagedTxn == body.Txn) {
		r.stagedArt, r.stagedPart, r.stagedSum, r.stagedTxn, r.stagedGen = nil, nil, 0, "", 0
		aborted = true
	}
	r.mu.Unlock()
	if aborted {
		r.logger.Info("aborted staged generation", "txn", body.Txn)
	}
	writeJSON(w, http.StatusOK, map[string]any{"aborted": aborted})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"err": msg})
}

// discardHandler is a no-op slog handler so loggers are never nil.
type discardHandler struct{}

func (discardHandler) Enabled(_ context.Context, _ slog.Level) bool  { return false }
func (discardHandler) Handle(_ context.Context, _ slog.Record) error { return nil }
func (d discardHandler) WithAttrs(_ []slog.Attr) slog.Handler        { return d }
func (d discardHandler) WithGroup(_ string) slog.Handler             { return d }
