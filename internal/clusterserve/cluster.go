package clusterserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spanner/client"
)

// Typed cluster errors, matchable with errors.Is.
var (
	// ErrNoQuorum reports fewer ready replicas than the configured quorum.
	// Distance queries degrade to flagged landmark bounds instead; other
	// query types and all mutations surface this error.
	ErrNoQuorum = errors.New("clusterserve: quorum lost")
	// ErrNoReplicas reports that no replica — ready or not — could answer.
	ErrNoReplicas = errors.New("clusterserve: no replica answered")
)

// Config tunes a Router and its replica groups. The zero value (plus
// Replicas) is serviceable.
type Config struct {
	// Replicas is the seed list of replica base URLs; more join via Add.
	Replicas []string
	// MapPath, when set, is the partition map file: it defines the group
	// count K, vertex ownership, and the pinned checksum of every part, and
	// replicas are sorted into groups by the partition each reports
	// serving. Empty means one group that owns every vertex.
	MapPath string
	// ProbeInterval paces the health prober (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 1s).
	ProbeTimeout time.Duration
	// EjectAfter consecutive probe or query failures eject a replica from
	// the routing set (default 3); RejoinAfter consecutive probe successes
	// at the committed generation readmit it (default 2). Rejoin is
	// deliberately stickier than ejection: a flapping replica must prove
	// itself before taking traffic again.
	EjectAfter  int
	RejoinAfter int
	// Quorum is the minimum ready-replica count for exact answers and for
	// generation mutations; 0 means a majority of the member set.
	Quorum int
	// Hedge, when positive, fires a second replica if the first has not
	// answered within this delay — the tail-latency hedge. First success
	// wins; the loser is canceled. 0 disables hedging.
	Hedge time.Duration
	// QueryTimeout bounds each routed attempt (default 2s); ControlTimeout
	// bounds control-plane calls — probes, prepare/commit/abort, adopt
	// (default 5s; prepares load whole artifacts).
	QueryTimeout   time.Duration
	ControlTimeout time.Duration
	// Seed derives per-member client jitter streams (reproducibility hook).
	Seed int64
	// Transport, when non-nil, underlies every member query client — the
	// chaos suite's client-side fault hook.
	Transport http.RoundTripper
	// Logger receives routing events; nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.RejoinAfter <= 0 {
		c.RejoinAfter = 2
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 2 * time.Second
	}
	if c.ControlTimeout <= 0 {
		c.ControlTimeout = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return c
}

// member is one replica as the router sees it: a query client whose
// circuit breaker is the per-replica circuit state, a mutable health
// record maintained by the prober and the query path, and the catch-up
// bookkeeping.
type member struct {
	url string
	cl  *client.Client

	mu         sync.Mutex
	ready      bool
	gen        int64 // last probed committed generation
	checksum   int64 // last probed artifact checksum
	n          int   // vertex count (sizes workload generators)
	consecFail int
	consecOK   int
	lastErr    string
}

func (m *member) isReady() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ready
}

// noteFailure records a failed probe or routed query; EjectAfter
// consecutive failures eject the member. Reports whether this call
// ejected it.
func (m *member) noteFailure(err error, ejectAfter int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.consecFail++
	m.consecOK = 0
	m.lastErr = err.Error()
	if m.ready && m.consecFail >= ejectAfter {
		m.ready = false
		return true
	}
	return false
}

// noteQuerySuccess clears the failure streak (routed answers are as good
// a health signal as probes, and far more frequent under load).
func (m *member) noteQuerySuccess() {
	m.mu.Lock()
	m.consecFail = 0
	m.lastErr = ""
	m.mu.Unlock()
}

// genRecord is one committed generation in the router's history: the
// checksum that defines it and, for swap/update records, the artifact or
// delta path that produced it — the replay material for catching up a
// stale replica. Kind "boot" records the generation adopted from the
// first probed replica at startup; it has no path, so a replica behind a
// boot record can only catch up once a later full-artifact swap provides
// a replayable source.
type genRecord struct {
	Gen      int64  `json:"gen"`
	Checksum int64  `json:"checksum"`
	Kind     string `json:"kind"` // "boot" | "artifact" | "delta" | "part"
	Path     string `json:"path,omitempty"`
}

// Cluster is one replica group of a Router: it owns the group's member
// set, its health prober, its committed generation history, and failover
// among its members. Safe for concurrent use.
type Cluster struct {
	cfg  Config
	ctrl *http.Client // control-plane calls (probe, 2PC, adopt)

	mu      sync.Mutex // guards members, records, gen
	members []*member
	records []genRecord // records[i].Gen == int64(i)+1
	gen     int64       // committed cluster generation (0 = unbootstrapped)

	// mutMu serializes generation mutations (the Router's two-phase
	// commit) and catch-up replays — a replay walking records must not
	// interleave with a commit extending them.
	mutMu sync.Mutex

	txnSeq atomic.Int64
	rr     atomic.Uint64 // round-robin routing cursor

	stop chan struct{}
	wg   sync.WaitGroup

	// Routing statistics (Status surfaces them; loadgen's failover column
	// and the chaos suite read them).
	failovers atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	ejections atomic.Int64
	rejoins   atomic.Int64
	catchups  atomic.Int64
}

// newCluster builds a group over cfg.Replicas and starts its health
// prober; cfg already carries its defaults.
func newCluster(cfg Config) *Cluster {
	c := &Cluster{
		cfg:  cfg,
		ctrl: &http.Client{Timeout: cfg.ControlTimeout},
		stop: make(chan struct{}),
	}
	for _, url := range cfg.Replicas {
		c.members = append(c.members, c.newMember(url))
	}
	c.wg.Add(1)
	go c.probeLoop()
	return c
}

func (c *Cluster) newMember(url string) *member {
	var hc *http.Client
	if c.cfg.Transport != nil {
		hc = &http.Client{Transport: c.cfg.Transport}
	}
	return &member{
		url: url,
		cl: client.New(client.Config{
			BaseURL: url,
			HTTP:    hc,
			Timeout: c.cfg.QueryTimeout,
			// Single-shot per member: the cluster's failover loop IS the
			// retry policy, and an alternate replica beats hammering a sick
			// one. The client's breaker still sheds locally when a member is
			// persistently down — that breaker is the per-replica circuit
			// state.
			MaxRetries: -1,
			Seed:       c.cfg.Seed ^ int64(uint64(len(c.members)+1)*0x9e3779b97f4a7c15),
		}),
	}
}

// add registers a replica URL. Idempotent; the prober adopts or catches
// the replica up before it takes traffic.
func (c *Cluster) add(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		if m.url == url {
			return
		}
	}
	c.members = append(c.members, c.newMember(url))
	c.cfg.Logger.Info("replica joined member set", "url", url)
}

// Close stops the prober. Routed queries already in flight finish.
func (c *Cluster) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.wg.Wait()
}

// snapshotMembers returns the member slice under the lock (members are
// pointers; their health fields have their own locks).
func (c *Cluster) snapshotMembers() []*member {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*member(nil), c.members...)
}

func (c *Cluster) readyMembers() []*member {
	var out []*member
	for _, m := range c.snapshotMembers() {
		if m.isReady() {
			out = append(out, m)
		}
	}
	return out
}

// quorate returns the ready members and whether they meet the quorum.
func (c *Cluster) quorate() ([]*member, bool) {
	ready := c.readyMembers()
	return ready, len(ready) >= c.quorum()
}

// quorum returns the effective quorum: the configured floor, or a
// majority of the current member set.
func (c *Cluster) quorum() int {
	if c.cfg.Quorum > 0 {
		return c.cfg.Quorum
	}
	c.mu.Lock()
	n := len(c.members)
	c.mu.Unlock()
	return n/2 + 1
}

// Gen returns the committed cluster generation.
func (c *Cluster) Gen() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// currentRecord returns the committed generation's record.
func (c *Cluster) currentRecord() (genRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen == 0 {
		return genRecord{}, false
	}
	return c.records[c.gen-1], true
}

// ---- health probing -------------------------------------------------------

func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.ProbeInterval)
	defer tick.Stop()
	c.probeAll() // immediate first round: don't wait an interval to bootstrap
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.probeAll()
		}
	}
}

// probeAll probes members in order (deterministic bootstrap: the first
// reachable replica seeds generation 1).
func (c *Cluster) probeAll() {
	for _, m := range c.snapshotMembers() {
		select {
		case <-c.stop:
			return
		default:
		}
		c.probe(m)
	}
}

// probe hits one replica's /cluster/info and reconciles its state against
// the committed generation: clear it for rejoin, adopt it, or plan a
// catch-up replay.
func (c *Cluster) probe(m *member) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	info, err := getInfo(ctx, c.ctrl, m.url)
	cancel()
	if err != nil {
		if m.noteFailure(err, c.cfg.EjectAfter) {
			c.ejections.Add(1)
			c.cfg.Logger.Warn("replica ejected", "url", m.url, "err", err)
		}
		return
	}

	// Bootstrap: with no committed generation yet, the first reachable
	// replica's artifact defines generation 1. Operators start replicas
	// from the same artifact; one that disagrees stays out until a swap
	// provides catch-up material.
	c.mu.Lock()
	if c.gen == 0 {
		c.gen = 1
		c.records = []genRecord{{Gen: 1, Checksum: info.Checksum, Kind: "boot"}}
		c.cfg.Logger.Info("bootstrapped cluster generation",
			"gen", 1, "checksum", info.Checksum, "seed_replica", m.url)
	}
	rec := c.records[c.gen-1]
	gen := c.gen
	c.mu.Unlock()

	m.mu.Lock()
	m.n = info.N
	m.gen = info.Gen
	m.checksum = info.Checksum
	m.consecFail = 0
	m.lastErr = ""
	atCommitted := info.Gen == gen && info.Checksum == rec.Checksum
	switch {
	case atCommitted && info.Ready:
		m.consecOK++
		if !m.ready && m.consecOK >= c.cfg.RejoinAfter {
			m.ready = true
			m.mu.Unlock()
			// The probe is fresher evidence than the query path's breaker,
			// which may still be open from before the replica went down;
			// left open it would eject the replica again on its first query.
			m.cl.ResetBreaker()
			c.rejoins.Add(1)
			c.cfg.Logger.Info("replica rejoined", "url", m.url, "gen", gen)
			return
		}
		m.mu.Unlock()
		return
	case atCommitted && info.Reason == "swap-prepare":
		// A stage with no live transaction behind it (coordinator died
		// mid-2PC, or an abort was lost). If no mutation is running, clear
		// it so the replica can rejoin.
		m.consecOK = 0
		m.mu.Unlock()
		if c.mutMu.TryLock() {
			actx, cancel := context.WithTimeout(context.Background(), c.cfg.ControlTimeout)
			_, _ = c.post(actx, m, "/cluster/abort", map[string]string{}, nil)
			cancel()
			c.mutMu.Unlock()
		}
		return
	default:
		// Stale (old generation / unknown checksum) or unadopted: the
		// replica is healthy but must be walked to the committed
		// generation before it takes traffic. An unadopted one that is
		// still routed restarted between probes: it leaves the routing set
		// until it rejoins. (A stale non-zero generation can be a replica
		// ahead of c.gen mid-mutation, which stays.)
		m.consecOK = 0
		ejected := m.ready && info.Gen == 0
		if ejected {
			m.ready = false
		}
		m.mu.Unlock()
		if ejected {
			c.ejections.Add(1)
			c.cfg.Logger.Warn("replica ejected: restarted unadopted", "url", m.url)
		}
		c.catchUp(m, info)
		return
	}
}

// ---- catch-up -------------------------------------------------------------

// catchUp walks a reachable-but-stale replica to the committed
// generation. A replica whose checksum already matches the committed
// record just needs adoption (the crash-restart case: recovery reloaded
// the right artifact, only the cluster generation number was lost with
// the process). Otherwise the router replays recorded prepare/commit
// steps from the replica's position — full-artifact records reset the
// base, delta records extend it.
func (c *Cluster) catchUp(m *member, info replicaInfo) {
	// Skip if a mutation is mid-flight; next probe retries. TryLock keeps
	// the prober from blocking behind a slow swap.
	if !c.mutMu.TryLock() {
		return
	}
	defer c.mutMu.Unlock()

	c.mu.Lock()
	gen := c.gen
	records := append([]genRecord(nil), c.records...)
	c.mu.Unlock()
	if gen == 0 {
		return
	}
	rec := records[gen-1]
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ControlTimeout)
	defer cancel()

	if info.Checksum == rec.Checksum {
		var out struct {
			Gen int64 `json:"gen"`
		}
		status, err := c.post(ctx, m, "/cluster/adopt",
			map[string]int64{"gen": gen, "checksum": rec.Checksum}, &out)
		if err != nil {
			c.cfg.Logger.Warn("adopt failed", "url", m.url, "status", status, "err", err)
			return
		}
		c.catchups.Add(1)
		c.cfg.Logger.Info("replica adopted committed generation", "url", m.url, "gen", gen)
		return
	}

	// Find the replay start: the latest record at or before the committed
	// generation from which a path to rec exists. A full artifact record
	// can start a replay cold; a delta chain needs the replica's current
	// checksum to match some record's.
	start := -1 // index into records of the first record to replay
	for i := len(records) - 1; i >= 0; i-- {
		if records[i].Kind == "artifact" || records[i].Kind == "part" {
			// Artifacts and parts are self-contained: either can start a
			// replay cold, regardless of what the replica currently serves.
			start = i
			break
		}
		if records[i].Checksum == info.Checksum {
			start = i + 1
			break
		}
	}
	if start < 0 || start >= len(records) {
		c.cfg.Logger.Warn("no replay path for stale replica",
			"url", m.url, "replica_checksum", info.Checksum, "gen", gen)
		return
	}
	for i := start; i < len(records); i++ {
		r := records[i]
		if r.Kind == "boot" || r.Path == "" {
			c.cfg.Logger.Warn("replay blocked on boot record", "url", m.url, "gen", r.Gen)
			return
		}
		if err := c.replayStep(ctx, m, r); err != nil {
			c.cfg.Logger.Warn("catch-up replay failed",
				"url", m.url, "gen", r.Gen, "err", err)
			return
		}
	}
	c.catchups.Add(1)
	c.cfg.Logger.Info("replica caught up via replay",
		"url", m.url, "from_checksum", info.Checksum, "gen", gen)
}

// replayStep runs one recorded generation through a private
// prepare/commit against a single replica.
func (c *Cluster) replayStep(ctx context.Context, m *member, r genRecord) error {
	txn := fmt.Sprintf("catchup-g%d-%d", r.Gen, c.txnSeq.Add(1))
	prep := map[string]any{"txn": txn, "gen": r.Gen}
	switch r.Kind {
	case "artifact":
		prep["artifact"] = r.Path
	case "part":
		prep["part"] = r.Path
	default:
		prep["delta"] = r.Path
	}
	var prepOut struct {
		Checksum int64 `json:"checksum"`
	}
	if _, err := c.post(ctx, m, "/cluster/prepare", prep, &prepOut); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if prepOut.Checksum != r.Checksum {
		_, _ = c.post(ctx, m, "/cluster/abort", map[string]string{"txn": txn}, nil)
		return fmt.Errorf("checksum mismatch: staged %d, recorded %d", prepOut.Checksum, r.Checksum)
	}
	if _, err := c.post(ctx, m, "/cluster/commit",
		map[string]any{"txn": txn, "gen": r.Gen}, nil); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	return nil
}

// ---- control-plane HTTP helpers ------------------------------------------

// getInfo fetches one replica's /cluster/info.
func getInfo(ctx context.Context, hc *http.Client, url string) (replicaInfo, error) {
	var info replicaInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/cluster/info", nil)
	if err != nil {
		return info, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return info, fmt.Errorf("probe: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return info, fmt.Errorf("probe: decoding info: %v", err)
	}
	return info, nil
}

// post runs one control-plane POST, decoding a 2xx answer into out (when
// non-nil) and a non-2xx {"err"} body into the returned error. The status
// is returned either way so callers can branch on conflicts.
func (c *Cluster) post(ctx context.Context, m *member, path string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.url+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.ctrl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, fmt.Errorf("reading response: %v", err)
	}
	if resp.StatusCode >= 300 {
		var e struct {
			Err string `json:"err"`
		}
		_ = json.Unmarshal(data, &e)
		if e.Err == "" {
			e.Err = string(bytes.TrimSpace(data))
		}
		return resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, e.Err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding response: %v", err)
		}
	}
	return resp.StatusCode, nil
}

// ---- query routing --------------------------------------------------------

// QueryTrace reports how a routed query was served.
type QueryTrace struct {
	// Replica is the URL of the member that answered ("" on failure).
	Replica string
	// Attempts is the number of replicas tried (including hedges).
	Attempts int
	// Failovers counts attempts launched because a prior one failed.
	Failovers int
	// Hedged reports that the tail-latency hedge fired.
	Hedged bool
	// Degraded reports the quorum-loss landmark-bound path served this.
	Degraded bool
}

// raceQuery runs the failover/hedge state machine over an ordered
// candidate list. The two policies are one mechanism — "launch the next
// candidate early": a failure launches it immediately (failover), the
// hedge timer launches it after Hedge with the primary still in flight.
// First success wins and cancels the rest.
func (c *Cluster) raceQuery(ctx context.Context, cands []*member, q client.Query) (client.Reply, QueryTrace, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type res struct {
		rep client.Reply
		err error
		idx int
	}
	resc := make(chan res, len(cands)) // buffered: losers never block
	launch := func(i int) {
		m := cands[i]
		go func() {
			rep, err := m.cl.Query(cctx, q)
			resc <- res{rep: rep, err: err, idx: i}
		}()
	}
	tr := QueryTrace{Attempts: 1}
	launch(0)
	var hedge <-chan time.Time
	if c.cfg.Hedge > 0 && len(cands) > 1 {
		t := time.NewTimer(c.cfg.Hedge)
		defer t.Stop()
		hedge = t.C
	}
	launched, received := 1, 0
	var lastErr error
	for {
		select {
		case r := <-resc:
			received++
			m := cands[r.idx]
			if r.err == nil && unadopted(r.rep) {
				r.err = errUnadopted
			}
			if r.err == nil {
				m.noteQuerySuccess()
				tr.Replica = m.url
				if tr.Hedged && r.idx > 0 {
					c.hedgeWins.Add(1)
				}
				return r.rep, tr, nil
			}
			// The request's own fault: no replica will answer differently.
			if errors.Is(r.err, client.ErrBadRequest) || errors.Is(r.err, client.ErrConflict) {
				return r.rep, tr, r.err
			}
			lastErr = r.err
			if cctx.Err() == nil && !errors.Is(r.err, client.ErrRejected) {
				// Transport/5xx/timeout: counts toward ejection. A 429 does
				// not — a shedding replica is healthy, just busy.
				if m.noteFailure(r.err, c.cfg.EjectAfter) {
					c.ejections.Add(1)
					c.cfg.Logger.Warn("replica ejected by query path", "url", m.url, "err", r.err)
				}
			}
			if ctx.Err() != nil {
				return client.Reply{}, tr, fmt.Errorf("%w: %v", client.ErrTimeout, ctx.Err())
			}
			if launched < len(cands) {
				c.failovers.Add(1)
				tr.Failovers++
				tr.Attempts++
				launch(launched)
				launched++
			} else if received == launched {
				return client.Reply{}, tr, fmt.Errorf("%w: last error: %v", ErrNoReplicas, lastErr)
			}
		case <-hedge:
			hedge = nil
			if launched < len(cands) {
				c.hedges.Add(1)
				tr.Hedged = true
				tr.Attempts++
				launch(launched)
				launched++
			}
		case <-ctx.Done():
			return client.Reply{}, tr, fmt.Errorf("%w: %v", client.ErrTimeout, ctx.Err())
		}
	}
}

// errUnadopted fails an attempt answered by a replica that restarted since
// its last probe and has not been adopted again: its exact answers have no
// committed generation behind them.
var errUnadopted = fmt.Errorf("%w: replica has not adopted a generation", client.ErrUnavailable)

// unadopted reports an exact answer stamped with no cluster generation.
func unadopted(rep client.Reply) bool {
	return rep.Err == "" && !rep.Degraded && rep.Gen == 0
}

// Batch routes a whole batch to one ready member with failover (batches
// are not hedged — duplicating hundreds of queries to shave tail latency
// inverts the economics). Below quorum batches fail with ErrNoQuorum;
// callers needing degraded answers send single dist queries.
func (c *Cluster) Batch(ctx context.Context, qs []client.Query) ([]client.Reply, error) {
	ready, ok := c.quorate()
	if !ok {
		return nil, fmt.Errorf("%w: %d ready < quorum %d", ErrNoQuorum, len(ready), c.quorum())
	}
	start := int(c.rr.Add(1))
	var lastErr error
	for i := range ready {
		m := ready[(start+i)%len(ready)]
		rs, err := m.cl.Batch(ctx, qs)
		if err == nil && slices.ContainsFunc(rs, unadopted) {
			err = errUnadopted
		}
		if err == nil {
			m.noteQuerySuccess()
			return rs, nil
		}
		if errors.Is(err, client.ErrBadRequest) || errors.Is(err, client.ErrConflict) {
			return nil, err
		}
		lastErr = err
		if ctx.Err() == nil && !errors.Is(err, client.ErrRejected) {
			if m.noteFailure(err, c.cfg.EjectAfter) {
				c.ejections.Add(1)
			}
		}
		if i < len(ready)-1 {
			c.failovers.Add(1)
		}
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("%w: last error: %v", ErrNoReplicas, lastErr)
}

// ---- status ---------------------------------------------------------------

// MemberStatus is one replica's row in Status.
type MemberStatus struct {
	URL        string `json:"url"`
	Ready      bool   `json:"ready"`
	Gen        int64  `json:"gen"`
	Checksum   int64  `json:"checksum"`
	Breaker    string `json:"breaker"`
	ConsecFail int    `json:"consecFail,omitempty"`
	LastErr    string `json:"lastErr,omitempty"`
}

// Status is a point-in-time view of one replica group; Degraded is the
// Router's quorum-loss count, filled only in the unpartitioned view.
type Status struct {
	Gen        int64          `json:"gen"`
	Checksum   int64          `json:"checksum"`
	Quorum     int            `json:"quorum"`
	ReadyCount int            `json:"ready"`
	N          int            `json:"n"`
	Members    []MemberStatus `json:"members"`
	Failovers  int64          `json:"failovers"`
	Hedges     int64          `json:"hedges"`
	HedgeWins  int64          `json:"hedgeWins"`
	Degraded   int64          `json:"degraded"`
	Ejections  int64          `json:"ejections"`
	Rejoins    int64          `json:"rejoins"`
	Catchups   int64          `json:"catchups"`
}

// Status reports the group's current view, members sorted by URL.
func (c *Cluster) Status() Status {
	rec, _ := c.currentRecord()
	st := Status{
		Gen:       c.Gen(),
		Checksum:  rec.Checksum,
		Quorum:    c.quorum(),
		Failovers: c.failovers.Load(),
		Hedges:    c.hedges.Load(),
		HedgeWins: c.hedgeWins.Load(),
		Ejections: c.ejections.Load(),
		Rejoins:   c.rejoins.Load(),
		Catchups:  c.catchups.Load(),
	}
	for _, m := range c.snapshotMembers() {
		m.mu.Lock()
		ms := MemberStatus{
			URL:        m.url,
			Ready:      m.ready,
			Gen:        m.gen,
			Checksum:   m.checksum,
			ConsecFail: m.consecFail,
			LastErr:    m.lastErr,
			Breaker:    m.cl.Stats().Breaker,
		}
		if m.ready {
			st.ReadyCount++
			if st.N == 0 {
				st.N = m.n
			}
		}
		m.mu.Unlock()
		st.Members = append(st.Members, ms)
	}
	sort.Slice(st.Members, func(i, j int) bool { return st.Members[i].URL < st.Members[j].URL })
	return st
}
