package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"spanner"
	"spanner/client"
)

// replayOps is how many ops of the workload's stream each layer replays.
const replayOps = 1 << 14

// span is one timed call: its name, its parent's id (-1 for a root), the
// request it served (-1 for none; a request's spans share it) and its
// start and end in ns since the log began.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	next  int32
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// reserve returns a fresh span id, for a span whose children end first.
func (l *spanLog) reserve() int32 {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next - 1
}

// addID records span id.
func (l *spanLog) addID(id int32, name string, parent int32, req int64, t0, t1 time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: t0.Sub(l.epoch).Nanoseconds(), End: t1.Sub(l.epoch).Nanoseconds()})
	l.mu.Unlock()
}

// add records a span under a fresh id.
func (l *spanLog) add(name string, parent int32, req int64, t0, t1 time.Time) {
	l.addID(l.reserve(), name, parent, req, t0, t1)
}

// begin opens a span now; calling the result closes it.
func (l *spanLog) begin(name string, parent int32) func() {
	if l == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { l.add(name, parent, -1, t0, time.Now()) }
}

// mean returns the mean duration in ns of the spans named name.
func (l *spanLog) mean(name string) float64 {
	var total time.Duration
	count := 0
	for _, s := range l.spans {
		if s.Name == name {
			total += time.Duration(s.End - s.Start)
			count++
		}
	}
	return meanNS(total, count)
}

// write stores the spans as JSONL, one span per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced sets up once with spans around each phase, measures the
// generation layers, runs the workload's loop untraced and then traced to
// give the tracing overhead, and replays the workload's ops serially layer
// by layer: the oracle and routing scheme bare, the engine with a zero
// ServeConfig, the engine with spannerd's observability, and the wire
// client.
func runTraced(w io.Writer, wl workload, o options) (*result, error) {
	var t tally
	sp := newSpanLog()
	root := sp.reserve()
	t0 := time.Now()
	s, err := setUp(o.n, o.seed, true, sp, root)
	sp.addID(root, "setup", -1, -1, t0, time.Now())
	if err != nil {
		return nil, err
	}
	defer s.close()
	t.add(s.checks)
	header(w, wl, o, s)
	b := newBench(s, wl, o.seed)
	res := &result{}
	set := func(name string, v float64) { res.setDef(perLayer, name, v) }

	b.generationLayers(sp, set, &t, o.seed)

	// Tracing overhead: the same loop untraced, then with a span per call.
	if b.hot != nil {
		b.fillCache(&t)
	}
	main := b.mainMode()
	churn := updates{on: wl.churn, swaps: 1}
	t.add(b.phase(main, wl.callers, o.window/10, 1, churn, nil).tally)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain := b.phase(main, wl.callers, o.window/2, 1, churn, nil)
	runtime.ReadMemStats(&ms1)
	t.add(plain.tally)
	traced := b.phase(main, wl.callers, o.window/2, 1, churn, sp)
	t.add(traced.tally)
	kind := qDist
	if main == modeBatch {
		kind = kBatch
	}
	p50, tp50 := plain.pct(kind, 0.5), traced.pct(kind, 0.5)
	fmt.Fprintf(w, "tracing overhead: main p50 %.2fus untraced, %.2fus traced; qps %.0f untraced, %.0f traced\n",
		p50/1e3, tp50/1e3, plain.qps(), traced.qps())
	set("trace.overhead_pct", (tp50-p50)/p50*100)
	set("runtime.gc_per_mquery", float64(ms1.NumGC-ms0.NumGC)*1e6/float64(plain.queries()))

	b.replay(sp, set, &t)

	table(w, "per-layer metrics (-> the end-to-end metric each should move @ workload):", perLayer, res)
	path := filepath.Join(o.spansDir, fmt.Sprintf("servebench-spans-%s.jsonl", wl.name))
	if err := sp.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(w, "wrote %d spans to %s\n", len(sp.spans), path)
	fmt.Fprintf(w, "ops attempted=%d failed=%d\n", t.attempted, t.failed)
	res.Attempted, res.Failed = t.attempted, t.failed
	return res, nil
}

// generationLayers reports the build side: set-up phases from their spans,
// the paper's cost measures, and each remaining build step timed once more
// through the public API.
func (b *bench) generationLayers(sp *spanLog, set func(string, float64), t *tally, seed int64) {
	s := b.s
	set("graph.gen_ms", sp.mean("graph.gen")/1e6)
	set("core.skeleton_ms", sp.mean("core.skeleton")/1e6)
	set("distsim.rounds", float64(s.skel.Metrics.Rounds))
	set("distsim.messages", float64(s.skel.Metrics.Messages))
	set("distsim.max_msg_words", float64(s.skel.Metrics.MaxMsgWords))
	set("core.spanner_edges_per_n", float64(s.art.Spanner.Len())/float64(s.g.N()))
	set("artifact.mb", float64(len(s.blob))/1e6)
	set("artifact.encode_ms", sp.mean("artifact.encode")/1e6)

	var batch time.Duration
	for _, ns := range s.batchNS {
		batch += time.Duration(ns)
	}
	set("dynamic.batch_ms", meanNS(batch, len(s.batchNS))/1e6)

	root := sp.reserve()
	r0 := time.Now()
	end := sp.begin("oracle.build", root)
	_, err := spanner.NewDistanceOracle(s.g, oracleK, seed)
	end()
	t.check(err == nil)
	set("oracle.build_ms", sp.mean("oracle.build")/1e6)
	end = sp.begin("routing.build", root)
	_, err = spanner.NewRoutingScheme(s.g, seed)
	end()
	t.check(err == nil)
	set("routing.build_ms", sp.mean("routing.build")/1e6)

	end = sp.begin("artifact.decode", root)
	dec, err := spanner.UnmarshalArtifact(s.blob)
	end()
	t.check(err == nil && dec.Checksum() == s.sums[0])
	set("artifact.decode_ms", sp.mean("artifact.decode")/1e6)

	nUpdates := 0
	for i, d := range s.deltas {
		end = sp.begin("artifact.delta_apply", root)
		next, err := d.Apply(s.gens[i])
		end()
		t.check(err == nil && next.Checksum() == s.sums[i+1])
		nUpdates += d.Updates()
	}
	set("artifact.delta_apply_ms", sp.mean("artifact.delta_apply")/1e6)
	set("artifact.delta_updates", float64(nUpdates)/float64(len(s.deltas)))

	// Swap the decoded copy in and the original back: two swaps.
	for _, a := range []*spanner.Artifact{dec, s.art} {
		end = sp.begin("serve.swap", root)
		id, err := s.eng.Swap(a)
		end()
		t.check(err == nil)
		b.setGen(id, 0)
	}
	set("serve.swap_ms", sp.mean("serve.swap")/1e6)
	sp.addID(root, "generation", -1, -1, r0, time.Now())
}

// serveReply converts an engine reply to the client's form, so that one
// checker judges both.
func serveReply(r spanner.ServeReply) client.Reply {
	c := client.Reply{Type: r.Type.String(), U: r.U, V: r.V, Dist: r.Dist, Path: r.Path,
		Cached: r.Cached, Degraded: r.Degraded, Composed: r.Composed, Snapshot: r.SnapshotID}
	if r.Err != nil {
		c.Err = r.Err.Error()
	}
	return c
}

var serveTypes = [...]spanner.ServeQueryType{spanner.ServeQueryDist, spanner.ServeQueryRoute, spanner.ServeQueryPath}

// mallocs returns the process's heap allocation count so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// frame is a batch of replayed ops; at is the stream index of its first,
// -1 for a warm-up frame, whose answers are not checked.
type frame struct {
	at   int
	reqs []spanner.ServeRequest
}

// replay runs a prefix of the first caller's stream through each layer in
// turn, one call at a time, with a span per call whose request id is the
// op's index. Engine and client layers first get an untimed warm pass, so
// that their caches hold what the workload's steady state holds: on uniform
// pairs it sends the ops that follow the prefix, so the timed ops are not in
// the LRU; on the hot set it sends every hot pair of every type, as the
// workload's own warm-up does.
func (b *bench) replay(sp *spanLog, set func(string, float64), t *tally) {
	s := b.s
	st := b.mix[0]
	ops := st.ops[:min(len(st.ops), replayOps)]
	warm := st.ops[len(ops):min(len(st.ops), 2*len(ops))]
	if b.hot != nil {
		warm = b.hotOps()
	}
	want := st.want[0]
	var distOps, warmDist []int
	for i, o := range ops {
		if o.typ == qDist {
			distOps = append(distOps, i)
		}
	}
	for i, o := range warm {
		if o.typ == qDist {
			warmDist = append(warmDist, i)
		}
	}
	// frames groups ops into frames; at0 is the stream index of ops[0],
	// or -1 for warm-up ops.
	frames := func(ops []op, at0 int) []frame {
		var out []frame
		for i := 0; i+b.batch <= len(ops); i += b.batch {
			reqs := make([]spanner.ServeRequest, b.batch)
			for j := range reqs {
				o := ops[i+j]
				reqs[j] = spanner.ServeRequest{Type: serveTypes[o.typ], U: o.u, V: o.v}
			}
			f := frame{at: -1, reqs: reqs}
			if at0 >= 0 {
				f.at = at0 + i
			}
			out = append(out, f)
		}
		return out
	}
	batches, warmBatches := frames(ops, 0), frames(warm, -1)
	judge := func(i int, r client.Reply) { t.check(correct(st.ops[i], want[i], s.g, s.sg, &r)) }
	layer := func(name string, body func(root int32)) {
		root := sp.reserve()
		r0 := time.Now()
		body(root)
		sp.addID(root, "replay."+name, -1, -1, r0, time.Now())
	}

	// The oracle and the routing scheme, bare.
	var total [3]time.Duration
	var count [3]int
	layer("oracle", func(root int32) {
		for _, i := range distOps {
			o := ops[i]
			t0 := time.Now()
			d := s.art.Oracle.Query(o.u, o.v)
			t1 := time.Now()
			sp.add("oracle.Query", root, int64(i), t0, t1)
			total[qDist] += t1.Sub(t0)
			count[qDist]++
			t.check(d == want[i])
		}
	})
	oracleNS := meanNS(total[qDist], count[qDist])
	set("oracle.query_ns", oracleNS)
	layer("routing", func(root int32) {
		for i, o := range ops {
			if o.typ != qRoute {
				continue
			}
			t0 := time.Now()
			path, err := s.art.Routing.Route(o.u, o.v)
			t1 := time.Now()
			sp.add("routing.Route", root, int64(i), t0, t1)
			total[qRoute] += t1.Sub(t0)
			count[qRoute]++
			t.check(err == nil && walks(s.g, o, path))
		}
	})
	set("routing.route_ns", meanNS(total[qRoute], count[qRoute]))

	// The engine with a zero ServeConfig: every op, then every batch.
	bare, err := spanner.NewServeEngine(s.art, spanner.ServeConfig{})
	if err != nil {
		t.check(false)
		return
	}
	defer bare.Close()
	total, count = [3]time.Duration{}, [3]int{}
	var cached int
	var allocs uint64
	layer("serve", func(root int32) {
		for _, o := range warm {
			bare.Query(spanner.ServeRequest{Type: serveTypes[o.typ], U: o.u, V: o.v})
		}
		m0 := mallocs()
		for i, o := range ops {
			t0 := time.Now()
			r := bare.Query(spanner.ServeRequest{Type: serveTypes[o.typ], U: o.u, V: o.v})
			t1 := time.Now()
			sp.add("serve.Query", root, int64(i), t0, t1)
			total[o.typ] += t1.Sub(t0)
			count[o.typ]++
			if r.Cached {
				cached++
			}
			judge(i, serveReply(r))
		}
		allocs = mallocs() - m0
	})
	serveDist := meanNS(total[qDist], count[qDist])
	set("serve.dist_ns", serveDist)
	set("serve.route_ns", meanNS(total[qRoute], count[qRoute]))
	set("serve.path_ns", meanNS(total[qPath], count[qPath]))
	set("serve.overhead_x", serveDist/oracleNS)
	set("serve.cache_hit_ratio", float64(cached)/float64(len(ops)))
	set("serve.cache_lookups", float64(len(ops)))
	set("serve.allocs_per_query", float64(allocs)/float64(len(ops)))
	// batchNS times run over the frames after a warm pass over warm.
	batchNS := func(name string, root int32, warm []frame, run func(frame)) float64 {
		var total time.Duration
		for _, f := range warm {
			run(f)
		}
		for _, f := range batches {
			t0 := time.Now()
			run(f)
			t1 := time.Now()
			sp.add(name, root, int64(f.at), t0, t1)
			total += t1.Sub(t0)
		}
		return meanNS(total, len(batches))
	}
	engineBatch := func(eng *spanner.ServeEngine) func(frame) {
		return func(f frame) {
			reps := eng.QueryBatch(f.reqs)
			if f.at < 0 {
				return
			}
			for j, r := range reps {
				judge(f.at+j, serveReply(r))
			}
		}
	}
	var bareBatch float64
	layer("serve.batch", func(root int32) { bareBatch = batchNS("serve.QueryBatch", root, warmBatches, engineBatch(bare)) })
	set("serve.batch_ns", bareBatch)

	// The served engine, with spannerd's observability: dist ops and
	// batches. Its dist cost is taken against the bare engine timed by the
	// same dist-only pass, so that only observability differs. Its batch
	// passes, here and through the wire, warm on the timed frames
	// themselves: the wire pass runs on this same engine right after, so
	// both must find the same route and path answers in its LRU for their
	// difference to be the transport alone.
	var bareDist, obsDist, obsBatch, obsAllocs float64
	distPass := func(name string, root int32, call func(o op) client.Reply) (float64, float64) {
		for _, i := range warmDist {
			call(warm[i])
		}
		var total time.Duration
		m0 := mallocs()
		for _, i := range distOps {
			t0 := time.Now()
			r := call(ops[i])
			t1 := time.Now()
			sp.add(name, root, int64(i), t0, t1)
			total += t1.Sub(t0)
			judge(i, r)
		}
		a := float64(mallocs()-m0) / float64(len(distOps))
		return meanNS(total, len(distOps)), a
	}
	layer("obs", func(root int32) {
		bareDist, _ = distPass("serve.Query", root, func(o op) client.Reply {
			return serveReply(bare.Query(spanner.ServeRequest{Type: spanner.ServeQueryDist, U: o.u, V: o.v}))
		})
		obsDist, obsAllocs = distPass("serve.Query+obs", root, func(o op) client.Reply {
			return serveReply(s.eng.Query(spanner.ServeRequest{Type: spanner.ServeQueryDist, U: o.u, V: o.v}))
		})
		obsBatch = batchNS("serve.QueryBatch+obs", root, batches, engineBatch(s.eng))
	})
	set("obs.dist_ns", obsDist-bareDist)

	// The wire client and server in front of that engine.
	ctx := context.Background()
	var wireDist, wireBatch, wireAllocs float64
	layer("wire", func(root int32) {
		wireDist, wireAllocs = distPass("client.Dist", root, func(o op) client.Reply {
			r, err := s.cl.Dist(ctx, o.u, o.v)
			if err != nil {
				r.Err = err.Error()
			}
			return r
		})
		qs := make([]client.Query, b.batch)
		wireBatch = batchNS("client.Batch", root, batches, func(f frame) {
			for j, r := range f.reqs {
				qs[j] = client.Query{Type: r.Type.String(), U: r.U, V: r.V}
			}
			reps, err := s.cl.Batch(ctx, qs)
			if err == nil && len(reps) != len(qs) {
				err = errBatchLen
			}
			for j := range qs {
				if err != nil {
					t.check(false)
					continue
				}
				judge(f.at+j, reps[j])
			}
		})
	})
	set("wire.dist_ns", wireDist-obsDist)
	set("wire.batch_ns", wireBatch-obsBatch)
	set("wire.allocs_per_query", wireAllocs-obsAllocs)
}
