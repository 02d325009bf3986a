package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spanner"
	"spanner/client"
)

// Query types, in the order latencies are kept; kBatch is a batch frame.
const (
	qDist = iota
	qRoute
	qPath
	kBatch
	nKinds
)

var typeNames = [...]string{"dist", "route", "path"}

const (
	// ringLen is the length of each caller's pregenerated op ring. It is
	// a multiple of every batch size, and far above the engine's 4096-entry
	// per-type LRU, so uniform pairs come back only long after eviction.
	ringLen = 1 << 16
	// pathSample is how many path ops per ring get their length checked
	// against a BFS in the spanner.
	pathSample = 32
	// maxSnapshots bounds the snapshot ids an answer can be traced back to
	// its generation by; a run installs a few dozen at most.
	maxSnapshots = 1 << 12
)

// op is one query.
type op struct {
	typ  uint8
	u, v int32
}

// stream is one caller's ring of ops with their expected answers:
// want[g][i] is op i's distance on generation g — the oracle's estimate for
// dist ops, the spanner BFS distance for sampled path ops — or -1 where
// only the answer's shape is checked. pos is where the caller resumes.
type stream struct {
	ops  []op
	want [][]int32
	pos  int
}

// pairGen draws the workload's pairs: uniform over all vertices, or over
// the hot set when there is one. u ≠ v always.
type pairGen struct {
	rng *rand.Rand
	n   int32
	hot []int32
}

func (p *pairGen) pair() (int32, int32) {
	for {
		var u, v int32
		if p.hot != nil {
			u, v = p.hot[p.rng.Intn(len(p.hot))], p.hot[p.rng.Intn(len(p.hot))]
		} else {
			u, v = p.rng.Int31n(p.n), p.rng.Int31n(p.n)
		}
		if u != v {
			return u, v
		}
	}
}

// A mix draws a query type.
type mix func(*rand.Rand) uint8

// servingMix is the workloads' mix: dist 90%, route 8%, path 2%. It is an
// assumption, not recorded traffic; README.md compares it with spannerd's
// load generator default.
func servingMix(rng *rand.Rand) uint8 {
	switch r := rng.Intn(50); {
	case r < 45:
		return qDist
	case r < 49:
		return qRoute
	}
	return qPath
}

// probeMix draws each type a third of the time, so that a short probe
// gathers enough route and path samples.
func probeMix(rng *rand.Rand) uint8 { return uint8(rng.Intn(3)) }

func distOnly(*rand.Rand) uint8 { return qDist }

// newStream pregenerates a ring of ops over p's pairs with types from m,
// and their expected answers on each of gens.
func newStream(p *pairGen, m mix, gens []*spanner.Artifact, sg *spanner.Graph) *stream {
	st := &stream{ops: make([]op, ringLen)}
	for i := range st.ops {
		typ := m(p.rng)
		u, v := p.pair()
		st.ops[i] = op{typ: typ, u: u, v: v}
	}
	st.want = make([][]int32, len(gens))
	for g, a := range gens {
		w := make([]int32, ringLen)
		sampled := 0
		for i, o := range st.ops {
			w[i] = -1
			switch {
			case o.typ == qDist:
				w[i] = a.Oracle.Query(o.u, o.v)
			case o.typ == qPath && g == 0 && sampled < pathSample:
				w[i] = sg.Dist(o.u, o.v)
				sampled++
			}
		}
		st.want[g] = w
	}
	return st
}

// mode is what the callers of one load phase send.
type mode int

const (
	// modePoint sends the serving mix as WireClient.Query point queries.
	modePoint mode = iota
	// modeDist sends WireClient.Dist queries.
	modeDist
	// modeBatch sends the serving mix as WireClient.Batch frames.
	modeBatch
	// modeProbe sends the probe mix as WireClient.Query point queries.
	modeProbe
	// modeIdle runs no callers (the updater alone).
	modeIdle
)

var modeSpan = [...]string{"client.Query", "client.Dist", "client.Batch", "client.Query"}

// bench is one run's served stack with its callers' streams.
type bench struct {
	s     *stack
	wl    workload
	batch int
	// mix are the callers' streams with the serving mix over the
	// workload's pairs, probe the same with the probe mix, and dist
	// dist-only streams over the same pairs (churn).
	mix, probe, dist []*stream
	// hot is the hot set pairs are drawn from (nil for uniform pairs).
	hot []int32
	// genOf maps a snapshot id to the generation it serves, -1 if unknown.
	genOf []atomic.Int32
}

// newBench pregenerates every caller's streams from seed.
func newBench(s *stack, wl workload, seed int64) *bench {
	b := &bench{s: s, wl: wl, batch: wl.batch, genOf: make([]atomic.Int32, maxSnapshots)}
	if b.batch == 0 {
		b.batch = 16
	}
	for i := range b.genOf {
		b.genOf[i].Store(-1)
	}
	b.setGen(s.eng.SnapshotID(), 0)
	rng := rand.New(rand.NewSource(seed ^ 0x5e7ebe7c4))
	p := &pairGen{rng: rng, n: int32(s.g.N())}
	if wl.hot > 0 {
		p.hot = make([]int32, wl.hot)
		for i, v := range rng.Perm(s.g.N())[:wl.hot] {
			p.hot[i] = int32(v)
		}
	}
	b.hot = p.hot
	for c := 0; c < wl.callers; c++ {
		b.mix = append(b.mix, newStream(p, servingMix, s.gens[:1], s.sg))
		b.probe = append(b.probe, newStream(p, probeMix, s.gens[:1], s.sg))
		if wl.churn {
			b.dist = append(b.dist, newStream(p, distOnly, s.gens, s.sg))
		}
	}
	return b
}

func (b *bench) setGen(snapshot int64, g int) {
	if snapshot >= 0 && snapshot < maxSnapshots {
		b.genOf[snapshot].Store(int32(g))
	}
}

func (b *bench) gen(snapshot int64) int {
	if snapshot < 0 || snapshot >= maxSnapshots {
		return -1
	}
	return int(b.genOf[snapshot].Load())
}

// mainMode is what the workload's callers send in its timed loop.
func (b *bench) mainMode() mode {
	switch {
	case b.wl.churn:
		return modeDist
	case b.wl.batch > 0:
		return modeBatch
	}
	return modePoint
}

// loadStats is what one load phase measured.
type loadStats struct {
	// buckets split the phase into equal sub-windows by reply time. The
	// reported figures are medians over them, so that a disturbance
	// confined to a minority of sub-windows does not move them.
	buckets []bucket
	// elapsed runs from the phase's start to its callers' last reply.
	elapsed time.Duration
	// updNS and swapNS time ApplyDelta, and UnmarshalArtifact + Swap.
	updNS, swapNS []int64
	// chainEnd and restored are the updater's last final generation and
	// last restored base, whose checksums are checked after the phase.
	chainEnd, restored *spanner.Artifact
	// pending holds replies from a snapshot the updater had installed but
	// not yet recorded; they are judged when the phase ends.
	pending []pendingReply
	tally
}

// bucket is one sub-window of a phase.
type bucket struct {
	// lat holds call latencies in ns by query type, and batch frames.
	lat [nKinds][]int64
	// queries counts completed queries; a batch frame counts its entries.
	queries int64
	dur     time.Duration
}

type pendingReply struct {
	st *stream
	i  int
	r  client.Reply
}

func (l *loadStats) merge(o *loadStats) {
	for len(l.buckets) < len(o.buckets) {
		l.buckets = append(l.buckets, bucket{})
	}
	for i := range o.buckets {
		for k := range o.buckets[i].lat {
			l.buckets[i].lat[k] = append(l.buckets[i].lat[k], o.buckets[i].lat[k]...)
		}
		l.buckets[i].queries += o.buckets[i].queries
	}
	l.elapsed = max(l.elapsed, o.elapsed)
	l.updNS = append(l.updNS, o.updNS...)
	l.swapNS = append(l.swapNS, o.swapNS...)
	l.pending = append(l.pending, o.pending...)
	if o.chainEnd != nil {
		l.chainEnd = o.chainEnd
	}
	if o.restored != nil {
		l.restored = o.restored
	}
	l.add(o.tally)
}

// all returns every latency sample of kind k.
func (l *loadStats) all(k int) []int64 {
	var out []int64
	for i := range l.buckets {
		out = append(out, l.buckets[i].lat[k]...)
	}
	return out
}

// queries counts the phase's completed queries.
func (l *loadStats) queries() int64 {
	var n int64
	for i := range l.buckets {
		n += l.buckets[i].queries
	}
	return n
}

// qps is the median over sub-windows of completed queries per second.
func (l *loadStats) qps() float64 {
	var xs []float64
	for i := range l.buckets {
		xs = append(xs, float64(l.buckets[i].queries)/l.buckets[i].dur.Seconds())
	}
	return medianF(xs)
}

// pct is the median over sub-windows of kind k's q-quantile, in ns;
// sub-windows without samples of kind k are skipped.
func (l *loadStats) pct(k int, q float64) float64 {
	var xs []float64
	for i := range l.buckets {
		if len(l.buckets[i].lat[k]) > 0 {
			xs = append(xs, quantile(l.buckets[i].lat[k], q))
		}
	}
	return medianF(xs)
}

// updates configures the updater beside a phase's callers.
type updates struct {
	// on runs the updater.
	on bool
	// minCycles is how many cycles it finishes even past the deadline.
	minCycles int
	// swaps is how many decode + swap steps end each cycle: the first
	// restores the base, the others swap the base for a fresh copy.
	swaps int
	// collect runs a full GC before each timed step. Each step allocates
	// about an artifact's worth, so without it a sample's time depends on
	// whether a collection happens to start during the step.
	collect bool
}

// phase runs callers closed-loop in mode m for d, split into subs
// sub-windows, with the updater beside them as u says, and leaves the
// engine serving the base generation. With sp non-nil every call is
// recorded as a span.
func (b *bench) phase(m mode, callers int, d time.Duration, subs int, u updates, sp *spanLog) *loadStats {
	start := time.Now()
	deadline := start.Add(d)
	sub := d / time.Duration(subs)
	parts := make([]loadStats, callers+1)
	root := sp.reserve()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		st := b.mix[c]
		switch m {
		case modeDist:
			st = b.dist[c]
		case modeProbe:
			st = b.probe[c]
		}
		wg.Add(1)
		go func(c int, st *stream, out *loadStats) {
			defer wg.Done()
			b.caller(m, st, start, deadline, sub, sp, root, int64(c)*ringLen, out)
		}(c, st, &parts[c])
	}
	if u.on {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.updater(deadline, u, &parts[callers])
		}()
	}
	wg.Wait()
	sp.addID(root, "loop", -1, -1, start, time.Now())
	out := &loadStats{buckets: make([]bucket, subs)}
	for i := range parts {
		out.merge(&parts[i])
	}
	if m == modeIdle {
		out.elapsed = time.Since(start)
	}
	for i := range out.buckets {
		out.buckets[i].dur = sub
	}
	if last := &out.buckets[subs-1]; out.elapsed > d {
		last.dur += out.elapsed - d
	}
	for _, p := range out.pending {
		b.judge(p.st, p.i, &p.r, nil, &out.tally, nil)
	}
	out.pending = nil
	if u.on {
		b.checkSums(out)
		b.restoreBase(&out.tally)
	}
	return out
}

// caller sends st's ops one call at a time until a reply comes back after
// the deadline, filing each reply under the sub-window of length sub it
// arrived in. Its spans go under root, with request ids reqBase + op index.
func (b *bench) caller(m mode, st *stream, start, deadline time.Time, sub time.Duration, sp *spanLog, root int32, reqBase int64, out *loadStats) {
	ctx := context.Background()
	cl := b.s.cl
	last := start
	out.buckets = make([]bucket, max(1, int((deadline.Sub(start)+sub/2)/sub)))
	at := func(t time.Time) *bucket { return &out.buckets[min(int(t.Sub(start)/sub), len(out.buckets)-1)] }
	defer func() { out.elapsed = last.Sub(start) }()
	if m == modeBatch {
		qs := make([]client.Query, b.batch)
		for last.Before(deadline) {
			i := st.pos
			if i+b.batch > len(st.ops) {
				i = 0
			}
			st.pos = (i + b.batch) % len(st.ops)
			for j := range qs {
				o := st.ops[i+j]
				qs[j] = client.Query{Type: typeNames[o.typ], U: o.u, V: o.v}
			}
			t0 := time.Now()
			reps, err := cl.Batch(ctx, qs)
			last = time.Now()
			bk := at(last)
			bk.lat[kBatch] = append(bk.lat[kBatch], last.Sub(t0).Nanoseconds())
			bk.queries += int64(len(qs))
			if sp != nil {
				sp.add(modeSpan[m], root, reqBase+int64(i), t0, last)
			}
			if err == nil && len(reps) != len(qs) {
				err = errBatchLen
			}
			for j := range qs {
				var r *client.Reply
				if err == nil {
					r = &reps[j]
				}
				b.judge(st, i+j, r, err, &out.tally, &out.pending)
			}
		}
		return
	}
	for last.Before(deadline) {
		i := st.pos
		st.pos = (i + 1) % len(st.ops)
		o := st.ops[i]
		t0 := time.Now()
		var r client.Reply
		var err error
		if m == modeDist {
			r, err = cl.Dist(ctx, o.u, o.v)
		} else {
			r, err = cl.Query(ctx, client.Query{Type: typeNames[o.typ], U: o.u, V: o.v})
		}
		last = time.Now()
		bk := at(last)
		bk.lat[o.typ] = append(bk.lat[o.typ], last.Sub(t0).Nanoseconds())
		bk.queries++
		if sp != nil {
			sp.add(modeSpan[m], root, reqBase+int64(i), t0, last)
		}
		b.judge(st, i, &r, err, &out.tally, &out.pending)
	}
}

// judge counts one answer: op i of st, answered r (nil with err on a
// failed call). An answer from a snapshot whose generation is not yet
// known goes to pending when pending is non-nil, and fails otherwise.
func (b *bench) judge(st *stream, i int, r *client.Reply, err error, t *tally, pending *[]pendingReply) {
	if err != nil || r == nil {
		t.check(false)
		return
	}
	g := b.gen(r.Snapshot)
	if g < 0 && pending != nil {
		*pending = append(*pending, pendingReply{st: st, i: i, r: *r})
		return
	}
	if g < 0 || g >= len(st.want) {
		t.check(false)
		return
	}
	t.check(correct(st.ops[i], st.want[g][i], b.s.g, b.s.sg, r))
}

// updater applies the delta chain with Engine.ApplyDelta, then swaps the
// base back in with UnmarshalArtifact + Engine.Swap, cycle after cycle,
// until the deadline has passed and at least u.minCycles cycles are done.
// Checksums are not computed here, where they would run beside the timed
// reader: every cycle checks that the engine serves the artifact it was
// handed, the last cycle's final generation and restored base are kept,
// and phase compares their checksums once the callers have stopped. Each
// cycle's first ApplyDelta also checks the restored base, as Delta.Apply
// refuses a base whose checksum is not the one the delta was made from.
func (b *bench) updater(deadline time.Time, u updates, out *loadStats) {
	s := b.s
	done := func(cycles int) bool { return cycles >= u.minCycles && !time.Now().Before(deadline) }
	for cycles := 0; !done(cycles); cycles++ {
		applied := 0
		for i, d := range s.deltas {
			if done(cycles) {
				return
			}
			if u.collect {
				runtime.GC()
			}
			t0 := time.Now()
			id, err := s.eng.ApplyDelta(d)
			el := time.Since(t0)
			out.check(err == nil)
			if err != nil {
				break
			}
			out.updNS = append(out.updNS, el.Nanoseconds())
			b.setGen(id, i+1)
			applied++
		}
		if applied == len(s.deltas) {
			out.chainEnd = s.eng.Snapshot().Art
		}
		for k := 0; k < u.swaps && !done(cycles); k++ {
			if u.collect {
				runtime.GC()
			}
			t0 := time.Now()
			a, err := spanner.UnmarshalArtifact(s.blob)
			var id int64
			if err == nil {
				id, err = s.eng.Swap(a)
			}
			el := time.Since(t0)
			out.check(err == nil)
			if err != nil {
				continue
			}
			out.swapNS = append(out.swapNS, el.Nanoseconds())
			b.setGen(id, 0)
			out.check(s.eng.Snapshot().Art == a)
			out.restored = a
		}
	}
}

// checkSums compares the checksums of the last final generation and the
// last restored base the updater installed with the independently built
// ones.
func (b *bench) checkSums(l *loadStats) {
	if l.chainEnd != nil {
		l.check(l.chainEnd.Checksum() == b.s.sums[len(b.s.sums)-1])
	}
	if l.restored != nil {
		l.check(l.restored.Checksum() == b.s.sums[0])
	}
	l.chainEnd, l.restored = nil, nil
}

// restoreBase puts the base generation back if the updater stopped
// elsewhere in the chain.
func (b *bench) restoreBase(t *tally) {
	if b.gen(b.s.eng.SnapshotID()) == 0 {
		return
	}
	id, err := b.s.eng.Swap(b.s.art)
	t.check(err == nil)
	if err == nil {
		b.setGen(id, 0)
	}
}

// hotOps returns every ordered pair of the hot set once per query type.
func (b *bench) hotOps() []op {
	var ops []op
	for typ := uint8(0); typ < 3; typ++ {
		for _, u := range b.hot {
			for _, v := range b.hot {
				if u != v {
					ops = append(ops, op{typ: typ, u: u, v: v})
				}
			}
		}
	}
	return ops
}

// fillCache sends every hot pair once per query type in batch frames, so
// that the timed loop starts with the engine's LRU full.
func (b *bench) fillCache(t *tally) {
	st := &stream{ops: b.hotOps(), want: [][]int32{nil}}
	w := make([]int32, len(st.ops))
	for i, o := range st.ops {
		w[i] = -1
		if o.typ == qDist {
			w[i] = b.s.art.Oracle.Query(o.u, o.v)
		}
	}
	st.want[0] = w
	ctx := context.Background()
	for i := 0; i < len(st.ops); i += b.batch {
		j := min(i+b.batch, len(st.ops))
		qs := make([]client.Query, 0, j-i)
		for _, o := range st.ops[i:j] {
			qs = append(qs, client.Query{Type: typeNames[o.typ], U: o.u, V: o.v})
		}
		reps, err := b.s.cl.Batch(ctx, qs)
		if err == nil && len(reps) != len(qs) {
			err = errBatchLen
		}
		for k := range qs {
			var r *client.Reply
			if err == nil {
				r = &reps[k]
			}
			b.judge(st, i+k, r, err, t, nil)
		}
	}
}
