package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

const (
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 3
	// probeSubs is how many sub-windows a probe is split into.
	probeSubs = 4
)

// runEndToEnd measures the workload untraced: set-up several times, a
// warm-up, the timed closed loop, and probes for the end-to-end metrics
// the loop's own ops do not produce.
func runEndToEnd(w io.Writer, wl workload, o options) (*result, error) {
	var t tally
	var setups []int64
	var s *stack
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		next, err := setUp(o.n, o.seed, wl.churn, nil, 0)
		el := time.Since(t0)
		if s != nil {
			s.close()
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, el.Nanoseconds())
		t.add(next.checks)
		s = next
	}
	defer s.close()
	if !wl.churn {
		// The update probe needs the chain; outside churn it is an input
		// made after set-up, not part of it.
		if err := s.buildChain(o.seed, nil, 0); err != nil {
			return nil, err
		}
	}
	header(w, wl, o, s)
	b := newBench(s, wl, o.seed)
	if b.hot != nil {
		b.fillCache(&t)
	}
	main := b.mainMode()
	churn := updates{on: wl.churn, swaps: 1}
	t.add(b.phase(main, wl.callers, o.window/10, 1, churn, nil).tally)
	loop := b.phase(main, wl.callers, o.window, wl.subs, churn, nil)
	t.add(loop.tally)

	// Probes: the contract reports every end-to-end metric on every
	// workload, so kinds the loop does not send are measured right after
	// it, on the same stack and pairs. They run at GOMAXPROCS=1 on one CPU
	// everywhere: at GOMAXPROCS=2 a lone caller's round trips changed with
	// where the scheduler happened to place the goroutines of each side.
	if wl.procs > 1 {
		runtime.GOMAXPROCS(1)
		onOneCPU(w, o)
	}
	var src [nKinds]*loadStats
	var point, batch *loadStats
	for k := range src {
		src[k] = loop
		if len(loop.all(k)) > 0 {
			continue
		}
		switch {
		case k == kBatch:
			batch = b.phase(modeBatch, wl.callers, o.window/5, probeSubs, updates{}, nil)
			t.add(batch.tally)
			src[k] = batch
		case point == nil:
			// One caller: two would fall in and out of step as the client
			// coalesces their queries into one frame, and the probe's
			// latencies with them.
			point = b.phase(modeProbe, 1, o.window/5, probeSubs, updates{}, nil)
			t.add(point.tally)
			fallthrough
		default:
			src[k] = point
		}
	}
	upd := loop
	if len(upd.updNS) == 0 {
		// Ten idle cycles of two swaps each: with the two-delta chain,
		// update_s and swap_s are each the median of 20 samples.
		upd = b.phase(modeIdle, 0, 0, 1, updates{on: true, minCycles: 10, swaps: 2, collect: true}, nil)
		t.add(upd.tally)
	}

	from := func(l *loadStats) string {
		if l == loop {
			return "loop"
		}
		return "probe"
	}
	fmt.Fprintf(w, "latencies (loop = the timed %v closed loop in %d sub-windows, probe = measured after it):\n", o.window, wl.subs)
	for k, name := range [nKinds]string{"dist", "route", "path", "batch"} {
		latencyLine(w, name+" ("+from(src[k])+")", src[k].all(k))
	}
	fmt.Fprintf(w, "  %-22s n=%-8d median=%.4fs\n", "update ("+from(upd)+")", len(upd.updNS), quantile(upd.updNS, 0.5)/1e9)
	fmt.Fprintf(w, "  %-22s n=%-8d median=%.4fs\n", "swap ("+from(upd)+")", len(upd.swapNS), quantile(upd.swapNS, 0.5)/1e9)
	fmt.Fprintf(w, "  %-22s %v\n", "setup samples", setups)
	var perSub []string
	for i := range loop.buckets {
		perSub = append(perSub, fmt.Sprintf("%.0f", float64(loop.buckets[i].queries)/loop.buckets[i].dur.Seconds()))
	}
	fmt.Fprintf(w, "  %-22s %v\n", "qps per sub-window", perSub)

	res := &result{}
	set := func(name string, v float64) { res.setDef(endToEnd, name, v) }
	set("setup_s", quantile(setups, 0.5)/1e9)
	set("qps", loop.qps())
	set("dist_p50_us", src[qDist].pct(qDist, 0.5)/1e3)
	set("dist_p90_us", src[qDist].pct(qDist, 0.9)/1e3)
	set("route_p50_us", src[qRoute].pct(qRoute, 0.5)/1e3)
	set("path_p50_us", src[qPath].pct(qPath, 0.5)/1e3)
	set("batch_p50_us", src[kBatch].pct(kBatch, 0.5)/1e3)
	set("batch_p90_us", src[kBatch].pct(kBatch, 0.9)/1e3)
	set("update_s", quantile(upd.updNS, 0.5)/1e9)
	set("swap_s", quantile(upd.swapNS, 0.5)/1e9)

	// Live heap with the benchmark's own buffers released: what serving
	// the artifact holds.
	b, loop, point, batch, upd, src = nil, nil, nil, nil, nil, [nKinds]*loadStats{}
	s.release()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	set("heap_mb", float64(ms.HeapAlloc)/1e6)

	table(w, "end-to-end metrics:", endToEnd, res)
	fmt.Fprintf(w, "ops attempted=%d failed=%d\n", t.attempted, t.failed)
	res.Attempted, res.Failed = t.attempted, t.failed
	return res, nil
}
