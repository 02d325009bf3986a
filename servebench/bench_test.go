package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spanner"
	"spanner/client"
)

// tiny shrinks a run to a few hundred vertices and a fraction of a second.
func tiny(t *testing.T, name string, trace bool) options {
	return options{workload: name, seed: 7, window: 300 * time.Millisecond, trace: trace, n: 300, spansDir: t.TempDir()}
}

func TestCorruptedReplyFails(t *testing.T) {
	// The path 0-1-2-3 plus the chord 0-2; the spanner drops the chord.
	g := spanner.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 2}})
	sg := spanner.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	dist := op{typ: qDist, u: 0, v: 3}
	route := op{typ: qRoute, u: 0, v: 3}
	path := op{typ: qPath, u: 0, v: 3}
	good := []struct {
		o    op
		want int32
		r    client.Reply
	}{
		{dist, 2, client.Reply{Type: "dist", U: 0, V: 3, Dist: 2}},
		{route, -1, client.Reply{Type: "route", U: 0, V: 3, Dist: 2, Path: []int32{0, 2, 3}}},
		{path, 3, client.Reply{Type: "path", U: 0, V: 3, Dist: 3, Path: []int32{0, 1, 2, 3}}},
	}
	for _, c := range good {
		if !correct(c.o, c.want, g, sg, &c.r) {
			t.Fatalf("correct answer %+v judged wrong", c.r)
		}
	}
	bad := map[string]struct {
		o    op
		want int32
		r    client.Reply
	}{
		"wrong dist":       {dist, 2, client.Reply{Type: "dist", U: 0, V: 3, Dist: 3}},
		"other pair":       {dist, 2, client.Reply{Type: "dist", U: 0, V: 2, Dist: 2}},
		"other type":       {dist, 2, client.Reply{Type: "path", U: 0, V: 3, Dist: 2}},
		"error":            {dist, 2, client.Reply{Type: "dist", U: 0, V: 3, Dist: 2, Err: "boom"}},
		"degraded":         {dist, 2, client.Reply{Type: "dist", U: 0, V: 3, Dist: 2, Degraded: true}},
		"route non-edge":   {route, -1, client.Reply{Type: "route", U: 0, V: 3, Dist: 1, Path: []int32{0, 3}}},
		"route short":      {route, -1, client.Reply{Type: "route", U: 0, V: 3, Dist: 1, Path: []int32{0, 2}}},
		"route miscount":   {route, -1, client.Reply{Type: "route", U: 0, V: 3, Dist: 5, Path: []int32{0, 2, 3}}},
		"path off span":    {path, -1, client.Reply{Type: "path", U: 0, V: 3, Dist: 2, Path: []int32{0, 2, 3}}},
		"path too long":    {path, 3, client.Reply{Type: "path", U: 0, V: 3, Dist: 5, Path: []int32{0, 1, 2, 1, 2, 3}}},
		"path empty":       {path, -1, client.Reply{Type: "path", U: 0, V: 3, Dist: 0}},
		"route bad vertex": {route, -1, client.Reply{Type: "route", U: 0, V: 3, Dist: 2, Path: []int32{0, 4, 3}}},
	}
	for name, c := range bad {
		if correct(c.o, c.want, g, sg, &c.r) {
			t.Errorf("%s: corrupted answer %+v judged correct", name, c.r)
		}
	}

	// Through the bench's own counting: one good, one corrupted, one from
	// an unknown snapshot and one failed call make three failures.
	b := &bench{s: &stack{g: g, sg: sg}, genOf: make([]atomic.Int32, 4)}
	for i := range b.genOf {
		b.genOf[i].Store(-1)
	}
	b.setGen(1, 0)
	st := &stream{ops: []op{dist}, want: [][]int32{{2}}}
	var tl tally
	b.judge(st, 0, &client.Reply{Type: "dist", U: 0, V: 3, Dist: 2, Snapshot: 1}, nil, &tl, nil)
	b.judge(st, 0, &client.Reply{Type: "dist", U: 0, V: 3, Dist: 1, Snapshot: 1}, nil, &tl, nil)
	b.judge(st, 0, &client.Reply{Type: "dist", U: 0, V: 3, Dist: 2, Snapshot: 3}, nil, &tl, nil)
	b.judge(st, 0, nil, errBatchLen, &tl, nil)
	if tl.attempted != 4 || tl.failed != 3 {
		t.Fatalf("tally = %+v, want 4 attempted and 3 failed", tl)
	}
}

// contract is the part of BENCHMARK.json the output must match.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkMetrics runs o and checks that its result line holds exactly the
// named metrics with their units and that the report prints each one.
func checkMetrics(t *testing.T, o options, want map[string]string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(&out, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", o.workload, o.trace, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics, want %d", o.workload, o.trace, len(res.Metrics), len(want))
	}
	report := out.String()
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s trace=%v: metric %s missing", o.workload, o.trace, name)
		case m.Unit != unit:
			t.Errorf("%s trace=%v: metric %s unit %q, want %q", o.workload, o.trace, name, m.Unit, unit)
		}
		found := false
		for _, line := range strings.Split(report, "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && f[0] == name && f[2] == unit {
				found = true
			}
		}
		if !found {
			t.Errorf("%s trace=%v: report has no line for %s in %s", o.workload, o.trace, name, unit)
		}
	}
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	c := readContract(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(e2e) != len(endToEnd) || len(layer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d+%d metrics, the benchmark %d+%d", len(e2e), len(layer), len(endToEnd), len(perLayer))
	}
	checkMetrics(t, tiny(t, "point-uniform", false), e2e)
	checkMetrics(t, tiny(t, "point-uniform", true), layer)
}

func TestWorkloadsFinishTiny(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(&out, tiny(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
		}
	}
}

// TestReplayCacheState checks that the traced replay finds the engine's LRU
// as the workload's loop finds it: uniform pairs miss, the hot set hits.
// At n = 2000 the LRU holds well under 1% of all uniform pairs, while a
// replay that warmed on its own ops would hit every route and path op, a
// tenth of the mix.
func TestReplayCacheState(t *testing.T) {
	for _, name := range []string{"point-uniform", "hot-batch"} {
		o := tiny(t, name, true)
		o.n = 2000
		var out bytes.Buffer
		res, err := run(&out, o)
		if err != nil {
			t.Fatal(err)
		}
		hits := res.Metrics["serve.cache_hit_ratio"].Value
		if name == "hot-batch" && hits < 0.99 {
			t.Errorf("%s: replay cache hit ratio %.4f, want about 1", name, hits)
		}
		if name == "point-uniform" && hits > 0.05 {
			t.Errorf("%s: replay cache hit ratio %.4f, want about 0", name, hits)
		}
	}
}
