// Command servebench is the repository's serving benchmark. In one OS
// process it builds the paper's linear-size skeleton on the distributed
// simulator, freezes it into an artifact, and serves it through the real
// query engine, the binary wire server and the wire client, connected over
// loopback TCP. It times only calls to the public spanner and client
// packages and checks every answer. See README.md for the workloads and
// metrics.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash servebench/run.sh --workload point-uniform --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 replays the workload layer by layer and reports the
// per-layer metrics instead, writing its spans as JSONL.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// workload is one traffic shape against the served artifact.
type workload struct {
	name string
	// procs is the GOMAXPROCS the workload runs at.
	procs int
	// callers is the number of closed-loop readers.
	callers int
	// batch is the number of queries per WireClient.Batch frame; 0 means
	// point queries.
	batch int
	// hot is the size of the vertex set pairs are drawn from; 0 means
	// uniform pairs over all vertices.
	hot int
	// churn adds an updater applying the delta chain beside one reader
	// that calls WireClient.Dist.
	churn bool
	// subs is how many sub-windows the timed loop is split into; its qps
	// and percentiles are medians over them. Churn takes one: its reader's
	// pace follows the updater's cycle, which sub-windows would alias.
	subs int
}

var workloads = []workload{
	{name: "point-uniform", procs: 1, callers: 2, subs: 10},
	{name: "hot-batch", procs: 1, callers: 2, batch: 16, hot: 48, subs: 10},
	{name: "churn", procs: 2, callers: 1, churn: true, subs: 1},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want point-uniform, hot-batch or churn)", name)
}

// servedN is the served graph's vertex count: the size of ROADMAP.md's
// oracle floor.
const servedN = 5000

// options are one run's settings. Tests shrink window and n.
type options struct {
	workload string
	seed     int64
	// window is the timed closed loop's length; warm-up and probes are
	// fixed fractions of it.
	window time.Duration
	trace  bool
	// n is the vertex count of the served graph.
	n int
	// spansDir receives the traced run's span file.
	spansDir string
	// pin binds the process to one CPU whenever it runs at GOMAXPROCS=1
	// (see pinToOneCPU). Tests leave it off: it would outlast the run.
	pin bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// tally counts attempted and failed operations. Every query, update and
// swap is one operation, and so is every set-up check.
type tally struct {
	attempted, failed int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// check counts one operation, failed unless ok.
func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func main() {
	var o options
	var seconds float64
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "point-uniform, hot-batch or churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 replays the workload layer by layer and reports per-layer metrics")
	flag.StringVar(&o.spansDir, "spans-dir", ".", "directory the traced run writes its span file to")
	flag.Parse()
	if flag.NArg() > 0 || traceFlag < 0 || traceFlag > 1 || seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = traceFlag == 1
	o.n = servedN
	o.pin = true
	res, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload at its own GOMAXPROCS and returns the result
// line; the human-readable report goes to w.
func run(w io.Writer, o options) (*result, error) {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs))
	if wl.procs == 1 {
		onOneCPU(w, o)
	}
	var res *result
	if o.trace {
		res, err = runTraced(w, wl, o)
	} else {
		res, err = runEndToEnd(w, wl, o)
	}
	if err != nil {
		return nil, err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value", name)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// onOneCPU binds the process to one CPU when o asks for it. Without that,
// the same seed's latencies spread two to four times wider on a 2-vCPU VM.
func onOneCPU(w io.Writer, o options) {
	if !o.pin {
		return
	}
	if cpu, err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: not bound to one CPU:", err)
	} else {
		fmt.Fprintf(w, "# bound to CPU %d\n", cpu)
	}
}

// header prints the run's identifying line.
func header(w io.Writer, wl workload, o options, s *stack) {
	mode := "end-to-end"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# servebench %s workload=%s seed=%d n=%d m=%d |S|=%d artifact_bytes=%d GOMAXPROCS=%d nproc=%d go=%s callers=%d conns=%d window=%v\n",
		mode, wl.name, o.seed, s.g.N(), s.g.M(), s.art.Spanner.Len(), len(s.blob),
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), wl.callers, wireConns, o.window)
}
