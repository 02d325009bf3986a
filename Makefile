GO ?= go

.PHONY: all build test test-short race bench experiments fuzz fmt fmtcheck vet faultcheck serve dynamic obscheck chaoscheck clustercheck partcheck wirecheck servebench check clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The root benchmarks, including BenchmarkArtifactBuild and
# BenchmarkDeltaApply (the cost of one generation rebuild at n=5000),
# BenchmarkArtifactCodec (encode, decode and delta apply of the artifact
# at servebench's shape, n=5000 and k=3; decode is what a /swap pays),
# BenchmarkRoutingBuild (the routing scheme alone at servebench's shape,
# with landmark count and largest/mean table size; run it with -cpu 1),
# BenchmarkNewMaintainer (the dynamic maintainer's witness index at n=5000,
# GOMAXPROCS 1 and 2), BenchmarkSkeletonDistributed (the paper's
# distributed skeleton builder at servebench's shape; run it with -cpu 1,
# allocs/op is the simulator's per-message cost) and BenchmarkSpannerPath
# (path-query search on that skeleton, bidirectional against the one-sided
# reference, with visited/op; run it with -cpu 1). The landmark trees, the
# witness index and spanner verification share graph's multi-source BFS
# kernel; BenchmarkViolatedEdges in internal/verify times verification of
# that skeleton against the per-vertex reference (run it with -cpu 1,2).
bench:
	$(GO) test -bench=. -benchmem .

experiments:
	$(GO) run ./cmd/experiments -scale small

fuzz:
	$(GO) test -fuzz=FuzzReadGraph -fuzztime=30s ./internal/graph
	$(GO) test -fuzz=FuzzFaultPlan -fuzztime=30s ./internal/faults

fmt:
	gofmt -w .

fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet: fmtcheck
	$(GO) vet ./...
	$(GO) test -race ./internal/distsim/... ./internal/obs/...
	$(GO) test -run Fault -race ./internal/distsim/... ./internal/faults/...

# The robustness gate: every fault-injection, panic-containment,
# self-healing, reliable-transport and checkpoint/resume test under the
# race detector, the simulator's pinned outputs (rounds, messages, words,
# max words and output hashes of every distributed builder at 1, 2 and 4
# workers), spanner verification (ViolatedEdges on
# graph's multi-source BFS kernel) against its per-vertex BFS reference at
# 1, 2 and 4 workers, plus short fuzz passes over the fault-plan space and
# the reliable link protocol.
faultcheck:
	gofmt -l internal/reliable internal/verify internal/distsim internal/core | \
		{ ! grep .; } || { echo "gofmt needed (see above)" >&2; exit 1; }
	$(GO) vet ./internal/reliable/... ./internal/verify/... ./internal/distsim/... ./internal/core/...
	$(GO) test -run 'Fault|Heal|Stall|Deadline|Panic|Crash|Drop|Resilience|Reliable|Wrap|Checkpoint|Resume|Degrad|Dup|Abandon' -race \
		./internal/distsim/... ./internal/faults/... ./internal/verify/... \
		./internal/reliable/... ./internal/core/... .
	$(GO) test -run PinnedOutputs -race -count=1 -cpu 1,2,4 \
		./internal/distsim/ ./internal/core/ ./internal/fibonacci/ ./internal/oracle/ \
		./internal/baseline/
	$(GO) test -run ViolatedEdges -race -count=1 -cpu 1,2,4 ./internal/verify/
	$(GO) test -fuzz=FuzzFaultPlan -fuzztime=10s ./internal/faults
	$(GO) test -fuzz=FuzzReliableLink -fuzztime=10s ./internal/reliable
	$(GO) test -fuzz=FuzzArtifactDecode -fuzztime=10s ./internal/artifact
	$(GO) test -fuzz=FuzzDeltaDecode -fuzztime=10s ./internal/artifact
	$(GO) test -fuzz=FuzzUpdateLogRecovery -fuzztime=10s ./internal/dynamic
	$(GO) test -fuzz=FuzzPartDecode -fuzztime=10s ./internal/artifact
	$(GO) test -fuzz=FuzzPartitionMapDecode -fuzztime=10s ./internal/artifact
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wire

# The serving-layer gate: artifact codec, query engine and daemon tests
# under the race detector, the root round-trip/hot-swap integration tests,
# the flat oracle/routing tables and the delta patch against their map-based
# references, the routing scheme's landmark trees against single-source
# BFS with their table-size skew bar, graph's multi-source BFS kernel
# against single-source BFS, the path-query kernel (graph.ShortestPath)
# against full-BFS distances with its one-allocation bar, and the unraced
# allocation bars on
# Engine.Query (0 for dist, 1 for an uncached path), oracle.Query and
# routing.NextHop.
serve:
	$(GO) vet ./internal/artifact/... ./internal/serve/... ./cmd/spannerd/... \
		./internal/oracle/... ./internal/routing/... ./internal/flatmap/... \
		./internal/graph/...
	$(GO) test -race ./internal/artifact/... ./internal/serve/... ./cmd/spannerd/...
	$(GO) test -run 'Serve|Artifact' -race .
	$(GO) test -race -count=1 ./internal/flatmap/
	$(GO) test -run 'MatchesMapReference|DecodeNumberingMatchesReference' -race -count=1 \
		./internal/oracle/ ./internal/routing/ ./internal/artifact/
	$(GO) test -run 'LandmarkTrees|TableSizeSkew' -race -count=1 ./internal/routing/
	$(GO) test -run 'ShortestPath|MSBFS' -race -count=1 ./internal/graph/
	$(GO) test -run 'ZeroAlloc|PathQueryOneAlloc' -count=1 ./internal/serve ./internal/oracle ./internal/routing

# The dynamic-updates gate: maintainer, update-stream/log and delta-codec
# tests under the race detector (including the delta-apply/LRU-eviction
# regression race in internal/serve), the witness index against its
# per-vertex BFS reference and graph's multi-source BFS kernel under it
# against single-source BFS, both at 1, 2 and 4 workers, plus the root
# acceptance tests: per-batch bound maintenance, byte-identical delta round
# trips, and /update under concurrent load.
dynamic:
	$(GO) vet ./internal/dynamic/... ./internal/artifact/... ./internal/serve/...
	$(GO) test -race ./internal/dynamic/... ./internal/artifact/...
	$(GO) test -race -cpu 1,2,4 -run KernelMatchesReference ./internal/dynamic/
	$(GO) test -race -cpu 1,2,4 -run MSBFS ./internal/graph/
	$(GO) test -run 'Delta|Update' -race ./internal/serve/... ./cmd/spannerd/...
	$(GO) test -run 'Dynamic|Delta|Churn' -race .

# The observability gate: histogram/tracer/SLO/Prometheus unit tests and
# the daemon's metrics endpoints under the race detector, the spannertop
# and tracestats tooling tests, the root trace-vs-histogram reconciliation
# test, and the benchmark-backed ≤5% serving-overhead bar.
obscheck:
	$(GO) vet ./internal/obs/... ./cmd/spannerd/... ./cmd/spannertop/... ./cmd/tracestats/...
	$(GO) test -race ./internal/obs/... ./cmd/spannerd/... ./cmd/spannertop/... ./cmd/tracestats/...
	$(GO) test -run 'Obs|Trace|Metric|SLO|Prometheus' -race ./internal/serve/... .
	$(GO) test -run TestObservabilityOverhead -count=1 ./internal/serve/

# The serving-resilience gate: the chaos substrate, crash recovery and
# retrying-client unit tests under the race detector, then the chaos
# acceptance suite (zero wrong answers under every seeded failure class,
# every degraded answer flagged, recovery falls back to the last good
# generation, drain completes in-flight work) and the benchmark-backed
# ≤5% resilience-overhead bar.
chaoscheck:
	$(GO) vet ./internal/httpchaos/... ./internal/recovery/... ./client/...
	$(GO) test -race ./internal/httpchaos/... ./internal/recovery/... ./client/...
	$(GO) test -run 'Chaos|Drain|FallsBack|RecoveredDeltas|Brownout|BatchLimit|Degraded|Recovery|Resilience|Priority' -race \
		./cmd/spannerd/... ./internal/dynamic/... ./internal/serve/...
	$(GO) test -run TestResilienceOverhead -count=1 ./internal/serve/

# The cluster-serving gate: every router and replica test, whole-graph
# and partitioned, under the race detector (replica state machine, the
# two-phase commit, failover/hedging/catch-up, scatter-gather, the router's
# HTTP surface in both modes) including both subprocess node-kill chaos
# suites (real spannerd and spannerrouter processes, SIGKILLs landing
# mid-swap, mid-update and under load: zero wrong answers, no generation
# divergence, rejoin at the committed generation, quorum loss degrades
# instead of failing).
clustercheck:
	$(GO) vet ./internal/clusterserve/... ./cmd/spannerrouter/...
	$(GO) test -race -count=1 ./internal/clusterserve/... ./cmd/spannerrouter/...

# The partitioned-serving gate: the splitter, part/map codecs and partition
# engine under the race detector, then the subprocess partitioned node-kill
# chaos suite (3 partitions × 2 members as real processes, SIGKILLs landing
# mid-composed-swap and under load: zero wrong answers, composed/degraded
# answers bracket the truth, the composed generation never observed
# partially committed). The router's own partitioned tests run in
# clustercheck.
partcheck:
	$(GO) vet ./internal/partition/...
	$(GO) test -race ./internal/partition/...
	$(GO) test -run 'Partition|ComposedSwap|Quorum|Part|Split|Covered|Compose' -race -count=1 \
		./internal/partition/... ./internal/artifact/... ./internal/serve/...
	$(GO) test -run TestPartitionedNodeKillChaos -race -count=1 -timeout 300s ./cmd/spannerrouter/

# The binary-transport gate: the wire codec and server plus the pooled,
# pipelined binary client under the race detector (pipelining, coalescing,
# pooling/scavenging, breaker and retry semantics), the cross-transport
# equivalence suite (identical query streams over HTTP/JSON and binary wire
# return byte-identical answers, including degraded/composed flags and
# typed-error parity), the load generator against spannerd over each
# transport (-wire and -replicas), and the unraced zero-alloc bars on the
# steady-state point-query path: the client against an echo responder, and
# the client, wire server and engine together.
wirecheck:
	$(GO) vet ./internal/wire/... ./client/...
	$(GO) test -race ./internal/wire/...
	$(GO) test -run 'Wire' -race ./client/... ./cmd/spannerd/... .
	$(GO) test -run 'CrossTransport|Loadgen(Wire|Replicas)' -race -count=1 ./cmd/spannerd/
	$(GO) test -run ZeroAlloc -count=1 ./client/

# The serving benchmark's own tests (a separate module under servebench/):
# tiny runs of every workload, the answer checks and the replay cache state.
servebench:
	cd servebench && $(GO) test .

# The full gate: build, vet, unit tests, then the robustness, serving,
# dynamic, observability, serving-resilience, cluster-serving,
# partitioned-serving and binary-transport suites, and the serving
# benchmark's tests.
check: build vet test faultcheck serve dynamic obscheck chaoscheck clustercheck partcheck wirecheck servebench

clean:
	$(GO) clean ./...
