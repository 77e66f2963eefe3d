# Development workflow for the ReACH reproduction.
#
#   make check       — everything CI runs: formatting, build, vet, race tests,
#                      then vet and tests of the perfbench module
#   make perfbench-check — vet and test the perfbench module; it is its own
#                      Go module, so `go build ./...` at the root cannot see
#                      a change that breaks it
#   make test        — fast tier-1 gate (what ROADMAP.md calls the verify step)
#   make bench       — event-engine benchmarks with allocation stats (the
#                      evaluation's wall clock, per experiment, is measured
#                      by `bash perfbench/run.sh --workload eval`)
#   make bench-smoke — 1x pass over the engine benchmarks, so benchmark
#                      code runs in CI without paying full benchtime (the
#                      full evaluation's wall clock is measured by
#                      `bash perfbench/run.sh --workload eval`)
#   make metrics-smoke — end-to-end observability check: run reachsim with
#                      -metrics/-spans/-trace and validate the CSV schema,
#                      the Chrome-trace JSON and the bottleneck report
#   make qtrace-smoke — per-query tracing check: a Poisson tail-latency
#                      sweep with the live inspector on an ephemeral port,
#                      curl its progress/expvar endpoints mid-run, then
#                      validate the per-query CSV dumps
#   make cluster-smoke — cluster scatter-gather check: a pinned 4-node
#                      run with the inspector on an ephemeral port, its
#                      summary table diffed against the committed golden
#                      and the inspector snapshots validated
#   make cluster-par-smoke — parallel-determinism check: the same cluster
#                      run at -pj 1, 4 and 8 worker goroutines must emit
#                      byte-identical reports
#   make cache-smoke — front-end result-cache check: the pinned cluster
#                      run with -cache 32 at -pj 1, 4 and 8 must emit
#                      byte-identical reports (cache rows included) and
#                      the cache sweep must report its cache-off baseline
#   make cluster-obs-smoke — cluster observability check: the pinned run
#                      with -metrics, -spans, -trace and -slo on at -pj 1
#                      and -pj 8 must emit byte-identical reports and
#                      artifacts, the trace JSON must parse and the
#                      straggler and SLO tables must appear
#   make flight-smoke — flight-recorder check: the flash-crowd run with
#                      -flight -detect must cut exactly one diagnostic
#                      bundle (slo-burn verdict, queue-dominated window),
#                      the whole bundle directory must be byte-identical
#                      at -pj 1 and -pj 8
#
# The plain -cluster report is diffed against the committed golden once,
# by cluster-smoke (and by the tier-1 TestClusterRunGolden); `make check`
# runs the race detector over every package and vets and tests the
# perfbench module.

GO ?= go
SMOKE_DIR := metrics-smoke-out
QSMOKE_DIR := qtrace-smoke-out
CSMOKE_DIR := cluster-smoke-out
PSMOKE_DIR := cluster-par-smoke-out
CACHESMOKE_DIR := cache-smoke-out
OBSSMOKE_DIR := cluster-obs-smoke-out
FLIGHTSMOKE_DIR := flight-smoke-out

.PHONY: check fmt-check build vet test race perfbench-check bench bench-smoke metrics-smoke qtrace-smoke cluster-smoke cluster-par-smoke cache-smoke cluster-obs-smoke flight-smoke

check: fmt-check build vet race perfbench-check

# gofmt -l prints offending files; any output fails the target.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/sim/

bench-smoke:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' ./internal/sim/

# End-to-end observability smoke: a sampled experiment sweep (CSV dump +
# bottleneck tables) and an instrumented trace (counter lanes + GAM spans),
# then schema/JSON validation via the env-gated test in cmd/reachsim.
metrics-smoke:
	rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/reachsim -exp fig9 -metrics $(SMOKE_DIR)/metrics.csv \
		-metrics-interval 200us -spans > $(SMOKE_DIR)/report.txt
	$(GO) run ./cmd/reachsim -trace $(SMOKE_DIR)/trace.json -spans \
		-metrics-interval 500us
	METRICS_SMOKE_DIR=$$PWD/$(SMOKE_DIR) $(GO) test -run TestMetricsSmokeArtifacts -v ./cmd/reachsim/

# Per-query tracing smoke: the Poisson tail-latency sweep with -qtrace and
# the inspector on an ephemeral port. The recipe scrapes the bound address
# from stderr, snapshots /progress and /debug/vars while the sweep runs,
# waits for a clean exit, then validates every artifact via the env-gated
# test in cmd/reachsim.
qtrace-smoke:
	rm -rf $(QSMOKE_DIR) && mkdir -p $(QSMOKE_DIR)
	$(GO) build -o $(QSMOKE_DIR)/reachsim ./cmd/reachsim
	@set -e; \
	$(QSMOKE_DIR)/reachsim -exp taillatency -http 127.0.0.1:0 -http-linger 120s \
		-qtrace $(QSMOKE_DIR)/queries.csv \
		> $(QSMOKE_DIR)/report.txt 2> $(QSMOKE_DIR)/stderr.log & \
	pid=$$!; \
	for i in $$(seq 1 600); do \
		grep -q '^per-query traces' $(QSMOKE_DIR)/stderr.log && break; sleep 0.1; \
	done; \
	if ! grep -q '^per-query traces' $(QSMOKE_DIR)/stderr.log; then \
		echo "sweep never finished"; kill $$pid 2>/dev/null; exit 1; fi; \
	addr=$$(sed -n 's#^inspector listening on http://##p' $(QSMOKE_DIR)/stderr.log); \
	curl -sf "http://$$addr/progress" > $(QSMOKE_DIR)/progress.json || { kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf "http://$$addr/debug/vars" > $(QSMOKE_DIR)/expvar.json || { kill $$pid 2>/dev/null; exit 1; }; \
	kill $$pid; wait $$pid 2>/dev/null || true
	QTRACE_SMOKE_DIR=$$PWD/$(QSMOKE_DIR) $(GO) test -run TestQTraceSmokeArtifacts -v ./cmd/reachsim/

# Cluster scatter-gather smoke: the pinned 4-node -cluster run with the
# live inspector on an ephemeral port. The recipe waits for the run to
# drain, scrapes /progress and /debug/vars, diffs the summary table
# against the committed golden, then validates every artifact via the
# env-gated test in cmd/reachsim.
cluster-smoke:
	rm -rf $(CSMOKE_DIR) && mkdir -p $(CSMOKE_DIR)
	$(GO) build -o $(CSMOKE_DIR)/reachsim ./cmd/reachsim
	@set -e; \
	$(CSMOKE_DIR)/reachsim -cluster -http 127.0.0.1:0 -http-linger 120s \
		> $(CSMOKE_DIR)/report.txt 2> $(CSMOKE_DIR)/stderr.log & \
	pid=$$!; \
	for i in $$(seq 1 600); do \
		grep -q '^cluster run complete' $(CSMOKE_DIR)/stderr.log && break; sleep 0.1; \
	done; \
	if ! grep -q '^cluster run complete' $(CSMOKE_DIR)/stderr.log; then \
		echo "cluster run never finished"; kill $$pid 2>/dev/null; exit 1; fi; \
	addr=$$(sed -n 's#^inspector listening on http://##p' $(CSMOKE_DIR)/stderr.log); \
	curl -sf "http://$$addr/progress" > $(CSMOKE_DIR)/progress.json || { kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf "http://$$addr/debug/vars" > $(CSMOKE_DIR)/expvar.json || { kill $$pid 2>/dev/null; exit 1; }; \
	kill $$pid; wait $$pid 2>/dev/null || true
	diff cmd/reachsim/testdata/cluster_smoke.golden $(CSMOKE_DIR)/report.txt
	CLUSTER_SMOKE_DIR=$$PWD/$(CSMOKE_DIR) $(GO) test -run TestClusterSmokeArtifacts -v ./cmd/reachsim/

# Parallel-determinism smoke: domain parallelism must never change the
# model. One binary, the same pinned cluster run at 1, 4 and 8 worker
# goroutines; any byte of divergence fails the diff.
cluster-par-smoke:
	rm -rf $(PSMOKE_DIR) && mkdir -p $(PSMOKE_DIR)
	$(GO) build -o $(PSMOKE_DIR)/reachsim ./cmd/reachsim
	$(PSMOKE_DIR)/reachsim -cluster -pj 1 > $(PSMOKE_DIR)/pj1.txt
	$(PSMOKE_DIR)/reachsim -cluster -pj 4 > $(PSMOKE_DIR)/pj4.txt
	$(PSMOKE_DIR)/reachsim -cluster -pj 8 > $(PSMOKE_DIR)/pj8.txt
	diff $(PSMOKE_DIR)/pj1.txt $(PSMOKE_DIR)/pj4.txt
	diff $(PSMOKE_DIR)/pj1.txt $(PSMOKE_DIR)/pj8.txt

# Front-end cache smoke: cache-on determinism (the -cache 32 run is
# byte-identical at any -pj, cache accounting rows included) and the
# cache sweep's cache-off baseline row.
cache-smoke:
	rm -rf $(CACHESMOKE_DIR) && mkdir -p $(CACHESMOKE_DIR)
	$(GO) build -o $(CACHESMOKE_DIR)/reachsim ./cmd/reachsim
	$(CACHESMOKE_DIR)/reachsim -cluster -cache 32 -pj 1 > $(CACHESMOKE_DIR)/cache-pj1.txt
	$(CACHESMOKE_DIR)/reachsim -cluster -cache 32 -pj 4 > $(CACHESMOKE_DIR)/cache-pj4.txt
	$(CACHESMOKE_DIR)/reachsim -cluster -cache 32 -pj 8 > $(CACHESMOKE_DIR)/cache-pj8.txt
	diff $(CACHESMOKE_DIR)/cache-pj1.txt $(CACHESMOKE_DIR)/cache-pj4.txt
	diff $(CACHESMOKE_DIR)/cache-pj1.txt $(CACHESMOKE_DIR)/cache-pj8.txt
	grep -q 'cache hit rate %' $(CACHESMOKE_DIR)/cache-pj1.txt
	$(CACHESMOKE_DIR)/reachsim -exp cachesweep > $(CACHESMOKE_DIR)/cachesweep.txt
	grep -q 'cache-off p99' $(CACHESMOKE_DIR)/cachesweep.txt

# Cluster observability smoke: the pinned -cluster run with every sink on.
# Domain parallelism must not move a byte of any artifact — the report
# (summary + straggler attribution + SLO windows), the sampled time
# series, or the Chrome trace. The trace must parse as JSON and the
# report must carry the straggler and SLO headlines.
cluster-obs-smoke:
	rm -rf $(OBSSMOKE_DIR) && mkdir -p $(OBSSMOKE_DIR)
	$(GO) build -o $(OBSSMOKE_DIR)/reachsim ./cmd/reachsim
	$(OBSSMOKE_DIR)/reachsim -cluster -pj 1 -metrics $(OBSSMOKE_DIR)/metrics-pj1.csv \
		-spans -trace $(OBSSMOKE_DIR)/trace-pj1.json -slo 250 > $(OBSSMOKE_DIR)/report-pj1.txt
	$(OBSSMOKE_DIR)/reachsim -cluster -pj 8 -metrics $(OBSSMOKE_DIR)/metrics-pj8.csv \
		-spans -trace $(OBSSMOKE_DIR)/trace-pj8.json -slo 250 > $(OBSSMOKE_DIR)/report-pj8.txt
	diff $(OBSSMOKE_DIR)/report-pj1.txt $(OBSSMOKE_DIR)/report-pj8.txt
	diff $(OBSSMOKE_DIR)/metrics-pj1.csv $(OBSSMOKE_DIR)/metrics-pj8.csv
	diff $(OBSSMOKE_DIR)/trace-pj1.json $(OBSSMOKE_DIR)/trace-pj8.json
	grep -q 'Straggler attribution' $(OBSSMOKE_DIR)/report-pj1.txt
	grep -q 'SLO windows' $(OBSSMOKE_DIR)/report-pj1.txt
	CLUSTER_OBS_SMOKE_DIR=$$PWD/$(OBSSMOKE_DIR) $(GO) test \
		-run 'TestClusterObsSmokeArtifacts|TestClusterObsArtifactsParallelInvariant|TestValidateFlagMatrix' -v ./cmd/reachsim/

# Flight-recorder smoke: the flash-crowd scenario must trigger the SLO
# burn-rate detector exactly once and cut one self-contained bundle whose
# five files are byte-identical at -pj 1 and -pj 8; the verdict must be
# queue-dominated. The in-process acceptance tests then re-validate the
# bundle schema at -pj 1/4/8.
flight-smoke:
	rm -rf $(FLIGHTSMOKE_DIR) && mkdir -p $(FLIGHTSMOKE_DIR)
	$(GO) build -o $(FLIGHTSMOKE_DIR)/reachsim ./cmd/reachsim
	$(FLIGHTSMOKE_DIR)/reachsim -cluster -pj 1 -slo 400 -arrival flash \
		-flight $(FLIGHTSMOKE_DIR)/pj1 -detect > $(FLIGHTSMOKE_DIR)/report-pj1.txt
	$(FLIGHTSMOKE_DIR)/reachsim -cluster -pj 8 -slo 400 -arrival flash \
		-flight $(FLIGHTSMOKE_DIR)/pj8 -detect > $(FLIGHTSMOKE_DIR)/report-pj8.txt
	diff $(FLIGHTSMOKE_DIR)/report-pj1.txt $(FLIGHTSMOKE_DIR)/report-pj8.txt
	test "$$(ls $(FLIGHTSMOKE_DIR)/pj1 | wc -l)" -eq 1
	diff -r $(FLIGHTSMOKE_DIR)/pj1 $(FLIGHTSMOKE_DIR)/pj8
	grep -q '"detector": "slo-burn"' $(FLIGHTSMOKE_DIR)/pj1/bundle-*/verdict.json
	grep -q '"dominant_cause": "queue"' $(FLIGHTSMOKE_DIR)/pj1/bundle-*/verdict.json
	grep -q 'overall dominant cause queue' $(FLIGHTSMOKE_DIR)/pj1/bundle-*/stragglers.txt
	$(GO) test -run TestClusterFlight -v ./cmd/reachsim/
