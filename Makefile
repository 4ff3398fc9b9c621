GO ?= go
# The gate targets pipe through tee to keep compare reports as CI artifacts;
# pipefail makes the pipeline exit with the gate's status, not tee's.
SHELL := bash
.SHELLFLAGS := -o pipefail -c

# Fuzzing time per target; the nightly workflow raises this to 60s.
FUZZTIME ?= 30s
# Where serve-smoke writes its benchmark record. CI points this at a temp
# path so the checked-in baseline is never overwritten by a workflow run.
SERVE_BENCH ?= BENCH_serve.json
# Perf-gate knobs: fresh records land under PERF_OUT and are compared
# against the checked-in baselines at PERF_TOLERANCE relative worsening
# (plus the noise margin vodperf derives from the samples).
PERF_OUT ?= /tmp/vodperf
PERF_TOLERANCE ?= 0.10
# Scale-gate knobs: the sweep stops at SCALE_MAX cores (the CI matrix runs
# legs at 1 and 4) and requires MIN_SPEEDUP× decisions/s at GOMAXPROCS=4
# over 1 whenever the host actually has 4 CPUs.
SCALE_MAX ?= 4
MIN_SPEEDUP ?= 2.5
# Ingress-gate knob: batched HTTP admission through the sharded ingress must
# reach at least this multiple of the baseline's open-loop
# serve_decisions_per_sec on the same core count (DESIGN.md §16).
MIN_HTTP_MULT ?= 10
# Static-analysis tool pins; the targets run them via `go run pkg@version`,
# so the module cache (restored by CI) is the only install step.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race cover bench bench-smoke serve-smoke chaos-smoke regret-smoke rebalance-smoke perf perf-gate scale-gate ingress-gate staticcheck govulncheck figures figures-smoke examples fuzz clean ci fmt-check

all: build test

# Everything the CI workflow runs: formatting, build+vet, tests, race,
# the one-iteration benchmark smoke pass, the live-serving smoke, the
# fault-injection chaos smoke, the counterfactual-harness smoke, and the
# demand-drift rebalancing smoke.
ci: fmt-check build test race bench-smoke serve-smoke chaos-smoke regret-smoke rebalance-smoke

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./internal/... .
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of the Fig. 4 benchmarks: catches bit-rot in the bench code
# and the exp sweep harness without paying for a full benchmark run.
bench-smoke:
	$(GO) test -run='^$$' -bench=Fig4 -benchtime=1x .

# Boot the live daemon in-process, fire a 1-second 8000 req/s burst through
# the open-loop load generator while the scripted fault schedule crashes and
# recovers a backend mid-trace, scrape /metrics for non-zero admissions,
# cross-validate the rejection rate (overall and post-failure) against
# sim.Run with the same scripted failures, and record throughput plus
# admission-latency percentiles in $(SERVE_BENCH). GOMAXPROCS is pinned to 1
# so the recorded flat metrics carry the same core count as the checked-in
# baseline — vodperf -compare refuses cross-core-count comparisons.
serve-smoke:
	GOMAXPROCS=1 $(GO) run ./cmd/vodload -selftest -rate 8000 -burst 1 -validate -faults testdata/faults_smoke.json -bench-out $(SERVE_BENCH)

# The failure-drill integration test under the race detector: a scripted
# mid-trace crash with health checking, admission retry, and automatic
# re-replication, asserting single settlement, zero leaked bandwidth, and
# live-vs-sim post-failure parity. Then ten race-detector passes over the
# dispatch engine's shard tests and the ingress chaos test: their races
# (a close landing mid-failover, evictions racing admissions) show only in
# some interleavings, so one pass misses them.
chaos-smoke:
	$(GO) test -race -run 'TestChaos' -v .
	$(GO) test -race -run 'TestSharded|TestIngressChaos' -count=10 ./internal/serve/

# The counterfactual-harness self-check: a tiny two-policy lockstep over one
# shared trace. -smoke asserts the reference compared against itself yields
# exactly zero divergences and zero regret, and that the genuinely different
# candidate diverges at least once — the invariants vodab's scoring leans on.
regret-smoke:
	$(GO) run ./cmd/vodab -policies static-rr,least-loaded -lambda 60 -runs 2 -smoke > /dev/null

# The demand-drift drill under the race detector: the same mid-trace
# popularity rotation replayed against a static daemon and one running the
# online placement rebalancer, asserting the rebalancer migrates replicas
# toward the shifted head, lowers post-shift rejections, stays inside its
# copy-bandwidth budget, and leaks nothing after the drain.
rebalance-smoke:
	$(GO) test -race -run 'TestRebalance' -v .

# Re-measure the canonical benchmarks (Fig. 4 quick sweep + serve burst)
# and refresh the checked-in multi-run baseline. Pinned to one core like
# perf-gate's fresh measurements: the baseline must carry the core count the
# gate measures at, or the comparison refuses it.
perf:
	GOMAXPROCS=1 $(GO) run ./cmd/vodperf -runs 5 -out BENCH_perf.json

# The CI performance gate: measure fresh records into $(PERF_OUT) and
# compare them against the checked-in baselines. Exits nonzero when a gated
# metric is more than $(PERF_TOLERANCE) + noise margin worse. The fresh
# measurements run at GOMAXPROCS=1 to match the core count the baselines
# were recorded at (the comparison refuses a mismatch); compare reports are
# kept under $(PERF_OUT) so CI can attach them as artifacts. The serve
# comparison excludes the baseline's scale_* and http_* metrics — those
# sections belong to scale-gate and ingress-gate, and a serve-smoke record
# legitimately carries neither. The allocation guard asserts the zero-alloc
# admission contract before any throughput is measured.
perf-gate:
	mkdir -p $(PERF_OUT)
	GOMAXPROCS=1 $(GO) test -run TestAdmissionPathAllocs -count=1 ./internal/serve/
	GOMAXPROCS=1 $(GO) run ./cmd/vodload -selftest -rate 8000 -burst 1 -faults testdata/faults_smoke.json -bench-out $(PERF_OUT)/BENCH_serve.json
	GOMAXPROCS=1 $(GO) run ./cmd/vodperf -runs 3 -out $(PERF_OUT)/BENCH_perf.json
	$(GO) run ./cmd/vodperf -compare BENCH_serve.json $(PERF_OUT)/BENCH_serve.json -tolerance $(PERF_TOLERANCE) -exclude scale_,http_ | tee $(PERF_OUT)/compare_serve.txt
	$(GO) run ./cmd/vodperf -compare BENCH_perf.json $(PERF_OUT)/BENCH_perf.json -tolerance $(PERF_TOLERANCE) | tee $(PERF_OUT)/compare_perf.txt

# The multi-core scaling gate (DESIGN.md §15): sweep the sharded dispatch
# engine across GOMAXPROCS ∈ {1, 4, 16} up to $(SCALE_MAX), enforce the
# ≥$(MIN_SPEEDUP)× decisions/s contract at 4 cores whenever the host has
# them (levels above the host's CPU count are recorded hw_capped, never
# gated), and compare the sweep against the checked-in scaling section of
# BENCH_serve.json at the usual tolerance.
scale-gate:
	mkdir -p $(PERF_OUT)
	$(GO) run ./cmd/vodperf -bench scale -runs 3 -scale-max $(SCALE_MAX) -min-speedup $(MIN_SPEEDUP) -out $(PERF_OUT)/BENCH_scale.json
	$(GO) run ./cmd/vodperf -compare BENCH_serve.json $(PERF_OUT)/BENCH_scale.json -tolerance $(PERF_TOLERANCE) -metrics scale_ | tee $(PERF_OUT)/compare_scale.txt

# The HTTP ingress gate (DESIGN.md §16): the alloc guard first, then a
# closed-loop benchmark of the sharded zero-alloc admission path — batched
# and single round trips over persistent fast connections — pinned to one
# core like every other gated measurement. The run itself enforces
# ≥$(MIN_HTTP_MULT)× the checked-in baseline's open-loop
# serve_decisions_per_sec, and the record is additionally compared against
# the baseline's http_* metrics when the baseline carries them.
ingress-gate:
	mkdir -p $(PERF_OUT)
	GOMAXPROCS=1 $(GO) test -run TestAdmissionPathAllocs -count=1 ./internal/serve/
	GOMAXPROCS=1 $(GO) run ./cmd/vodperf -bench http -runs 3 -min-http-mult $(MIN_HTTP_MULT) -http-baseline BENCH_serve.json -out $(PERF_OUT)/BENCH_http.json | tee $(PERF_OUT)/ingress_report.txt
	$(GO) run ./cmd/vodperf -compare BENCH_serve.json $(PERF_OUT)/BENCH_http.json -tolerance $(PERF_TOLERANCE) -metrics http_ | tee $(PERF_OUT)/compare_http.txt

# Static analysis beyond go vet, at pinned tool versions. Both tools resolve
# through the Go module cache, so CI's setup-go cache makes repeat runs
# cheap; neither is vendored into the tree.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Regenerate every paper figure (tables + ASCII charts + CSV series).
figures:
	$(GO) run ./cmd/vodbench -fig all -runs 20 -csv results/csv | tee results/vodbench-full.txt

# Nightly smoke of the figure generators: every figure once, one
# replication per point, no artifacts written into the tree.
figures-smoke:
	$(GO) run ./cmd/vodbench -fig all -runs 1

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/placement-planner
	$(GO) run ./examples/rejection-sweep
	$(GO) run ./examples/scalable-bitrate
	$(GO) run ./examples/failure-recovery
	$(GO) run ./examples/dynamic-replication
	$(GO) run ./examples/hierarchical-sites

fuzz:
	$(GO) test -run=Fuzz -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) ./internal/config/
	$(GO) test -run=Fuzz -fuzz=FuzzTraceLoad -fuzztime=$(FUZZTIME) ./internal/workload/
	$(GO) test -run=Fuzz -fuzz=FuzzApportion -fuzztime=$(FUZZTIME) ./internal/apportion/
	$(GO) test -run=Fuzz -fuzz=FuzzWireParse -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run=Fuzz -fuzz=FuzzIngressConn -fuzztime=$(FUZZTIME) ./internal/serve/

clean:
	rm -f cover.out
