# Reproduction of "Can we elect if we cannot compare?" (SPAA 2003).
# Stdlib only; everything runs offline.

GO ?= go

.PHONY: all build test race determinism bench bench-iso bench-iso-large campaign experiments examples vet fmt cover cover-gate fuzz adversary faults serve bench-serve

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The tests that must pass every time, fifty times each under the race
# detector. CI's determinism step runs this target.
determinism:
	$(GO) test -race -count=50 -run '^(TestCampaignDeterminism|TestSummaryIsFunctionOfResults)$$' ./internal/campaign
	$(GO) test -race -count=50 -run '^TestSourceMatchesMathRand$$' ./internal/lazyrand
	$(GO) test -race -count=50 -run '^TestRunGolden$$' ./cmd/elect
	$(GO) test -race -count=50 -run '^TestRecordReplayBitExact$$' ./internal/faults
	$(GO) test -race -count=50 -run '^TestRecordReplayRoundTrip$$' ./cmd/elect
	$(GO) test -race -count=50 -run '^(TestViolatingRunReplays|TestRetriedRunReplays)$$' ./internal/campaign
	$(GO) test -race -count=50 -run '^TestAnalyzeCtxDeadline$$' ./internal/elect
	$(GO) test -race -count=50 -run '^TestConcurrentStateReuse$$' ./internal/iso
	$(GO) test -race -count=50 -run '^(TestChangRobertsAcrossBackends|TestDeadlockDetection|TestParkedAgentWakesOnBoardChange)$$' ./internal/runtime

bench:
	$(GO) test -bench=. -benchmem ./...

# Canonical-engine perf trajectory: regenerate BENCH_iso.json (DESIGN.md §8,
# EXPERIMENTS.md). Fails if the optimized engine falls below the documented
# speedup gate over the frozen reference on Analyze(C32). -quick skips the
# large-family kernels; bench-iso-large measures everything including the
# 10³–10⁵-node sparse-engine workloads.
bench-iso:
	$(GO) run ./cmd/benchiso -quick -o BENCH_iso.json

bench-iso-large:
	$(GO) run ./cmd/benchiso -o BENCH_iso.json

cover:
	$(GO) test -cover ./...

# The coverage gate, run by CI's coverage job: the protocol core, the
# class ordering (a wrong class order is a wrong election), the canonical
# engine (every solvability decision runs through it), the simulation
# engine, the fault plane, the sketch layer, the runtime contract, the
# protocol zoo, the seeded RNG, the two oracles' packages (the Cayley
# test in group, the Theorem 2.1 check in labeling), and the analysis cache
# and the daemon (which decide which search an analysis reuses) must each
# keep statement coverage at or above 70%.
cover-gate:
	@fail=0; \
	for pkg in ./internal/elect ./internal/order ./internal/iso ./internal/sim ./internal/faults ./internal/telemetry/sketch ./internal/runtime ./internal/zoo ./internal/lazyrand ./internal/group ./internal/labeling ./internal/analysiscache ./internal/serve; do \
		$(GO) test -coverprofile=cover.out $$pkg >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		echo "$$pkg coverage: $$pct%"; \
		if awk -v p=$$pct 'BEGIN{exit !(p < 70)}'; then \
			echo "$$pkg coverage $$pct% is below the 70% gate"; fail=1; \
		fi; \
	done; \
	rm -f cover.out; exit $$fail

# The acceptance campaign: cycles + hypercubes across 25 seeds, all cores.
campaign:
	$(GO) run ./cmd/campaign \
		-families "cycle:6,9,12,15,18,24;hypercube:3,4" \
		-placement spread -r 3 -seeds 1..25 \
		-jsonl campaign_runs.jsonl -summary BENCH_campaign.json

# Native fuzzing smoke: 30s per target. CI's fuzz step runs this target.
fuzz:
	$(GO) test -fuzz FuzzElectSchedule -fuzztime 30s -run '^$$' ./internal/adversary
	$(GO) test -fuzz FuzzCanonical -fuzztime 30s -run '^$$' ./internal/iso
	$(GO) test -fuzz FuzzSparseEquitable -fuzztime 30s -run '^$$' ./internal/iso
	$(GO) test -fuzz FuzzFromTwins -fuzztime 30s -run '^$$' ./internal/graph
	$(GO) test -fuzz FuzzZooSchedule -fuzztime 30s -run '^$$' ./internal/zoo
	$(GO) test -fuzz FuzzSourceMatchesMathRand -fuzztime 30s -run '^$$' ./internal/lazyrand
	$(GO) test -fuzz FuzzFrameCodec -fuzztime 30s -run '^$$' ./internal/runtime
	$(GO) test -fuzz FuzzRegularSubgroup -fuzztime 30s -run '^$$' ./internal/group
	$(GO) test -fuzz FuzzLabelPreserving -fuzztime 30s -run '^$$' ./internal/labeling

# Adversarial schedule sweep of a representative instance: every strategy
# across seeds, protocol invariants checked per run (see DESIGN.md §10).
# Exits nonzero on any violation; a violating record in the JSONL carries
# its replay bundle for cmd/elect -replay.
adversary:
	$(GO) run ./cmd/campaign -families "cycle:12" -placement 0,4,8 \
		-strategies all -seeds 1..8 -jsonl adversary_runs.jsonl

# Fault-plane sweep: crash-stops, torn writes and read staleness crossed
# with the scheduling adversary, fault-aware invariants checked per run
# (see DESIGN.md §11). Exits nonzero on any violation.
faults:
	$(GO) run ./cmd/campaign -families "star:4" -placement 1,2 \
		-faults all -wake-all -seeds 1..8 -jsonl faults_runs.jsonl

# The election daemon (internal/serve, DESIGN.md §12): analyses, single
# runs and streamed campaigns over HTTP/JSON on :8080.
serve:
	$(GO) run ./cmd/electd -listen :8080

# Daemon throughput/latency benchmark: start a local electd, drive the
# seeded open-loop mix against it, write BENCH_serve.json, tear it down.
bench-serve:
	$(GO) build -o /tmp/electd-bench ./cmd/electd
	$(GO) build -o /tmp/electload-bench ./cmd/electload
	@/tmp/electd-bench -listen 127.0.0.1:18080 & \
	EPID=$$!; \
	/tmp/electload-bench -addr 127.0.0.1:18080 -duration 10s -rate 200 -out BENCH_serve.json; \
	rc=$$?; kill -TERM $$EPID; wait $$EPID; exit $$rc

# Regenerate every table and figure of the paper (E1-E12).
experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/petersen
	$(GO) run ./examples/hypercube
	$(GO) run ./examples/babel
	$(GO) run ./examples/preferences
	$(GO) run ./examples/rendezvous
