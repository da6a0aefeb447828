# Reproduction of "Can we elect if we cannot compare?" (SPAA 2003).
# Stdlib only; everything runs offline.

GO ?= go

.PHONY: all build test race bench bench-iso bench-iso-large campaign experiments examples vet fmt cover cover-gate fuzz adversary faults serve bench-serve

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

# CI's coverage gate: the protocol core, the engine, the fault plane, the
# sketch layer, the runtime contract, the protocol zoo and the seeded RNG
# must each keep statement coverage at or above 70%.
cover-gate:
	@fail=0; \
	for pkg in ./internal/elect ./internal/sim ./internal/faults ./internal/telemetry/sketch ./internal/runtime ./internal/zoo ./internal/lazyrand; do \
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

# Native fuzzing smoke: 30s per target (same invocation as CI).
fuzz:
	$(GO) test -fuzz FuzzElectSchedule -fuzztime 30s -run '^$$' ./internal/adversary
	$(GO) test -fuzz FuzzCanonical -fuzztime 30s -run '^$$' ./internal/iso
	$(GO) test -fuzz FuzzFromTwins -fuzztime 30s -run '^$$' ./internal/graph
	$(GO) test -fuzz FuzzZooSchedule -fuzztime 30s -run '^$$' ./internal/zoo
	$(GO) test -fuzz FuzzSourceMatchesMathRand -fuzztime 30s -run '^$$' ./internal/lazyrand

# Adversarial schedule sweep of a representative instance: every strategy
# across seeds, protocol invariants checked per run (see DESIGN.md §10).
adversary:
	$(GO) run ./cmd/adversary -graph cycle -n 12 -homes 0,4,8 \
		-seeds 1..8 -report adversary_report.json -save adversary_violations

# Fault-plane sweep: crash-stops, torn writes and read staleness crossed
# with the scheduling adversary, fault-aware invariants checked per run
# (see DESIGN.md §11). Exits nonzero on any violation.
faults:
	$(GO) run ./cmd/faults -graph star -n 4 -homes 1,2 \
		-seeds 1..8 -report faults_report.json -save fault_violations

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
