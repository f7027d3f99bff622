GO ?= go

.PHONY: all build test race fuzz-smoke fuzz-smoke-hardened fault-smoke obs-smoke ci bench-smoke bench-gate bench-determinism serve-smoke overload-smoke resume-smoke trace-smoke bench-table2 bench-table4 clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/interp/... ./internal/engine/... ./internal/core/...

# Differential fuzzing smoke: a fixed-seed 200-case campaign across all
# eight sanitizer models. Exits non-zero on any oracle disagreement, so it
# doubles as the cross-sanitizer regression gate.
fuzz-smoke:
	$(GO) run ./cmd/fuzz -seed 7 -count 200

# Hardened-profile smoke: the same fixed-seed campaign with every
# CECSan-family tool swapped for its temporally hardened variant. The
# oracle flips the reuse-window shapes (uaf_quarantine_flush,
# uaf_realloc_reuse) from documented misses to mandatory detections, so
# this gate proves the mitigations close the window without introducing
# false positives.
fuzz-smoke-hardened:
	$(GO) run ./cmd/fuzz -seed 7 -count 200 -hardened

# Fault-injection smoke: the same fixed-seed campaign under deterministic
# resource-pressure injection (nth-malloc OOM, metadata-table clamps,
# page-map failures). Exit 1 = oracle disagreement, exit 2 = the harness
# itself faulted; both fail the gate.
fault-smoke:
	$(GO) run ./cmd/fuzz -seed 7 -count 200 -faults 3

# Observability smoke: a 50-case campaign with every obs flag on — metrics
# snapshot, trace export, check-site profiling, live endpoint on an
# ephemeral port. Exit 0 plus non-empty exports proves the layer stays off
# the report path while every facility records.
obs-smoke:
	$(GO) run ./cmd/fuzz -seed 7 -count 50 -metrics-json artifacts/metrics-smoke.json \
		-trace artifacts/trace-smoke.json -profile-checks -http 127.0.0.1:0
	test -s artifacts/metrics-smoke.json
	test -s artifacts/trace-smoke.json
	grep -q '"name":"run"' artifacts/trace-smoke.json

# The full local CI gate: static checks (gofmt-clean tree, vet), build, the
# race-enabled unit suites, the fuzz smokes (clean + hardened +
# fault-injected), and the observability smoke.
ci:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(MAKE) fuzz-smoke-hardened
	$(MAKE) fault-smoke
	$(MAKE) obs-smoke

# Quick end-to-end benchmark pass: ~5% of the Table II suite, with the
# machine-readable record. Finishes in a few seconds; use it to sanity-check
# detection rates and the engine's cache/pooling behaviour after a change.
bench-smoke:
	$(GO) run ./cmd/julietbench -table 2 -scale 0.05 -progress 0 -json BENCH_table2.json \
		-metrics-json artifacts/metrics-smoke.json
	$(GO) run ./cmd/temporalbench -json BENCH_temporal.json

# Performance-trend gate: regenerate the bench-smoke record into a scratch
# file and compare it against the committed BENCH_table2.json baseline.
# Throughput gates with a generous machine-variance tolerance; the
# instrumentation-cache hit rate is machine-independent and must not
# regress. Run before bench-smoke — bench-smoke overwrites the baseline.
bench-gate:
	$(GO) run ./cmd/julietbench -table 2 -scale 0.05 -progress 0 -json BENCH_fresh.json
	$(GO) run ./cmd/benchgate -baseline BENCH_table2.json -fresh BENCH_fresh.json
	$(GO) run ./cmd/serve -spec examples/workloads/interactive-batch.yaml \
		-max-requests 2000 -min-completed 1 -json BENCH_serve_fresh.json
	$(GO) run ./cmd/benchgate -serve-baseline BENCH_serve.json -serve-fresh BENCH_serve_fresh.json
	rm -f BENCH_fresh.json BENCH_serve_fresh.json

# Benchmark determinism: perfbench is its own module, so `go test ./...` at
# the root never reaches it. Its test pins the Juliet verdict vector against
# Table II, and requires two runs of each workload with the same seed to give
# identical exact counts, verdicts and serve stream digest (~1 min).
bench-determinism:
	cd perfbench && $(GO) test ./...

# Traffic-campaign smoke: a bounded closed-loop run of the shipped
# interactive/batch spec through cmd/serve, with the flight recorder armed
# at default sampling and the SLO gate live (-slo-exit: any exhausted error
# budget or violated p99 objective fails the target). -min-completed 1
# asserts every class made progress; the JSON record is the committed serve
# baseline and the CI artifact. Runs after bench-gate — it overwrites the
# baseline.
serve-smoke:
	$(GO) run ./cmd/serve -spec examples/workloads/interactive-batch.yaml \
		-max-requests 2000 -min-completed 1 -slo-exit -json BENCH_serve.json \
		-flight artifacts/serve-flight.jsonl \
		-metrics-json artifacts/metrics-serve-smoke.json
	test -s BENCH_serve.json
	test -s artifacts/metrics-serve-smoke.json
	test -s artifacts/serve-flight.jsonl

# Overload-resilience smoke, three gates in one target:
#
#  1. Chaos determinism: the same seeded chaos campaign (3 storm/calm
#     phases = 1152 requests) at two worker counts must produce
#     byte-identical chaos digests, and both runs must actually exercise
#     the machinery — breaker trips, ladder step-downs AND recoveries.
#  2. Zero-flap clean run: with resilience armed but no chaos, a healthy
#     closed-loop campaign must not trip a single breaker — the overload
#     layer must be invisible when nothing is wrong.
#  3. Overload trend gate: a fresh calibrate-and-sweep record against the
#     committed BENCH_overload.json baseline — capacity and per-point
#     goodput floors, plus no ladder degradation at a multiple where the
#     baseline held full hardening. The fresh record then replaces the
#     local baseline file, becoming the CI artifact (like serve-smoke).
overload-smoke:
	$(GO) run ./cmd/serve -spec examples/workloads/interactive-batch.yaml \
		-seed 42 -chaos-seed 11 -max-requests 1152 -workers 2 \
		-min-breaker-trips 1 -min-degradations 1 -min-recoveries 1 \
		-json chaos-a.json
	$(GO) run ./cmd/serve -spec examples/workloads/interactive-batch.yaml \
		-seed 42 -chaos-seed 11 -max-requests 1152 -workers 7 \
		-min-breaker-trips 1 -min-degradations 1 -min-recoveries 1 \
		-json chaos-b.json
	grep '"chaos_digest"' chaos-a.json > chaos-a.digest
	grep '"chaos_digest"' chaos-b.json > chaos-b.digest
	cmp chaos-a.digest chaos-b.digest
	$(GO) run ./cmd/serve -spec examples/workloads/interactive-batch.yaml \
		-max-requests 2000 -resilience -min-completed 1 -max-breaker-trips 0
	$(GO) run ./cmd/serve -spec examples/workloads/interactive-batch.yaml \
		-overload -json BENCH_overload_fresh.json
	$(GO) run ./cmd/benchgate -overload-baseline BENCH_overload.json \
		-overload-fresh BENCH_overload_fresh.json
	mv BENCH_overload_fresh.json BENCH_overload.json
	rm -f chaos-a.json chaos-b.json chaos-a.digest chaos-b.digest

# Crash-recovery smoke, the kill -9 acceptance gate, four legs in one
# scratch dir:
#
#  1. Serve reference: an uninterrupted chaos campaign (same shape as
#     overload-smoke's determinism leg) records the expected digests.
#  2. Serve kill+resume: the same campaign with checkpointing armed
#     SIGKILLs itself mid-flight (the `if` inverts the expected death);
#     resuming from the surviving snapshot must land on byte-identical
#     stream and chaos digests.
#  3. Serve supervision: `-supervise` restarts the same crashy worker
#     from its checkpoints until completion — digests must again match,
#     with zero human involvement.
#  4. Fuzz kill+resume: same story over the case index — the resumed
#     campaign's full JSON report (case digest included) must be
#     byte-identical to the uninterrupted one's.
RSM := .resume-smoke
RSM_SERVE := -spec examples/workloads/interactive-batch.yaml \
	-seed 42 -chaos-seed 11 -max-requests 1152 -workers 2
RSM_FUZZ := -seed 7 -count 600 -faults 3
resume-smoke:
	rm -rf $(RSM) && mkdir -p $(RSM)
	$(GO) build -o $(RSM)/serve ./cmd/serve
	$(GO) build -o $(RSM)/fuzz ./cmd/fuzz
	$(RSM)/serve $(RSM_SERVE) -json $(RSM)/serve-ref.json
	if $(RSM)/serve $(RSM_SERVE) -checkpoint $(RSM)/serve.ckpt \
		-checkpoint-every 256 -crash-after 500 >/dev/null 2>&1; \
		then echo "resume-smoke: serve crash run unexpectedly survived"; exit 1; fi
	test -s $(RSM)/serve.ckpt
	$(RSM)/serve $(RSM_SERVE) -resume $(RSM)/serve.ckpt -json $(RSM)/serve-res.json
	grep '"stream_digest"' $(RSM)/serve-ref.json > $(RSM)/ref.digest
	grep '"chaos_digest"' $(RSM)/serve-ref.json >> $(RSM)/ref.digest
	grep '"stream_digest"' $(RSM)/serve-res.json > $(RSM)/res.digest
	grep '"chaos_digest"' $(RSM)/serve-res.json >> $(RSM)/res.digest
	cmp $(RSM)/ref.digest $(RSM)/res.digest
	rm -f $(RSM)/serve.ckpt
	$(RSM)/serve $(RSM_SERVE) -checkpoint $(RSM)/serve.ckpt -checkpoint-every 256 \
		-crash-after 500 -supervise -json $(RSM)/serve-sup.json
	grep '"stream_digest"' $(RSM)/serve-sup.json > $(RSM)/sup.digest
	grep '"chaos_digest"' $(RSM)/serve-sup.json >> $(RSM)/sup.digest
	cmp $(RSM)/ref.digest $(RSM)/sup.digest
	grep -q '"restarts":' $(RSM)/serve-sup.json
	$(RSM)/fuzz $(RSM_FUZZ) -json $(RSM)/fuzz-ref.json
	if $(RSM)/fuzz $(RSM_FUZZ) -checkpoint $(RSM)/fuzz.ckpt \
		-checkpoint-every 200 -crash-after 300 >/dev/null 2>&1; \
		then echo "resume-smoke: fuzz crash run unexpectedly survived"; exit 1; fi
	test -s $(RSM)/fuzz.ckpt
	$(RSM)/fuzz $(RSM_FUZZ) -resume $(RSM)/fuzz.ckpt -json $(RSM)/fuzz-res.json
	cmp $(RSM)/fuzz-ref.json $(RSM)/fuzz-res.json
	rm -rf $(RSM)

# Request-tracing smoke, three gates in one scratch dir:
#
#  1. Trace-ID determinism: the same seeded chaos campaign at two worker
#     counts must retain byte-identical trace-ID sets — IDs derive from
#     (seed, stream index) and chaos retention runs in deterministic-only
#     mode, so the flight record is scheduling-independent.
#  2. Fault retention: the chaos record must actually contain faulted
#     traces (cmd/serve additionally self-checks 100% faulted retention
#     against the campaign's fault counter and exits 2 on loss).
#  3. Crash post-mortem: a supervised crashy campaign must leave a
#     readable <flight>.crash dump reconstructed from the last checkpoint
#     by the supervisor — the worker died without writing its own.
TSM := .trace-smoke
# -retry-max -1 makes chaos faults terminal (instead of retried away), so
# the record provably retains faulted traces.
TSM_SERVE := -spec examples/workloads/interactive-batch.yaml \
	-seed 42 -chaos-seed 11 -max-requests 1152 -retry-max -1
trace-smoke:
	rm -rf $(TSM) && mkdir -p $(TSM)
	$(GO) build -o $(TSM)/serve ./cmd/serve
	$(TSM)/serve $(TSM_SERVE) -workers 2 -flight $(TSM)/a.jsonl \
		-trace $(TSM)/a-chrome.json
	$(TSM)/serve $(TSM_SERVE) -workers 7 -flight $(TSM)/b.jsonl
	grep -o '"trace_id":"[0-9a-f]*"' $(TSM)/a.jsonl | sort > $(TSM)/a.ids
	grep -o '"trace_id":"[0-9a-f]*"' $(TSM)/b.jsonl | sort > $(TSM)/b.ids
	test -s $(TSM)/a.ids
	cmp $(TSM)/a.ids $(TSM)/b.ids
	grep -q '"outcome":"fault"' $(TSM)/a.jsonl
	test -s $(TSM)/a-chrome.json
	$(TSM)/serve $(TSM_SERVE) -workers 2 -checkpoint $(TSM)/sup.ckpt \
		-checkpoint-every 256 -crash-after 500 -supervise \
		-flight $(TSM)/sup.jsonl
	test -s $(TSM)/sup.jsonl.crash
	test -s $(TSM)/sup.jsonl
	rm -rf $(TSM)

# Full-scale table regenerations.
bench-table2:
	$(GO) run ./cmd/julietbench -table 2 -json BENCH_table2.json

bench-table4:
	$(GO) run ./cmd/specbench -suite 2006 -json BENCH_table4.json

clean:
	rm -f BENCH_fresh.json BENCH_serve_fresh.json BENCH_overload_fresh.json \
		chaos-a.json chaos-b.json chaos-a.digest chaos-b.digest
	rm -rf .resume-smoke .trace-smoke artifacts
