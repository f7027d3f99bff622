GO ?= go

.PHONY: all build test fuzz-smoke fuzz-smoke-hardened fault-smoke obs-smoke ci bench-smoke bench-layers bench-determinism serve-smoke overload-smoke resume-smoke trace-smoke bench-table2 bench-table4 clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

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

# The full local CI gate: static checks (gofmt-clean tree, vet of the root
# module and of perfbench, its own module that ./... skips), build, the
# race-enabled unit suites, twenty race-enabled repeats of the fault-retry
# test (its target must run on recycled state, which the engine's free lists
# guarantee and a sync.Pool under the race detector did not), the fuzz
# smokes (clean + hardened + fault-injected), and the observability smoke.
ci:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -race -count 20 -run TestFaultRetryReproduces ./internal/engine
	$(MAKE) fuzz-smoke
	$(MAKE) fuzz-smoke-hardened
	$(MAKE) fault-smoke
	$(MAKE) obs-smoke

# Benchmark records, exact and machine-independent: every smoke below writes
# its fresh record to artifacts/ and gates it with cmd/benchgate against a
# committed BENCH_*.json, which holds only the fields that are a pure function
# of the inputs (detection rates, case and cache counts, digests, resilience
# counters, peak RSS) and must match exactly. No target writes a tracked file;
# regenerate a baseline deliberately with
# `go run ./cmd/benchgate -fresh artifacts/<record>.json -write BENCH_<name>.json`.
# Wall time is measured by perfbench (bash perfbench/run.sh), not here.
GATE := $(GO) run ./cmd/benchgate

# Quick end-to-end benchmark pass: ~5% of the Table II suite and the
# temporal-hardening record, each gated exactly against its committed
# baseline (BENCH_table2.json, BENCH_temporal.json).
bench-smoke:
	$(GO) run ./cmd/julietbench -table 2 -scale 0.05 -progress 0 -json artifacts/table2.json \
		-metrics-json artifacts/metrics-smoke.json
	$(GATE) -baseline BENCH_table2.json -fresh artifacts/table2.json
	$(GO) run ./cmd/temporalbench -json artifacts/temporal.json
	$(GATE) -baseline BENCH_temporal.json -fresh artifacts/temporal.json

# Per-layer microbenchmarks of the memory path and of set-up, six samples
# each, printed for benchstat-style comparison; writes no file. Load8/Store8:
# one 8-byte access as the interpreter makes it; Fill: a 4 KiB poisoning
# fill; HeapAllocFree: small-chunk malloc/free churn; SpecLoop: ns per
# decoded instruction; PooledCase: one Juliet case's NewMachine, Run and
# Release; Generate: building Juliet programs; Fingerprint: a first
# Program.Fingerprint; Apply: instrumenting one Juliet program per Table II
# tool; PreinstrumentTableII: the six Table II engines' cache fill on the
# full suite, with its allocation and the live heap it leaves (MiB).
bench-layers:
	$(GO) test -run '^$$' -bench 'Load8|Store8|Fill|HeapAllocFree|SpecLoop|PooledCase|Generate|Fingerprint|Apply|PreinstrumentTableII' \
		-benchmem -count 6 ./internal/mem ./internal/alloc ./internal/interp ./internal/engine \
		./internal/juliet ./prog ./internal/instrument

# Benchmark determinism: perfbench is its own module, so `go test ./...` at
# the root never reaches it. Its test pins the Juliet verdict vector against
# Table II, and requires two runs of each workload with the same seed to give
# identical exact counts, verdicts and serve stream digest (~1 min).
bench-determinism:
	cd perfbench && $(GO) test ./...

# Traffic-campaign smoke: a bounded closed-loop run of the shipped
# interactive/batch spec through cmd/serve, with the flight recorder armed at
# default sampling. The record gates against BENCH_serve.json: the stream
# digest and every request/outcome counter must match exactly, every class
# must complete requests, no interesting trace may be evicted, and no SLO
# may be exhausted or have its p99 objective violated.
serve-smoke:
	$(GO) run ./cmd/serve -spec examples/workloads/interactive-batch.yaml \
		-max-requests 2000 -json artifacts/serve.json \
		-flight artifacts/serve-flight.jsonl \
		-metrics-json artifacts/metrics-serve-smoke.json
	$(GATE) -baseline BENCH_serve.json -fresh artifacts/serve.json
	test -s artifacts/metrics-serve-smoke.json
	test -s artifacts/serve-flight.jsonl

# Overload-resilience smoke, two gates in one target:
#
#  1. Chaos determinism: the same seeded chaos campaign (3 storm/calm
#     phases = 1152 requests) at two worker counts must each match the
#     committed BENCH_chaos.json exactly — chaos digest, breaker trips,
#     ladder step-downs and recoveries included.
#  2. Zero-flap clean run: with resilience armed but no chaos, a healthy
#     closed-loop campaign must match the unarmed BENCH_serve.json exactly,
#     zero breaker trips included — the overload layer must be invisible
#     when nothing is wrong.
CHAOS := -spec examples/workloads/interactive-batch.yaml \
	-seed 42 -chaos-seed 11 -max-requests 1152
overload-smoke:
	$(GO) run ./cmd/serve $(CHAOS) -workers 2 -json artifacts/chaos-w2.json
	$(GATE) -baseline BENCH_chaos.json -fresh artifacts/chaos-w2.json
	$(GO) run ./cmd/serve $(CHAOS) -workers 7 -json artifacts/chaos-w7.json
	$(GATE) -baseline BENCH_chaos.json -fresh artifacts/chaos-w7.json
	$(GO) run ./cmd/serve -spec examples/workloads/interactive-batch.yaml \
		-max-requests 2000 -resilience -json artifacts/serve-resilience.json
	$(GATE) -baseline BENCH_serve.json -fresh artifacts/serve-resilience.json

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

# Full-scale table regenerations (records land in artifacts/; the committed
# BENCH_table2.json is the scale-0.05 bench-smoke projection).
bench-table2:
	$(GO) run ./cmd/julietbench -table 2 -json artifacts/table2-full.json

bench-table4:
	$(GO) run ./cmd/specbench -suite 2006 -json artifacts/table4.json

clean:
	rm -rf .resume-smoke .trace-smoke artifacts
