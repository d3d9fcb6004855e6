# godosn build & verification targets.

GO ?= go

.PHONY: all ci build vet test race bench bench-quick bench-hot bench-scrub experiments experiments-quick json-smoke telemetry-smoke lint-fmt lint-print lint-wallclock chaos-soak cache-smoke overload-soak scale-smoke scenario-smoke window-smoke sweep-smoke perfbench-build examples clean

all: build vet test

# Full verification gate: compile, vet, tests, the race detector over the
# concurrent paths (worker pool, simnet RPC, resilience decorator, breaker),
# a smoke check that dosnbench -json emits a valid report, a telemetry smoke
# check (E20 instrumented run validated against the strict v2 schema), a
# print-hygiene lint, a short-mode chaos soak proving corruption
# containment under loss + churn + Byzantine replies (E19's invariants fail
# the run if the protected arm ever surfaces a corrupted read or loses
# availability), and a cache smoke run (E21's invariants fail the run if the
# warm arm never hits, diverges byte-wise from the cold arm, or lets a
# revoked reader's warm cache open post-revocation content), and an
# overload soak (E22's invariants fail the run if the load-aware arm ever
# drops below 99% success or 3x-baseline p99 under a flash crowd, if the
# bare arm fails to degrade, or if back-to-back runs diverge), and a scale
# smoke (E23's invariants fail the run if batched transport saves < 3x
# messages/op, if the two arms' read outcomes diverge byte-wise, if memory
# grows with the streamed population, or if runs differ across repeats or
# worker counts), and a scenario smoke (every committed chaos scenario in
# scenarios/ replayed deterministically — run-twice and workers 1 vs 8
# DeepEqual, calibrated invariants held, expect digest and counters exact),
# and a window smoke (E25 guilty-window localization plus the windowed
# replay report and the socket/OTLP sink round-trips) with a wall-clock
# lint (no time.Now/time.Since in the library outside internal/bench), and a
# sweep smoke (the continuous scrub scheduler's budget, starvation,
# priority, cursor-resume, and determinism tests plus E26's batched
# anti-entropy invariants — >= 3x fewer maintenance messages per key than
# the per-key baseline with byte-identical reports at workers 1 vs 8), a
# gofmt gate, and a compile-and-vet of the benchmark harness.
ci: build vet test race json-smoke telemetry-smoke lint-fmt lint-print lint-wallclock chaos-soak cache-smoke overload-soak scale-smoke scenario-smoke window-smoke sweep-smoke perfbench-build

# The benchmark harness (perfbench/) is its own module, so go build ./...
# never compiles it: vet it against the current tree so an internal API
# change that breaks the harness fails here, not in the benchmark run.
perfbench-build:
	cd perfbench && $(GO) vet ./...

# Run the instrumented experiment (E20) with -json and re-parse the report
# with the strict validator (unknown fields rejected): the telemetry section
# — counters sorted, histograms internally consistent — must round-trip.
telemetry-smoke:
	$(GO) run ./cmd/dosnbench -quick -exp e20 -json /tmp/godosn-telemetry-ci.json >/dev/null
	$(GO) run ./cmd/dosnbench -validate /tmp/godosn-telemetry-ci.json

# Every Go file in the module must be gofmt-clean.
lint-fmt:
	test -z "$$(gofmt -l .)"

# Library code reports through the telemetry registry (or t.Log in tests),
# never stdout; only the bench harness renders tables. Fails on any
# fmt.Print* under internal/ outside internal/bench.
lint-print:
	@bad=$$(grep -rn 'fmt\.Print' internal/ --include='*.go' | grep -v '^internal/bench/' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-print: fmt.Print* in library code (use telemetry or t.Log):"; \
		echo "$$bad"; \
		exit 1; \
	fi

# Short-mode chaos soak: E19 quick arm under combined loss, churn, and
# Byzantine reply corruption. The experiment enforces its own invariants
# and exits non-zero if the integrity layer ever lets corruption through.
chaos-soak:
	$(GO) run ./cmd/dosnbench -quick -exp e19 >/dev/null

# Cache smoke: E21 quick arms (cold vs warm, fault soak, revocation probe)
# — the experiment asserts hit rate > 0, byte-identical arms, the ≥2x warm
# speedup, and revoked-reader denial — plus the sharded cache's concurrent
# hammer under the race detector.
cache-smoke:
	$(GO) run ./cmd/dosnbench -quick -exp e21 >/dev/null
	$(GO) test -race -run 'TestCacheRaceHammer|TestCacheEvictionOrderShardedWorkers1vs8' -count=1 ./internal/cache/

# Overload soak: E22 quick flash crowd (one replica at 5x capacity). The
# experiment enforces its own invariants in-run — load-aware arm >= 99%
# served with bounded p99, bare arm demonstrably collapsing, shed/queue
# evidence present in telemetry, DeepEqual determinism at workers 1 and 8
# — and exits non-zero on any violation.
overload-soak:
	$(GO) run ./cmd/dosnbench -quick -exp e22 >/dev/null

# Scale smoke: E23 quick streaming sweep (10k -> 100k users, same action
# stream through sequential and batched transport). The experiment enforces
# its own invariants in-run — >= 3x messages/op saved by batching, digest-
# identical read outcomes between arms, flat live heap across the 10x user
# growth, zero batch-key rescues on the lossless network, DeepEqual
# determinism back to back and at FanoutWorkers 1 vs 8 — and exits non-zero
# on any violation. The full (non-quick) run adds the in-harness 1M-user
# point.
scale-smoke:
	$(GO) run ./cmd/dosnbench -quick -exp e23 >/dev/null

# Scenario smoke: replay the committed chaos-scenario library. Each file is
# run twice at workers 1 and once at workers 8 (DeepEqual all three),
# checked against its calibrated invariants, and pinned to its recorded
# digest and counters; any drift fails the gate.
scenario-smoke:
	$(GO) run ./cmd/dosnbench -scenario 'scenarios/*.scenario' >/dev/null

# Window smoke: the tick-windowed telemetry stack end to end. E25 injects a
# mid-run byzantine fault into the calibrated flash-crowd scenario and fails
# unless the replay report localizes the violation to a window overlapping
# the injected ticks, byte-identically across replays and with zero extra
# runs. The replay of a committed scenario with -scenario-report must render
# its per-window breakdown, and the focused sink/window tests re-run the
# socket round-trip, backpressure-drop, and run-twice/workers-1v8 window
# determinism checks.
window-smoke:
	$(GO) run ./cmd/dosnbench -quick -exp e25 >/dev/null
	$(GO) run ./cmd/dosnbench -scenario scenarios/flash-crowd.scenario -scenario-report >/dev/null
	$(GO) test -count=1 -run 'TestWindows|TestSocketSink|TestWindowStats|TestWindowedSeries|TestLocalize|TestReplayLocalizes|TestTraceSink' \
		./internal/telemetry/ ./internal/scenario/

# Sweep smoke: the continuous scrub scheduler under test — the per-tick
# message budget is never exceeded (enforced by worst-case pre-charge, so
# it holds by construction), oversized chunks starve visibly instead of
# wedging the sweep, bad verdicts and suspect nodes re-queue their chunks,
# the cursor survives a save/restore restart, and reports are DeepEqual at
# scrub workers 1 vs 8 — then E26's quick run enforces the batched
# anti-entropy invariants end to end.
sweep-smoke:
	$(GO) test -count=1 -run 'TestSweep' ./internal/resilience/scrub/
	$(GO) run ./cmd/dosnbench -quick -exp e26 >/dev/null

# The library is tick-driven by contract: a wall-clock read in any layer
# (telemetry, scenario, scrub and sweeper, health, simnet, DHT, ...) would
# silently break run-twice and workers-1v8 byte-identity. Fails on any
# time.Now or time.Since under internal/ outside internal/bench/, the one
# package that renders wall-clock columns.
lint-wallclock:
	@bad=$$(grep -rnE 'time\.(Now|Since)' internal/ --include='*.go' | grep -v '^internal/bench/' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-wallclock: wall-clock read in the deterministic library (use the tick clock):"; \
		echo "$$bad"; \
		exit 1; \
	fi

# Write a quick machine-readable report and re-parse it with the strict
# validator; fails the gate if the JSON schema ever drifts or breaks.
json-smoke:
	$(GO) run ./cmd/dosnbench -quick -exp e3,e18 -json /tmp/godosn-ci.json >/dev/null
	$(GO) run ./cmd/dosnbench -validate /tmp/godosn-ci.json

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Raw testing.B numbers for every experiment family.
bench:
	$(GO) test -bench=. -benchmem ./...

bench-quick:
	$(GO) test -bench=. -benchtime=10x -run='^$$' .

# Hot-path microbenchmarks: per-scheme group Encrypt/Add/Remove (serial vs
# pool), DHT Put/Get (serial vs fanout) and the multi-group digest RPC,
# symmetric seal/open alloc deltas, the sharded cache (hit/miss/coalesced/
# contended), sealed-record verification, and the Merkle hash primitives.
bench-hot:
	$(GO) test -bench=. -benchmem -run='^$$' \
		./internal/social/privacy/ ./internal/overlay/dht/ ./internal/crypto/symmetric/ \
		./internal/cache/ ./internal/resilience/scrub/ ./internal/crypto/merkle/

# Anti-entropy cost curve: batched vs per-key scrub at 1k/10k/100k keys
# (10% corruption, k=3). Reported msg/op is the simulated message count
# per scrubbed key, the number E26 pins.
bench-scrub:
	$(GO) test -bench='BenchmarkScrub' -benchtime=1x -run='^$$' .

# Regenerate the E1–E26 experiment tables (EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/dosnbench

experiments-quick:
	$(GO) run ./cmd/dosnbench -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/privacyschemes
	$(GO) run ./examples/forkattack
	$(GO) run ./examples/securesearch
	$(GO) run ./examples/advertising

clean:
	$(GO) clean ./...
