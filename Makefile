GO ?= go

.PHONY: check gates bench lint profile profile-mutex clean

# Three tiers, nothing run twice: `check` is every test, `gates` is what no
# test runs, `bench` is the benchmark.

# check is the full gate: gofmt (any file `gofmt -l` lists fails it), compile,
# vet, and the whole test suite under the race detector. That includes every
# suite that once had a target of its own:
# the fault-injection and crash-recovery chaos suites, the history-checker
# gates, the hunt corpus replay and scheduler determinism, the overload
# contracts, the live/offline parity suites, and the feraldbd subprocess
# smokes (obs, live-check, SIGTERM checkpoint) — none of them is skipped
# outside -short.
check:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...

# gates runs what `check` cannot: the feralbench run that drives a whole
# experiment from the command line — a quick isolation sweep with every
# recorded history gated through the offline Adya checker (histories that fail
# are saved under $(WITNESS_DIR); CI uploads them) — after one deliberate
# rerun, the histcheck TestGate suite under -v, whose output is the cycle
# witnesses for the seeded lost-update and write-skew shapes. Last comes a fuzz budget of
# 30 s each for the wire decoder, the WAL scanner and the incremental
# serialization graph; `check` only replays their checked-in corpora. A
# failing input is written under the package's testdata/fuzz and reproduces
# with plain `go test`.
WITNESS_DIR ?= witnesses
gates:
	$(GO) test -count=1 -v -run TestGate ./internal/histcheck
	HISTCHECK_WITNESS_DIR=$(WITNESS_DIR) $(GO) run ./cmd/feralbench -experiment isolevels -quick -check-history -metrics=false
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzScanWAL$$' -fuzztime 30s ./internal/storage
	$(GO) test -run '^$$' -fuzz '^FuzzGraphMatchesReference$$' -fuzztime 30s ./internal/histcheck

# bench runs feralperf, the repository's benchmark (BENCHMARK.json,
# bench/README.md): four full-stack workloads, end-to-end and per-layer
# metrics. Results are appended to bench/out/results.json, which git ignores;
# compare two such files with `go run ./bench/feralperf -compare a.json b.json`.
# The older micro-benchmark numbers that the docs still quote are inlined where
# they are cited (git history keeps the raw recordings).
bench:
	$(GO) run ./bench/feralperf -results bench/out/results.json

# lint is staticcheck alone — `check` already ran go vet. The CI lint job
# installs the binary; without it the target says so and does nothing.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; nothing to run (go vet is part of make check)" ; \
	fi

# profile captures CPU and heap pprof profiles from a running feraldbd's
# metrics listener (default 127.0.0.1:6060, override with METRICS_ADDR) into
# profiles/. Inspect with `go tool pprof profiles/cpu.pprof`.
METRICS_ADDR ?= 127.0.0.1:6060
PROFILE_SECONDS ?= 10
profile:
	mkdir -p profiles
	curl -fsS -o profiles/cpu.pprof "http://$(METRICS_ADDR)/debug/pprof/profile?seconds=$(PROFILE_SECONDS)"
	curl -fsS -o profiles/heap.pprof "http://$(METRICS_ADDR)/debug/pprof/heap"
	@echo "wrote profiles/cpu.pprof and profiles/heap.pprof"

# profile-mutex captures mutex-contention and CPU profiles of the hottest
# commit-pipeline cell (sync=always, 8 committers) — the view that shows where
# commit-path serialization remains. Inspect with
# `go tool pprof profiles/commit-mutex.pprof`.
profile-mutex:
	mkdir -p profiles
	$(GO) test -bench 'BenchmarkCommitThroughput/sync=always/goroutines=8$$' \
		-run '^$$' -benchtime=2s -timeout 10m \
		-mutexprofile profiles/commit-mutex.pprof -cpuprofile profiles/commit-cpu.pprof .
	@echo "wrote profiles/commit-mutex.pprof and profiles/commit-cpu.pprof"

# clean removes every cmd/ binary built into the repo root plus any data
# directories left behind by local runs (feraldbd -data-dir, feralbench
# -data-dir, feralperf).
clean:
	rm -f feralbench feraldbd feralsql feralcheck feralhunt corpusgen railsscan feralcc.test
	rm -rf data chaos-data bench-data profiles witnesses bench/out
