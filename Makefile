GO ?= go

.PHONY: all build lint lint-baseline vet fmt test race cover fuzz-smoke chaos-smoke resume-smoke soak-smoke bench-snapshot bench-compare ci

all: build lint test

build:
	$(GO) build ./...

# discolint is the repo's own static-analysis suite (internal/lint):
# determinism, conservation, phase-safety and hot-path allocation
# invariants. Only findings beyond the committed baseline fail the gate.
lint: vet fmt
	$(GO) run ./cmd/discolint -baseline lint-baseline.json ./...

# Regenerate the committed baseline from a fresh sweep. Guarded by
# TestBaselineMatchesSweep: a hand-edited or stale baseline fails CI.
lint-baseline:
	$(GO) run ./cmd/discolint -baseline lint-baseline.json -write-baseline ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Per-package statement coverage. The load-bearing packages — the cycle
# engine the whole simulator rests on and the streaming service's wire
# layer — enforce a floor so their test layers cannot silently rot as
# the code grows.
COVER_FLOOR = 85
COVER_FLOOR_PKGS = internal/noc internal/stream
cover:
	@out="$$($(GO) test -cover ./... | grep -v 'no test files')"; \
	echo "$$out"; \
	for pkg in $(COVER_FLOOR_PKGS); do \
		pct="$$(echo "$$out" | awk -v pkg="$$pkg" '$$2 ~ pkg"$$" { for (i = 1; i <= NF; i++) if ($$i ~ /%/) { gsub(/%.*/, "", $$i); print $$i } }')"; \
		if [ -z "$$pct" ]; then echo "cover: no coverage line for $$pkg" >&2; exit 1; fi; \
		awk -v p="$$pct" -v floor="$(COVER_FLOOR)" -v pkg="$$pkg" 'BEGIN { \
			if (p + 0 < floor + 0) { printf "%s coverage %s%% is below the %s%% floor\n", pkg, p, floor; exit 1 } \
			printf "%s coverage %s%% (floor %s%%)\n", pkg, p, floor }' || exit 1; \
	done

# Short native-fuzzing pass over the bit-packing codecs' bit I/O, the
# compressor decoders, the kernel/reference differential target, the
# retrain oracle (over observed blocks and over synthetic count bumps), the streaming decoder's failed-decode state rule, the binary trace reader
# and the stream-layer round-trip (one -fuzz invocation each: go test
# requires the pattern to match exactly one target).
fuzz-smoke:
	$(GO) test -run TestNone -fuzz='^FuzzBitIO$$' -fuzztime=10s ./internal/compress
	$(GO) test -run TestNone -fuzz='^FuzzDecompress$$' -fuzztime=10s ./internal/compress
	$(GO) test -run TestNone -fuzz='^FuzzKernelEquivalence$$' -fuzztime=10s ./internal/compress
	$(GO) test -run TestNone -fuzz='^FuzzRetrainEquivalence$$' -fuzztime=10s ./internal/compress
	$(GO) test -run TestNone -fuzz='^FuzzRetrainBumps$$' -fuzztime=10s ./internal/compress
	$(GO) test -run TestNone -fuzz='^FuzzStatefulDecode$$' -fuzztime=10s ./internal/compress
	$(GO) test -run TestNone -fuzz='^FuzzReader$$' -fuzztime=10s ./internal/tracefmt
	$(GO) test -run TestNone -fuzz='^FuzzStreamRoundTrip$$' -fuzztime=10s ./internal/stream

# Fault-injection smoke: each fault class alone and all of them combined,
# at two seeds each, on a short full-system DISCO run. Every cell must
# complete (the resilience machinery absorbs the faults); a panic or a
# stall fails the target.
chaos-smoke:
	@for spec in "engine=0.05,stuck=16" "payload=0.02" "credit=0.01" \
		"engine=0.05,stuck=16,payload=0.02,credit=0.01"; do \
		for seed in 1 2; do \
			echo "== chaos-smoke: $$spec seed=$$seed =="; \
			$(GO) run ./cmd/discosim -run disco -benchmark swaptions \
				-ops 1500 -warmup 500 \
				-fault-spec "$$spec" -fault-seed $$seed || exit 1; \
		done; \
	done

# Kill-resume byte-identity smoke (DESIGN.md §13): run a small campaign
# uninterrupted (the reference artifact), run it again into a cache
# directory and SIGINT it once the store holds RESUME_KILL_AT finished
# cells (it must exit 5, interrupted-but-resumable), then rerun over the
# same cache and require the resumed JSON artifact to be byte-identical
# to the reference.
RESUME_KILL_AT = 3
resume-smoke:
	@set -e; \
	tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/discosim" ./cmd/discosim; \
	args="-exp all -quick -benchmarks swaptions,vips -ops 600 -warmup 150"; \
	echo "== resume-smoke: reference run =="; \
	"$$tmp/discosim" $$args -json "$$tmp/ref.json" >/dev/null; \
	echo "== resume-smoke: interrupted run =="; \
	"$$tmp/discosim" $$args -json "$$tmp/int.json" -cache-dir "$$tmp/cache" >/dev/null & pid=$$!; \
	n=0; while [ "$$n" -lt $(RESUME_KILL_AT) ] && kill -0 $$pid 2>/dev/null; do \
		sleep 0.05; n="$$(ls "$$tmp/cache" 2>/dev/null | grep -c '\.cell$$' || true)"; \
	done; \
	echo "store holds $$n finished cells: sending SIGINT"; \
	kill -INT $$pid 2>/dev/null || true; \
	rc=0; wait $$pid || rc=$$?; \
	if [ "$$rc" != 5 ]; then \
		echo "interrupted run exited $$rc, want 5 (resumable)"; exit 1; fi; \
	echo "== resume-smoke: resumed run =="; \
	"$$tmp/discosim" $$args -json "$$tmp/res.json" -cache-dir "$$tmp/cache" >/dev/null; \
	cmp "$$tmp/ref.json" "$$tmp/res.json"; \
	echo "resume-smoke: resumed artifact is byte-identical to the uninterrupted run"

# Streaming-service soak (the ISSUE's acceptance gate): boot a live
# discod, drive 1000 concurrent compressed streams through it with
# discoload (every echo verified byte-exact), assert the server's RSS
# stays bounded, then SIGTERM it and require a clean graceful drain
# (exit 0). The throughput/correctness report lands in bench/ for CI to
# upload as an artifact.
SOAK_STREAMS  = 1000
SOAK_BLOCKS   = 20
SOAK_RSS_KB   = 262144
soak-smoke:
	@set -e; \
	mkdir -p bench; \
	tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/discod" ./cmd/discod; \
	$(GO) build -o "$$tmp/discoload" ./cmd/discoload; \
	echo "== soak-smoke: starting discod =="; \
	"$$tmp/discod" -listen 127.0.0.1:0 -http 127.0.0.1:0 -port-file "$$tmp/port" & pid=$$!; \
	for i in $$(seq 1 100); do [ -f "$$tmp/port" ] && break; sleep 0.1; done; \
	[ -f "$$tmp/port" ] || { echo "discod never wrote its port file"; kill $$pid 2>/dev/null; exit 1; }; \
	addr="$$(head -n1 "$$tmp/port")"; \
	echo "== soak-smoke: $(SOAK_STREAMS) concurrent streams x $(SOAK_BLOCKS) blocks against $$addr =="; \
	"$$tmp/discoload" -addr "$$addr" -streams $(SOAK_STREAMS) -blocks $(SOAK_BLOCKS) \
		-workers $(SOAK_STREAMS) -report bench/soak-report.json || { kill $$pid 2>/dev/null; exit 1; }; \
	if [ -r /proc/$$pid/status ]; then \
		rss="$$(awk '/^VmRSS/ {print $$2}' /proc/$$pid/status)"; \
		echo "discod RSS after soak: $$rss kB (bound $(SOAK_RSS_KB) kB)"; \
		[ "$$rss" -lt $(SOAK_RSS_KB) ] || { echo "discod RSS $$rss kB exceeds the bound"; kill $$pid 2>/dev/null; exit 1; }; \
	else echo "no /proc on this host: skipping the RSS bound"; fi; \
	echo "== soak-smoke: graceful drain (SIGTERM) =="; \
	kill -TERM $$pid; rc=0; wait $$pid || rc=$$?; \
	[ "$$rc" = 0 ] || { echo "discod exited $$rc on SIGTERM, want 0 (clean drain)"; exit 1; }; \
	cat bench/soak-report.json; \
	echo "soak-smoke: $(SOAK_STREAMS) streams byte-exact, RSS bounded, drain clean"

# One pass over every benchmark (sanity, not timing-stable) into
# bench/full.txt, then a timing-stable best-of-5 run of the hot-path
# micro-benchmarks into bench/bench.txt — the committed baseline that
# bench-compare diffs against (benchcmp keeps the min ns/op of the five
# repeats). The SC²/FVC retrain benchmarks (a rebuild over an unchanged
# long history, and a stream's 256 observations plus rebuild) take up
# to about a millisecond each, so they run as a second invocation at 100
# iterations per repeat, and the
# end-to-end full-system run (BenchmarkSystemRun: cycles/s and
# allocs/cycle) as a third at two runs per repeat. Also an
# instrumented quick run whose metrics JSON snapshots the simulator's
# behaviour at this commit; CI uploads bench/ as a workflow artifact.
bench-snapshot:
	@mkdir -p bench
	$(GO) test -run TestNone -bench=. -benchtime=1x . | tee bench/full.txt
	$(GO) test -run TestNone \
		-bench '^(BenchmarkCompress|BenchmarkDecompress|BenchmarkStatefulEncode|BenchmarkStatefulRoundTrip|BenchmarkNoCStep|BenchmarkTraceGeneration|BenchmarkBlockContent)' \
		-benchtime=50000x -count=5 -benchmem . | tee bench/bench.txt
	$(GO) test -run TestNone -bench '^BenchmarkRetrain' \
		-benchtime=100x -count=5 -benchmem . | tee -a bench/bench.txt
	$(GO) test -run TestNone -bench '^BenchmarkSystemRun$$' \
		-benchtime=2x -count=5 -benchmem . | tee -a bench/bench.txt
	$(GO) run ./cmd/discosim -run disco -benchmark canneal \
		-ops 2000 -warmup 1000 -metrics bench/metrics.json

# Re-run the tier-2 micro-benchmarks (best of 5) and diff them against
# the committed baseline (bench/bench.txt) with cmd/benchcmp. Fails when
# a gated hot path (Compress*, Decompress*, StatefulEncode*, NoCStep*,
# Retrain*) regresses its ns/op by more than 10%.
# The second benchcmp holds two earlier wins against the frozen pre-kernel
# snapshot e2ebench/baseline_pr6.txt (read only, never regenerated).
bench-compare:
	@mkdir -p bench
	$(GO) test -run TestNone \
		-bench '^(BenchmarkCompress|BenchmarkDecompress|BenchmarkStatefulEncode|BenchmarkStatefulRoundTrip|BenchmarkNoCStep|BenchmarkTraceGeneration|BenchmarkBlockContent)' \
		-benchtime=50000x -count=5 -benchmem . | tee bench/new.txt
	$(GO) test -run TestNone -bench '^BenchmarkRetrain' \
		-benchtime=100x -count=5 -benchmem . | tee -a bench/new.txt
	$(GO) test -run TestNone -bench '^BenchmarkSystemRun$$' \
		-benchtime=2x -count=5 -benchmem . | tee -a bench/new.txt
	$(GO) run ./cmd/benchcmp -baseline bench/bench.txt -new bench/new.txt \
		-gate '^BenchmarkCompress|^BenchmarkDecompress|^BenchmarkStatefulEncode|^BenchmarkNoCStep|^BenchmarkRetrain' -max-regress 10
	$(GO) run ./cmd/benchcmp -baseline e2ebench/baseline_pr6.txt -new bench/new.txt \
		-require 'BenchmarkCompressSC2=50,BenchmarkNoCStepMesh8Serial=30'

ci: build lint race cover fuzz-smoke chaos-smoke resume-smoke soak-smoke
