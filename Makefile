# Tier-1 verification: build, vet, formatting, the dvfslint analyzer
# suite, full test suite, then the race detector over every package
# (the repo ships concurrency — shared Executors, GA worker pools, the
# pipeline Lab the dvfsd workers share, the parallel experiment harness
# and the dvfsd serving layer — so a race-clean run is part of "tests
# pass"), the examples, and finally the dvfsd end-to-end smokes.
.PHONY: verify build bench-build bench-traced test vet fmt-check lint race short examples bench-smoke fuzz-smoke serve-smoke cluster-smoke

verify: build bench-build vet fmt-check lint test race examples serve-smoke cluster-smoke

build:
	go build ./...

# bench/ is a module of its own (it imports internal/ through a
# replace directive), so `go build ./...` and `go test ./...` never
# reach it: an internal/ API change that breaks its compile would
# otherwise surface only when the benchmark driver runs. -short skips
# the test that spawns dvfsd.
bench-build:
	go vet -C bench ./... && go test -C bench -short ./...

# The traced phase of the serving benchmark on all four workloads
# (~2 min; not part of verify). bench/replay.go mirrors the serving
# path through the layers' public functions and exits non-zero when
# trace.coverage (mirrored / served time) leaves [0.85, 1.15]: a layer
# made faster in place moves both sides, a call the server stops making
# does not, so this is the check to run after any serving-path
# speed-up (ROADMAP item 1). Prints each workload's coverage; fails if
# any run does.
bench-traced:
	@for w in hot_named cold_search cold_build inline_durable; do \
		out=$$(go run -C bench npudvfs/bench -workload $$w -trace 1) || { echo "$$out"; echo "bench-traced: $$w failed"; exit 1; }; \
		echo "$$out" | awk -v w=$$w '$$1 == "trace.coverage" { print "bench-traced: " w " trace.coverage " $$2 }'; \
	done

vet:
	go vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# dvfslint enforces the determinism, concurrency and serving/cluster
# contracts (DESIGN.md §9): seeded randomness only, tolerance-based
# float comparison, tracked goroutines, dimensional safety, and the
# interprocedural rules (errsink; lockorder, which also checks that
# every lock is paired with its unlock). One cold whole-module pass,
# ~4 s, nearly all of it type-checking the stdlib from source. Run a
# subset with e.g.:
#   go run ./cmd/dvfslint -rules detrand,floateq
lint:
	go run ./cmd/dvfslint

test:
	go test ./...

race:
	go test -race ./...

short:
	go test -short ./...

# Runs every program under examples/ to completion (each takes 1-2 s).
# examples/custom-accelerator is the one end-to-end run on a V-F table
# other than the reference chip's, so it is where a frequency taken
# from the wrong grid shows. Fails on the first example that exits
# non-zero. TMPDIR points at a scratch directory removed afterwards,
# because moe-production leaves its artifacts in a temporary directory
# for the reader to open.
examples:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for e in examples/*/; do echo "go run ./$$e"; TMPDIR=$$tmp go run ./$$e > /dev/null || exit 1; done

# Every benchmark in the repo, once each — the CI smoke that they
# still compile and run — plus the cheap perf-contract assertions
# (BenchmarkGASearch must stay allocation-free).
bench-smoke:
	./scripts/bench_smoke.sh

# Ten seconds of fuzzing for each of the three hand-written codecs held
# to encoding/json — the fast trace decoder (FuzzReadWorkload), the
# fingerprint encoder (FuzzFingerprint) and the fs job store's record
# encoder (FuzzEncodeRecord) — and for the GA child's word-at-a-time
# parent diff held to the byte loop it replaced (FuzzMakeChild).
# go test -fuzz takes one target per call.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzReadWorkload$$' -fuzztime 10s ./internal/traceio
	go test -run '^$$' -fuzz '^FuzzFingerprint$$' -fuzztime 10s ./internal/traceio
	go test -run '^$$' -fuzz '^FuzzEncodeRecord$$' -fuzztime 10s ./internal/cluster/jobstore
	go test -run '^$$' -fuzz '^FuzzMakeChild$$' -fuzztime 10s ./internal/ga

# Boots dvfsd on a random port, submits the quickstart trace through
# dvfsctl, asserts the served strategy matches the batch path and that
# resubmission hits the cache, then shuts down gracefully.
serve-smoke:
	./scripts/serve_smoke.sh

# Boots a 3-node consistent-hash cluster with durable fs stores,
# submits through a non-owner (asserting the forward and the cache
# locality it buys), SIGKILLs the owner mid-search and asserts the
# restarted node recovers every acknowledged job. DESIGN.md §12.
cluster-smoke:
	./scripts/cluster_smoke.sh
