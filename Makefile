GO ?= go

.PHONY: build vet test race bench bench-json bench-serve-json ab check serve-smoke fuzz-smoke verify-corpus

build:
	$(GO) build ./...

# vet fails on any tracked Go file gofmt would rewrite, then runs go vet
# plus the repo's own invariant pass (internal/lint): opcode/metadata/
# handler-table coverage and the one-retire-per-dispatch discipline.
vet:
	@files="$$(git ls-files '*.go')" && unformatted="$$(gofmt -l $$files)" && \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/fpclint

test:
	$(GO) test ./...

# The race gate covers the concurrency surface added with fpc.Pool:
# TestPoolConcurrentStress drives one shared LoadedImage from 12 goroutines.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Record the dispatch-engine and pool-throughput benchmarks into
# BENCH_dispatch.json: the "current" block is replaced with fresh
# measurements, each metric's median, min, max and run count over six runs
# (B/op and allocs/op included); the committed "baseline" block (the
# decode-per-step engine before the decode-once refactor) is preserved for
# comparison.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkDispatch|BenchmarkPoolThroughput$$|BenchmarkMachine|BenchmarkInterpreterDispatch' -count 6 -benchmem . \
		| $(GO) run ./scripts/benchjson -out BENCH_dispatch.json

# Record the registry serving benchmarks into BENCH_serve.json: the cache
# hit path (zero verify/link/predecode work) against the cold submit path
# that pays the full load pipeline per program, and the continuation
# park/resume cycle (with and without the wire codec) against the cold
# machine boot a resume avoids. Like bench-json: median, min, max and run
# count of every metric over six runs, B/op and allocs/op included.
bench-serve-json:
	$(GO) test -run '^$$' -bench 'BenchmarkRegistry|BenchmarkColdSubmit|BenchmarkSnapshotRestore|BenchmarkSessionRoundTrip|BenchmarkColdBoot' -count 6 -benchmem ./internal/registry \
		| $(GO) run ./scripts/benchjson -out BENCH_serve.json

# Alternating A/B pairs of the end-to-end benchmark (fpcdbench): PARENT
# (a revision, default HEAD) checked out into a git worktree under
# .bench_build/ against the working tree, PAIRS pairs of SECONDS-second
# runs per workload in WORKLOAD (comma-separated), printed as a markdown
# table with the claim rule applied. TRACE=1 compares per-layer rows.
WORKLOAD ?= corpus-hot
PAIRS ?= 10
SECONDS ?= 20
PARENT ?= HEAD
TRACE ?= 0
ab:
	$(GO) run ./scripts/abpairs -parent $(PARENT) -workload $(WORKLOAD) -pairs $(PAIRS) -seconds $(SECONDS) -trace $(TRACE)

# End-to-end smoke of the serving subsystem: start fpcd, drive it with
# fpcload, scrape /metrics, assert non-zero pooled runs, drain on SIGTERM.
serve-smoke:
	sh scripts/serve_smoke.sh

# Differential fuzzing smoke: a deterministic 2000-seed sweep through the
# four-way differential oracle (cmd/fpcfuzz), then a short coverage-guided
# shift on each native fuzz target, the compiler's included. Longer
# campaigns: raise -n / -fuzztime.
fuzz-smoke:
	$(GO) run ./cmd/fpcfuzz -n 2000
	$(GO) test -fuzz=FuzzDifferential -fuzztime=30s -run '^$$' ./internal/difffuzz
	$(GO) test -fuzz=FuzzPoolReuse -fuzztime=30s -run '^$$' ./internal/difffuzz
	$(GO) test -fuzz=FuzzParkResume -fuzztime=30s -run '^$$' ./internal/difffuzz
	$(GO) test -fuzz=FuzzBankFile -fuzztime=10s -run '^$$' ./internal/regbank
	$(GO) test -fuzz=FuzzCompile -fuzztime=10s -run '^$$' ./internal/lang

# Verifier admission smoke: sweep seeds 0..19999 through the differential
# oracle, which also checks that every generated program is admitted by the
# static verifier under both linkage policies.
verify-corpus:
	$(GO) run ./cmd/fpcfuzz -n 20000

check: build vet test race
