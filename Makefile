GO ?= go

.PHONY: all build test race vet staticcheck examples serve-smoke obs-smoke shard-smoke chaos bench-smoke bench-build bench-test fuzz-smoke pprof pprof-ground loc ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second line repeats the cross-shard wake tests and the arrival
# selection tests (including the randomized equivalence against whole-pool
# runs): they run with the retry tick disabled, so a schedule-dependent lost
# wake or stranded member fails here as a flake instead of silently falling
# back to the tick. It also repeats the never-waiting quasi-lock test, the
# grounding-probe index tests (in storage, concurrent probes race to build
# one undeclared index) and the column-level wake/validation tests (Column
# matches the four local ones, Prepare the two cross-shard reservation ones,
# which also run with no tick).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'TestDist|TestWake|TestArrival|TestCommittedWrite|TestPull|TestSelection|TestQuasiLock|TestProbeIndex|Column|TestPrepare' ./internal/core/ ./internal/storage/

# Vet plus the formatting gate: any file gofmt would change fails it. The
# clock gate: core, dist and server decide every timeout on the injected
# clock (internal/clock), so a wall-clock timer in their non-test files
# fails it. The writer gate: internal/txn is the one module that writes a
# transaction's log records, so a transaction record built in a non-test
# file of core, dist, server, entangle or cmd, by a constructor or as a
# wal.Record literal, fails it. The codec gate: the
# cross-shard messages and what they carry (dist, eq, types) travel in the
# binary codec of internal/wire/envelope.go, so encoding/json imported by a
# non-test file of those packages or of internal/server/dist.go fails it.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE --include='*.go' --exclude='*_test.go' 'time\.(NewTimer|NewTicker|AfterFunc|After|Tick)\(' internal/core internal/dist internal/server); \
		if [ -n "$$out" ]; then echo "wall-clock timer outside internal/clock (use the injected clock):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE --include='*.go' --exclude='*_test.go' 'wal\.(Insert|Commit|Abort|GroupCommit|Prepare)\(|wal\.Record\{' internal/core internal/dist internal/server entangle cmd); \
		if [ -n "$$out" ]; then echo "transaction log record written outside internal/txn:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn --include='*.go' --exclude='*_test.go' '"encoding/json"' internal/dist internal/eq internal/types internal/server/dist.go); \
		if [ -n "$$out" ]; then echo "encoding/json on the cross-shard message path (use the wire envelope codec):"; echo "$$out"; exit 1; fi

# Static analysis gate. CI installs staticcheck; locally the target skips
# with a notice when the binary is absent so `make ci` stays runnable in
# minimal environments.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Examples smoke: build and run every example end to end (also covered by
# `make test` through TestExamplesRunEndToEnd; this target is the direct
# entry point).
examples:
	$(GO) test -run TestExamplesRunEndToEnd -count=1 .

# Serving smoke: build the real youtopia-serve binary, start it, run the
# remote quickstart against it as a second OS process, assert the
# coordinated answers, and check SIGTERM drains gracefully (also covered
# by `make test`; this target is the direct entry point and the CI gate).
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 -v .

# Observability smoke: the real youtopia-serve binary with -debug-addr,
# traced TCP clients coordinating a pair, then /metrics, /traces/recent,
# and the pprof index asserted over the debug HTTP surface (also covered
# by `make test`; this target is the direct entry point and the CI gate).
obs-smoke:
	$(GO) test -run TestObsSmoke -count=1 -v .

# Sharding smoke: two real youtopia-serve processes joined into a 2-shard
# placement (-shard/-peers), the sharded quickstart booking a cross-shard
# gift-match pair atomically through the two-phase group commit, then a
# graceful SIGTERM drain of both shards (also covered by `make test`;
# this target is the direct entry point and the CI gate).
shard-smoke:
	$(GO) test -run TestShardSmoke -count=1 -v .

# Chaos smoke: the fault-injection suite under the race detector — the
# PR 8 acceptance soak (coordination groups stay all-or-nothing while
# connections reset and the server sheds) plus the WAL torn-write sweeps
# and the client self-healing tests. The seed is fixed inside the tests
# so failures reproduce; override with CHAOS_SEED=<n> to explore.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestRetry|TestHandleSurvives|TestOverloadShed|TestShedRetry|TestFault' ./internal/server ./internal/wal
	$(GO) test -race -count=1 ./internal/fault ./entangle/client

# One iteration of every benchmark family: a fast sanity pass that the
# figure harnesses still run end to end (not a measurement; measurements
# come from `go run -C bench .`). -benchmem puts B/op and allocs/op in the
# artifact, so BenchmarkEQEvaluatePair and BenchmarkEQEvaluateCycle10 record
# the evaluation round's allocations from change to change,
# BenchmarkTableGCMark (./internal/storage) records a forced collection's
# time over a 100k-row table and the heap objects per stored row, and
# BenchmarkClassicalJoin (./internal/sql) times a two-table indexed join at
# 100, 300 and 1,000 rows per table. Output is written to bench-smoke.txt,
# which CI uploads as an artifact; a failing run fails the target (no pipe,
# so no swallowed exit status).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem . ./internal/storage ./internal/sql > bench-smoke.txt 2>&1 || (cat bench-smoke.txt; exit 1)
	@cat bench-smoke.txt

# bench/ is a module of its own (the repository's benchmark, see
# bench/README.md) that `go build ./...` never compiles: vet it here so a
# refactor that breaks the symbols it imports fails tier-1 CI, not the
# benchmark gate. PR-to-PR judgement is `go run -C bench . compare A B`.
bench-build:
	$(GO) vet -C bench ./...

# The benchmark's own tests (~4 s): an in-process smoke of all five
# workloads plus the compare/stats units. They compile and run against
# wire, client, server and dist, and root `go test ./...` never sees them.
bench-test:
	$(GO) test -C bench ./...

# Fuzz smoke: a short randomized run of each wire-protocol fuzz target
# (frame reader, binary codec and cross-shard envelope codec) on top of the
# committed seed corpus, of the statement-shape target (texts with one
# shape key parse alike but for their literals; text that fails to parse
# leaves no cache entry), seeded from the parser's seed scripts, of the
# checkpoint snapshot decoder (no panic; a lying table, row or index count
# is rejected before it sizes anything) and of log recovery (no panic; a
# log allocates at most a constant per byte, a lying frame length
# included), seeded from internal/wal/testdata's log. One -fuzz pattern per
# invocation — Go's fuzzer requires exactly one matching target when
# fuzzing.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryFrame$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzEnvelope$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzStatementShape$$' -fuzztime 10s ./internal/sql
	$(GO) test -run '^$$' -fuzz '^FuzzLoadSnapshot$$' -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzRecover$$' -fuzztime 10s ./internal/wal

# CPU + heap profile of the Figure 6(b) pending-queries sweep (every
# pending query re-grounds in every run); inspect with
# `go tool pprof cpu.prof` / `mem.prof`.
pprof:
	$(GO) test -run '^$$' -bench 'BenchmarkFigure6b$$' -benchtime 2x -cpuprofile cpu.prof -memprofile mem.prof .
	@echo "inspect with: $(GO) tool pprof cpu.prof   (or mem.prof)"

# CPU + heap profile of a 10x-scale grounding round through the streaming
# pipeline (BenchmarkFigure6bScale): the batch-cursor pull path end to end.
# The heap profile should show no row clones on the scan path; inspect with
# `go tool pprof ground-cpu.prof` / `ground-mem.prof`.
pprof-ground:
	$(GO) test -run '^$$' -bench 'BenchmarkFigure6bScale/scale=10x' -benchtime 5x -cpuprofile ground-cpu.prof -memprofile ground-mem.prof .
	@echo "inspect with: $(GO) tool pprof ground-cpu.prof   (or ground-mem.prof)"

# Non-test Go lines per package and in total, outside bench/ (a module of
# its own, so ./... never lists it): the line counts simplifications report.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
		while read -r pkg files; do \
			[ -n "$$files" ] && printf '%7d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
		done | awk '{ n += $$1; print } END { printf "%7d total\n", n }'

ci: build vet bench-build bench-test staticcheck test race
