GO ?= go

.PHONY: build test race lint vet fuzz-smoke bench-smoke ledger-smoke serve-smoke qbench qbench-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

lint: vet
	$(GO) run ./cmd/qolint -json qolint-report.json ./...

fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=10s ./internal/sqlparse/
	$(GO) test -run=^$$ -fuzz=FuzzBitPackRoundTrip -fuzztime=5s ./internal/colstore/
	$(GO) test -run=^$$ -fuzz=FuzzFORRoundTrip -fuzztime=5s ./internal/colstore/
	$(GO) test -run=^$$ -fuzz=FuzzRLERoundTrip -fuzztime=5s ./internal/colstore/
	$(GO) test -run=^$$ -fuzz=FuzzDictRoundTrip -fuzztime=5s ./internal/colstore/

bench-smoke:
	$(GO) test -run=^$$ -bench=BenchmarkExecStreamVsMaterialize -benchtime=1x -benchmem ./internal/engine/
	$(GO) test -run=^$$ -bench=BenchmarkHashJoinProbe -benchtime=1x -benchmem ./internal/engine/
	$(GO) test -run=^$$ -bench=BenchmarkScanColumns -benchtime=1x -benchmem ./internal/engine/
	$(GO) run ./cmd/bench

# ledger-smoke runs the 40-query feedback corpus end to end: persists
# the cardinality ledger, a slow-query log (threshold 0 so the artifact
# always has content), and the lifecycle event log, then reloads the
# persisted file through `ledger top` to prove the round trip.
ledger-smoke:
	$(GO) run ./cmd/robustqo ledger run -lines 20000 -out ledger.bin \
		-slow-query-ms 0 -slow-log slow_queries.jsonl -events query_events.jsonl
	$(GO) run ./cmd/robustqo ledger top -in ledger.bin -n 5
	$(GO) run ./cmd/robustqo ledger drift -in ledger.bin

# serve-smoke boots the debug server with a tiny admission gate and
# asserts cache hits, prepared-statement execution, overload shedding,
# and graceful drain through the real HTTP surface (see the script).
serve-smoke:
	sh scripts/serve_smoke.sh

# qbench runs the repository benchmark (BENCHMARK.json) once per workload
# at a fixed seed and prints each run's final JSON line.
qbench:
	@for w in serve_mix analytic robust_sweep; do \
		out=$$(bash qbench/run.sh --workload $$w --seed 1 --seconds 15 --trace 0) || exit 1; \
		echo "$$out" | tail -n 1; \
	done

# qbench-check vets and tests the benchmark harness. qbench is a nested
# module, so the root build and tests never compile it; this target
# catches internal API changes that would break the benchmark.
qbench-check:
	cd qbench && $(GO) vet ./... && $(GO) test ./...

ci: build lint race fuzz-smoke bench-smoke ledger-smoke serve-smoke qbench-check
