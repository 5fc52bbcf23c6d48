GO ?= go

.PHONY: all build vet lint test test-race test-short bench bench-smoke bench-compare ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs vet plus staticcheck when the binary is available (CI
# installs it; local environments without it still get a clean run).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not found; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke is the CI-sized benchmark pass. First the micro pass: 10
# iterations of the hot-path micro-benchmarks next to the code they
# time (executor incl. serial vs parallel and obs on/off, obs substrate
# incl. the statement store and a traced statement's span, LSM, the
# statement key function, the reply renderer, the engine's indexed,
# prepared and ad-hoc point statements), one regeneration each of the observability/
# governance/plan-cache experiments, and the BenchmarkML*
# kernel-vs-baseline suite. Then the socket-level harness on small
# tables with 2 s windows: every workload against a real aidb-serve,
# every answer checked, non-zero exit on any wrong one; result in
# bench/out/result.json. Depends on vet so the numbers never come from
# a vet-dirty tree.
bench-smoke: vet
	$(GO) test -run='^$$' -bench=. -benchtime=10x -benchmem \
		./internal/exec/ ./internal/obs/ ./internal/kv/ ./internal/sql/ \
		./internal/core/ ./internal/aisql/
	$(GO) test -run='^$$' -bench='BenchmarkE(2[5789]|3[023])' -benchtime=1x .
	$(GO) test -run='^$$' -bench='BenchmarkML' -benchtime=1x .
	$(GO) run ./bench -quick -seconds 2

# bench-compare is the before/after measurement: a full set (10 seeds
# per workload, about 30 minutes) compared with the committed baseline
# by BENCHMARK.json's bounds; exits 1 on a regression. Same host only:
# bench/baseline.json is a 2-vCPU sandbox number, so elsewhere take the
# "before" set yourself at the parent commit and -compare against that.
bench-compare:
	$(GO) run ./bench -runs 10 -out bench/out/new.json
	$(GO) run ./bench -compare bench/baseline.json bench/out/new.json

ci: build vet lint test-race
