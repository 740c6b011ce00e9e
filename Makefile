# Mirrors .github/workflows/ci.yml so local runs and CI stay in lockstep.

GO ?= go

.PHONY: all build test race chaos bench perfgate lint staticcheck vuln cover clean

all: lint build race bench perfgate

## build: compile every package, command and example
build:
	$(GO) build ./...
	@mkdir -p bin
	@for cmd in cmd/*/; do \
		$(GO) build -o "bin/$$(basename $$cmd)" "./$$cmd" || exit 1; \
	done
	@for ex in examples/*/; do \
		$(GO) build -o /dev/null "./$$ex" || exit 1; \
	done

## test: plain test suite
test:
	$(GO) test ./...

## race: the suite under the race detector (CI's test job)
race:
	$(GO) test -race ./...

## chaos: the failure-domain suite under -race (CI's chaos job); the seed is
## logged and CHAOS_SEED=N reruns a schedule
chaos:
	$(GO) test -race -count=1 -v -run 'TestChaos|TestSubmitSurvives|TestFaultedOps' .

## bench: one iteration of every benchmark plus the harness smoke runs
bench:
	$(GO) test -run 'XXX' -bench . -benchtime 1x ./...
	$(GO) run ./cmd/roadrunner-load -workflows 4 -requests 8 -compact
	$(GO) run ./cmd/roadrunner-load -workflows 4 -requests 8 -cold-channels -compact
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 4 -mode chain -compact
	@mkdir -p artifacts
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 8 -mode plan -compact | tee artifacts/load-plan.json
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 4 -mode plan -deadline 40us -payload 1048576 -compact \
		| python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["cancelled"] > 0 and d["errors"] == 0, d'
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 4 -mode plan -deadline 30s -compact \
		| python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["cancelled"] == 0 and d["ops"] == 4, d'
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 8 -replicas 3 -compact
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 8 -replicas 3 -placement round-robin -compact
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 40 -replicas 4 -mode kernel -placement round-robin -kills 1 -compact \
		| python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["kills"] == 1 and d["ops"] >= 28 and d["cancelled"] == 0, d'
	$(GO) run ./cmd/roadrunner-bench -exp fig7 -sizes 1 -json
	@mkdir -p artifacts
	$(GO) run ./cmd/roadrunner-bench -exp chancache -sizes 1,4 -json > artifacts/bench-chancache.json
	@cat artifacts/bench-chancache.json
	$(GO) run ./cmd/roadrunner-bench -exp placement -json > BENCH_4.json
	@cat BENCH_4.json
	$(GO) run ./cmd/roadrunner-bench -exp failure -json > BENCH_6.json
	@cat BENCH_6.json
	$(GO) run ./cmd/roadrunner-bench -exp hotpath -json > BENCH_8.json
	@cat BENCH_8.json
	$(GO) run ./cmd/roadrunner-bench -exp fanoutshare -json > BENCH_9.json
	@cat BENCH_9.json
	$(GO) run ./cmd/roadrunner-bench -exp fanoutpar
	$(GO) run ./cmd/roadrunner-load -workflows 2 -requests 8 -mode fanout -targets 8 -compact | tee artifacts/load-fanout.json

## perfgate: regenerate the hot-path and shared-egress fan-out trajectories
## and gate them against the committed BENCH_8.json and BENCH_9.json (CI's
## perf-gate job); also re-pins the allocation ceilings (0 allocs/op on the
## warm transfer fast path)
perfgate:
	@mkdir -p artifacts
	$(GO) run ./cmd/roadrunner-bench -exp hotpath,fanoutshare -json > artifacts/bench-fresh.json
	$(GO) run ./cmd/perfgate -baseline BENCH_8.json,BENCH_9.json -fresh artifacts/bench-fresh.json
	$(GO) test -run TestAllocCeilings -v .

## lint: go vet plus the roadvet suite (regionrelease, poolreturn,
## refbalance, gaugebalance, lockorder, lockguard, ctxpoll, errclass,
## ctxcheck, doccheck and the gofmt gate), then vet, gofmt and tests of the
## nested e2ebench module, which the root ./... pattern does not reach
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/roadvet -budget ROADVET_BASELINE.json ./...
	cd e2ebench && $(GO) vet ./... && test -z "$$(gofmt -l .)" && $(GO) test ./...

## staticcheck: static-analysis gate (CI's lint job; needs the binary or network)
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...; \
	fi

## vuln: known-vulnerability scan (CI's vuln job; needs the binary or network)
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@v1.1.4 ./...; \
	fi

## cover: per-package coverage (CI's coverage job)
cover:
	@mkdir -p artifacts
	$(GO) test -covermode=atomic -coverprofile=artifacts/coverage.out ./... \
		> artifacts/coverage-per-package.txt
	@cat artifacts/coverage-per-package.txt
	$(GO) tool cover -func=artifacts/coverage.out | tail -1

clean:
	rm -rf bin
