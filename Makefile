# Build, test and benchmark entry points. CI (.github/workflows/ci.yml)
# runs the same commands; keep the two in sync.

GO ?= go

.PHONY: all build examples vet lint fmt-check test race fuzz-smoke bench-module bench bench-smoke bench-compare determinism-smoke campaign-smoke ci clean

all: build

build:
	$(GO) build ./...

# Build, then run every example end to end. go build ./... compiles them
# too, but only running them catches an example that builds and then
# fails (a config-knob change, say); the named target and CI step make it
# fail loudly as "examples". About 8 s on a 2-core host.
examples:
	$(GO) build ./examples/...
	@for d in examples/*/; do \
		echo "== $$d"; $(GO) run "./$$d" || exit 1; \
	done

vet:
	$(GO) vet ./...

# Contracts as lint: build the repository's multichecker (cmd/reprolint)
# and run the four engine-contract analyzers — sessionview, hotalloc,
# determinism, ctxpoll — over every package through the go vet driver,
# so //repro: annotations propagate across package boundaries as facts.
lint:
	$(GO) build -o bin/reprolint ./cmd/reprolint
	$(GO) vet -vettool=bin/reprolint ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Native fuzzing, one target per go test run (go test ./... only replays
# the seed corpora; this explores). 20 s on the .bench parser: ReadBench
# must never panic, and every netlist it accepts must compile and
# simulate like the Evaluator (sequential ones under Step too). 10 s
# each on the campaign service's inputs: job-spec JSON through JobKey
# and Shards, and report JSON through DecodeReport; and 10 s on
# checkpoint gob through faultsim.Restore. -fuzzminimizetime keeps a
# slow minimization from eating a target's whole budget.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadBench$$' -fuzztime 20s ./internal/netlist
	$(GO) test -run '^$$' -fuzz '^FuzzSpecKey$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReport$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/faultsim

# The repository benchmark (bench/) is a Go module of its own, so the
# root build, vet and test never compile it; this keeps it building and
# passing its tests against the packages it calls. Needs no network: the
# module points at this checkout through a replace directive.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Full measured run; writes BENCH_<sha>.json + .txt via scripts/bench.sh.
# Override BENCHTIME (e.g. BENCHTIME=2s) for stabler numbers.
bench:
	sh scripts/bench.sh

# One iteration of everything: the CI perf-path smoke job.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Diff the newest local BENCH_*.json against the committed baseline and
# flag >10% regressions (scripts/benchcmp). Reporting only by default —
# smoke numbers are noisy, the report is the artifact; pass
# BENCHCMP_FLAGS=-strict to gate (exit nonzero on any regression).
bench-compare:
	@base="$$(git ls-files 'BENCH_*.json' | while read -r f; do \
		echo "$$(git log -1 --format=%ct -- "$$f") $$f"; done | sort -n | tail -1 | cut -d' ' -f2-)"; \
	new="$$(ls -t BENCH_*.json 2>/dev/null | head -1)"; \
	if [ -z "$$base" ] || [ -z "$$new" ] || [ "$$base" = "$$new" ]; then \
		echo "bench-compare: need a committed baseline and a fresh BENCH_*.json (run make bench)"; exit 1; fi; \
	echo "comparing $$base -> $$new"; \
	$(GO) run ./scripts/benchcmp $(BENCHCMP_FLAGS) "$$base" "$$new"

# Cross-process determinism: N fresh-process seq top-off runs per worker
# setting, byte-compared (scripts/detsmoke.sh). Each run gets its own map
# seed, which is the point — this catches iteration-order leaks that
# same-process replays cannot. Override: make determinism-smoke RUNS=20.
determinism-smoke:
	sh scripts/detsmoke.sh $(RUNS)

# Campaign service end to end: start a race-instrumented cmd/reprod,
# submit the same job set twice via the mutsample campaign client, and
# assert the second pass is served from the content cache with
# byte-identical reports (scripts/campaignsmoke.sh).
campaign-smoke:
	sh scripts/campaignsmoke.sh

ci: build examples vet lint fmt-check race fuzz-smoke bench-module bench-smoke campaign-smoke

clean:
	rm -f BENCH_*.json BENCH_*.txt BENCH_*.mem.pprof
	rm -rf bin
