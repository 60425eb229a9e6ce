# Build / test / bench entry points (see DESIGN.md and EXPERIMENTS.md).

GO ?= go

.PHONY: all build cross-build test test-poison bench bench-full bench-finetune bench-recover bench-replicate vet serve repl-smoke shard-smoke bce-check unreached-check bench-overload overload-smoke benchmark-selftest bench-compare bench-record loc

all: build test

# Non-test Go lines per package and in total (benchmark/, a module of its own, is not counted).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' \
		| xargs wc -l | awk '$$2 != "total" { sub(/^\.\//, "", $$2); sub(/\/[^\/]*$$/, "", $$2); n[$$2] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", t }' | sort -k2

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Builds and vets the pure-Go side of the kernels' build constraint, which amd64 never compiles.
cross-build:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor ./internal/mathx ./internal/encoding ./internal/autograd ./internal/nn ./internal/models ./internal/adaptive

# Vet plus the full suite under -race; the model-training tests need the long timeout on few cores.
test: vet
	$(GO) test -race -timeout=45m ./...

# The execution stack on NaN-poisoned arenas, so an unwritten output element fails a pin (DESIGN.md §6); serve, because its memo copies rows out of them.
test-poison:
	TASER_ARENA_POISON=1 $(GO) test -count=1 ./internal/autograd ./internal/nn ./internal/models ./internal/adaptive ./internal/train ./internal/serve

# One iteration of every step benchmark with allocations; the output is benchstat-compatible.
bench:
	$(GO) test -run='^$$' -bench=Step -benchmem -benchtime=1x

# The training stage record BENCH_$(PR).json: Table III on wikipedia at GOMAXPROCS=1, median and IQR over laps (~70 s).
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<n>" >&2; exit 2; }
	bash scripts/bench_record.sh $(PR)

# Steady-state step, finder and build-path numbers (slower).
bench-full:
	$(GO) test -run='^$$' -bench='Step|Finder' -benchmem -benchtime=20x
	$(GO) test ./internal/train -run='^$$' -bench=Build -benchmem -benchtime=200x

# Pretrains briefly and serves the HTTP API on :8080; WAL_DIR=/path serves durably (DESIGN.md §9, §11).
serve:
	$(GO) run ./cmd/taser-serve -dataset wikipedia -scale 0.1 -epochs 2 -addr :8080 $(if $(WAL_DIR),-wal-dir $(WAL_DIR))

# Fails when internal/tensor's bounds-check sites drift from scripts/bce_allowlist.txt (DESIGN.md §6).
bce-check:
	bash scripts/bce_check.sh

# Fails when the functions no binary reaches drift from scripts/unreached_allowlist.txt: a function only tests call entered the non-test tree.
unreached-check:
	bash scripts/unreached.sh

# Vets and self-tests benchmark/, a module outside `go build ./...`, so an API change that breaks it fails here.
benchmark-selftest:
	cd benchmark && $(GO) vet . && $(GO) test .

# Compares two run-sets of `bash benchmark/run.sh set` against BENCHMARK.json's bounds; exits 1 on a breach.
bench-compare:
	@test -n "$(BASE)" -a -n "$(CHANGE)" || { echo "usage: make bench-compare BASE=<dir> CHANGE=<dir>" >&2; exit 2; }
	.bench_build/taser-benchmark -compare $(BASE) $(CHANGE)

# Frozen vs fine-tuned prequential MRR on a drifted stream (DESIGN.md §10).
bench-finetune:
	$(GO) run ./cmd/taser-bench -exp finetune

# Recovery time vs stream length and durable-ingest overhead (DESIGN.md §11).
bench-recover:
	$(GO) run ./cmd/taser-bench -exp recover

# Follower catch-up time vs stream length and steady-state lag vs ingest rate (DESIGN.md §12).
bench-replicate:
	$(GO) run ./cmd/taser-bench -exp replicate

# Open-loop bursts, static vs admission-only: at 2× the calibrated rate, then forced onto the shed path (DESIGN.md §14).
bench-overload:
	$(GO) run ./cmd/taser-bench -exp overload
	$(GO) run ./cmd/taser-bench -exp overload -open-rate 10000 -open-queue 4

# Tiny-gate drill over localhost: a burst must shed with 429 + Retry-After, recover, and drain on SIGTERM.
overload-smoke:
	bash scripts/overload_smoke.sh

# Two-process hand-off drill over localhost: kill -9 the leader, promote, re-join (DESIGN.md §12).
repl-smoke:
	bash scripts/repl_smoke.sh

# Four-shard fleet drill over localhost: mixed traffic, kill -9, -recover, continuity (DESIGN.md §13).
shard-smoke:
	bash scripts/shard_smoke.sh
