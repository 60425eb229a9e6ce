# Build / test / bench entry points (see DESIGN.md and EXPERIMENTS.md).

GO ?= go

.PHONY: all build cross-build test test-poison bench bench-full bench-finetune bench-recover bench-replicate vet serve repl-smoke shard-smoke bce-check bench-overload overload-smoke benchmark-selftest bench-compare loc

all: build test

# Non-test Go lines per package and in total — the number ROADMAP aim 2 and
# the CHANGES.md entries of simplification PRs report before/after.
# benchmark/ is a module of its own and is not counted.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' \
		| xargs wc -l | awk '$$2 != "total" { sub(/^\.\//, "", $$2); sub(/\/[^\/]*$$/, "", $$2); n[$$2] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", t }' | sort -k2

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The dense-matmul tile and the GELU kernel are assembly on amd64 only; every
# other platform runs the tile's Go twin and the GELUTanh loop behind a build
# constraint. Cross-compile (and vet the kernel packages, asmdecl included,
# and the ones whose linear layers run the tile over column parts) so that
# side of the constraint cannot rot.
cross-build:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor ./internal/mathx ./internal/encoding ./internal/autograd ./internal/nn ./internal/models ./internal/adaptive

# Tier-1 verification: vet plus the full suite under the race detector
# (the pipelined training loop is concurrent; -race is the contract).
# The tests that train real models — internal/bench's one smoke per
# registered experiment (~15 s without -race) and its default-profile claim
# test (~25 s), internal/train's trajectory pins and pipeline-equivalence
# tests (~10 s) — slow severalfold under -race on few-core machines; hence
# the generous timeout.
test: vet
	$(GO) test -race -timeout=45m ./...

# The execution stack with every arena poisoned (DESIGN.md §7): op outputs
# are checked out un-zeroed, so an op that forgets to write an element reads
# NaN there and fails a loss, trajectory pin or oracle comparison.
test-poison:
	TASER_ARENA_POISON=1 $(GO) test -count=1 ./internal/autograd ./internal/nn ./internal/models ./internal/adaptive ./internal/train

# Smoke-check every step benchmark with allocation accounting. The output is
# benchstat-compatible: save it per commit and compare with
#   benchstat old.txt new.txt
bench:
	$(GO) test -run='^$$' -bench=Step -benchmem -benchtime=1x

# Steady-state numbers for the step and build-path benchmarks (slower).
bench-full:
	$(GO) test -run='^$$' -bench='Step|Finder' -benchmem -benchtime=20x
	$(GO) test ./internal/train -run='^$$' -bench=Build -benchmem -benchtime=200x

# Online inference: pretrain briefly, then serve the HTTP/JSON API
# (see cmd/taser-serve for endpoints and DESIGN.md §5 for the architecture).
# Set WAL_DIR=/path to serve durably: every ingested event is write-ahead
# logged and the engine recovers the stream on restart (DESIGN.md §9).
serve:
	$(GO) run ./cmd/taser-serve -dataset wikipedia -scale 0.1 -epochs 2 -addr :8080 $(if $(WAL_DIR),-wal-dir $(WAL_DIR))

# Bounds-check-elimination guard: rebuild internal/tensor with
# -d=ssa/check_bce and fail if the residual check sites drift from
# scripts/bce_allowlist.txt (run with -update after intentional changes).
bce-check:
	bash scripts/bce_check.sh

# The benchmark (BENCHMARK.json, benchmark/) is a module of its own that
# compiles against this tree's models/adaptive/autograd/train/serve API and is
# outside `go build ./...`: vet it and run its self-test (toy sizes, ~5 s) so
# an API change that breaks it fails here, not in the benchmark driver.
benchmark-selftest:
	cd benchmark && $(GO) vet . && $(GO) test .

# Compare two run-sets made by `bash benchmark/run.sh set LABEL ...` (which
# also builds .bench_build/taser-benchmark): medians, quartiles, how much
# worse CHANGE is than BASE per metric and workload, against BENCHMARK.json's
# bounds; exit 1 on a breach.
#   make bench-compare BASE=benchmark/out/base CHANGE=benchmark/out/change
bench-compare:
	@test -n "$(BASE)" -a -n "$(CHANGE)" || { echo "usage: make bench-compare BASE=<dir> CHANGE=<dir>" >&2; exit 2; }
	.bench_build/taser-benchmark -compare $(BASE) $(CHANGE)

# Online fine-tuning on a drifted stream: frozen vs fine-tuned prequential
# MRR, with weight publication measured as non-blocking (see DESIGN.md §8).
bench-finetune:
	$(GO) run ./cmd/taser-bench -exp finetune

# Durability: recovery time vs stream length (crash = pure WAL replay,
# clean = checkpoint load) and durable-ingest overhead (group commit vs
# fsync-per-event) — see DESIGN.md §9 and EXPERIMENTS.md.
bench-recover:
	$(GO) run ./cmd/taser-bench -exp recover

# Replication: follower catch-up time vs stream length (WAL tail vs shipped
# checkpoint) and steady-state lag vs leader ingest rate — see DESIGN.md §11
# and EXPERIMENTS.md.
bench-replicate:
	$(GO) run ./cmd/taser-bench -exp replicate

# Overload: open-loop (constant-arrival-rate) burst against a static engine
# vs one running the SLO controller + admission gate (DESIGN.md §14). The
# first run offers 2× the calibrated sustainable rate (the collapse-vs-SLO
# comparison); the second forces the shed path with a far-offered rate and a
# tiny queue so 429 + Retry-After accounting is exercised (EXPERIMENTS.md).
bench-overload:
	$(GO) run ./cmd/taser-bench -exp overload
	$(GO) run ./cmd/taser-bench -exp overload -open-rate 10000 -open-queue 4

# Overload smoke test over localhost: flag validation, a taser-serve with
# tiny admission queues, a parallel burst that must shed with 429 +
# Retry-After (mirrored in /v1/stats), post-burst recovery, and a SIGTERM
# mid-burst that must drain cleanly (DESIGN.md §14).
overload-smoke:
	bash scripts/overload_smoke.sh

# Two-process replication smoke test over localhost: leader + follower,
# hard leader kill, promotion, demoted store re-joining (DESIGN.md §11).
repl-smoke:
	bash scripts/repl_smoke.sh

# Sharded-serving smoke test over localhost: a 4-shard fleet, mixed
# ingest/predict, kill -9, -recover restart, watermark + prediction
# continuity (DESIGN.md §12).
shard-smoke:
	bash scripts/shard_smoke.sh
