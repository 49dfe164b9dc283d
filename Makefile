GO ?= go

.PHONY: build test race chaos recover fmt vet lint check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=2 -timeout 45m ./...

# Randomized fault-injection stress tests (opt-in via build tag; see
# docs/ROBUSTNESS.md for how to replay a failing seed).
chaos:
	$(GO) test -race -tags chaos -run Chaos -timeout 30m ./internal/deploy/ ./internal/chaos/ -v

# Kill/restart recovery conformance: the tier-1 Recovery tests plus the
# exhaustive every-kill-point sweep (chaos tag), all under the race
# detector, then the kill tests fifty times over so a rig or engine race
# that only loses one run in a few cannot return silently. See
# docs/ROBUSTNESS.md.
recover:
	$(GO) test -race -tags chaos -run 'Recover' ./internal/deploy/ -v
	$(GO) test -race -count=50 -run 'TestRecoveryKill' ./internal/deploy/

fmt:
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then echo "gofmt -s needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repository's one benchmark: six end-to-end workloads plus the
# per-layer ledger, declared in BENCHMARK.json (see _bench/README.md for
# -quick, -seeds and -compare).
bench:
	bash _bench/run.sh

# In-tree static analysis (internal/lint): determinism, map-order,
# float-comparison, durability, context-flow, span-lifecycle, and
# lock-discipline invariants. Exit is
# nonzero on any finding not covered by a justified //helcfl:allow, and
# (-stale) on any allow directive that no longer suppresses anything.
# See docs/STATIC_ANALYSIS.md.
lint:
	$(GO) run ./cmd/helcfl-lint -stale ./...

check: build vet fmt lint race
