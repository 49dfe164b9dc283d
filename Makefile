GO ?= go

.PHONY: build test race chaos recover fmt vet lint check bench bench-scale

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=2 -timeout 45m ./...

# Randomized fault-injection stress tests (opt-in via build tag; see
# docs/ROBUSTNESS.md for how to replay a failing seed). Includes the
# fleet kill sweep: real worker processes SIGKILLed mid-campaign and the
# coordinator killed and resumed from its journal, byte-compared against
# a serial run (scale with HELCFL_FLEET_SEEDS / HELCFL_FLEET_WORKERS).
chaos:
	$(GO) test -race -tags chaos -run Chaos -timeout 30m ./internal/deploy/ ./internal/chaos/ ./internal/fleet/ -v

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

# Micro/campaign benchmarks (go test -bench), then time the full campaign
# grid serially vs on all cores and record the result in
# BENCH_experiments.json (see docs/GRID.md and docs/PERFORMANCE.md; the
# speedup field is omitted on single-worker hosts, where both timed runs
# are serial).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./...
	$(GO) run ./cmd/helcfl bench -preset tiny -experiment all -bench-out BENCH_experiments.json

# Million-user scheduling sweep: time one FLCC round plan (Eq. 20 utility
# sweep + streaming top-N + Algorithm 3 DVFS) on synthetic SoA fleets of
# Q ∈ {100, 1e3, 1e5, 1e6} and record BENCH_scale.json (see docs/SCALE.md).
# The committed reference requires the Q=1e6 plan under one second.
bench-scale:
	$(GO) run ./cmd/helcfl bench-scale -scale-out BENCH_scale.json -budget-sec 1.0

# In-tree static analysis (internal/lint): determinism, map-order,
# float-comparison, durability, context-flow, allocation, span-lifecycle,
# lock-discipline, goroutine-lifecycle, and wire-codec invariants. Exit is
# nonzero on any finding not covered by a justified //helcfl:allow, and
# (-stale) on any allow directive that no longer suppresses anything.
# See docs/STATIC_ANALYSIS.md.
lint:
	$(GO) run ./cmd/helcfl-lint -stale ./...

check: build vet fmt lint race
