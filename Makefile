# drbac — build, test, and experiment targets.

GO ?= go

.PHONY: all check build vet staticcheck test test-race race cover cover-check surface bench bench-smoke bench-json bench-diff bench-load fuzz sim sim-cluster-smoke sim-dht-smoke examples clean

# Aggregate coverage floor enforced by cover-check (CI). Raise it as
# coverage grows; never lower it to admit an under-tested change.
COVER_FLOOR ?= 70.0
COVER_PKG_FLOOR ?= 80.0
COVER_PKGS = internal/wallet internal/logstore internal/graph internal/core internal/replica internal/remote

all: build vet test

# The default verification gate: build, vet, staticcheck, tests, the
# race detector, and the bounded cluster and DHT smokes.
check: build vet staticcheck test test-race sim-cluster-smoke sim-dht-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Runs staticcheck when it is on PATH, and skips with a notice otherwise so
# `make check` stays usable on machines without it. CI installs it and so
# always enforces this gate.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI enforces it)"; \
	fi

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

race: test-race

cover:
	$(GO) test -cover ./...

# Fail if total statement coverage drops below COVER_FLOOR percent, or if any
# of COVER_PKGS — the packages the safety property (no proof rests on a
# revoked, expired or unsupported delegation) lives in, and internal/remote,
# where who may be sent what is enforced — drops below
# COVER_PKG_FLOOR on its own tests, a hole the aggregate could hide.
cover-check:
	$(GO) test -coverprofile=cover.out ./... > cover.txt
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/{sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN{exit !(t+0 >= f+0)}' || \
		{ echo "coverage $$total% is below floor $(COVER_FLOOR)%"; rm -f cover.out cover.txt; exit 1; }
	@for p in $(COVER_PKGS); do \
		pct=$$(awk -v p="drbac/$$p" '$$2 == p { for (i = 3; i < NF; i++) if ($$i == "coverage:") { sub(/%/, "", $$(i+1)); print $$(i+1) } }' cover.txt); \
		echo "$$p coverage: $$pct% (floor: $(COVER_PKG_FLOOR)%)"; \
		awk -v t="$$pct" -v f="$(COVER_PKG_FLOOR)" 'BEGIN{exit !(t != "" && t+0 >= f+0)}' || \
			{ echo "$$p coverage $$pct% is below floor $(COVER_PKG_FLOOR)%"; rm -f cover.out cover.txt; exit 1; }; \
	done
	@rm -f cover.out cover.txt

# The numbers a simplification round steers by: drbacd flags (also pinned
# by cmd/drbacd/testdata/flags.golden), internal packages, non-test Go lines
# outside bench/, and metric families named in internal/obs/help.go's table
# (families registered through SetHelp, the per-SLO gauges, are not in it).
# Quote before → after in CHANGES.md.
surface:
	@echo "drbacd flags:       $$(grep -c . cmd/drbacd/testdata/flags.golden)"
	@echo "internal packages:  $$($(GO) list ./internal/... | wc -l)"
	@echo "non-test Go lines:  $$(git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' | xargs cat | wc -l)"
	@echo "metric families:    $$(grep -c '^		"drbac_[a-z0-9_]*":' internal/obs/help.go)"

bench:
	$(GO) test -bench=. -benchmem .

# Compile every benchmark and run each for exactly one iteration: catches
# benchmarks that no longer build or crash immediately, without paying for a
# real measurement run. CI runs this on every push.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# --- benchmark-regression gate --------------------------------------------
#
# bench-json runs the root-package benchmarks BENCH_COUNT times and distills
# the output to BENCH_<utc-date>.json via cmd/benchdiff -emit: one record per
# benchmark holding the minimum ns/op across samples (minima are far less
# noisy than means on shared CI hosts) plus B/op and allocs/op.
#
# bench-diff compares that file against the committed BENCH_baseline.json
# and exits nonzero when any benchmark present in both regresses more than
# BENCH_THRESHOLD percent in ns/op, or more than BENCH_ALLOC_THRESHOLD
# percent in allocs/op (allocation counts are deterministic per build, so
# that gate is far tighter than the timing one). New and removed benchmarks
# are reported but never fail the gate. CI runs both; the gate is advisory
# on pull requests and blocking on main. To accept an intended slowdown (or
# bank an optimization), regenerate the baseline on a quiet machine and
# commit it:
#
#	make bench-json && cp BENCH_$$(date -u +%Y-%m-%d).json BENCH_baseline.json
BENCH_COUNT ?= 3
BENCH_THRESHOLD ?= 25
BENCH_ALLOC_THRESHOLD ?= 5
BENCH_OUT = BENCH_$(shell date -u +%Y-%m-%d).json

bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) . \
		| $(GO) run ./cmd/benchdiff -emit -out $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

bench-diff:
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json \
		-current $(BENCH_OUT) -threshold $(BENCH_THRESHOLD) \
		-alloc-threshold $(BENCH_ALLOC_THRESHOLD)

# The end-to-end load benchmark BENCHMARK.json declares (bench/README.md):
# all five workloads over loopback TCP, about a minute each.
bench-load:
	bash bench/run.sh --workload all

fuzz:
	$(GO) test -fuzz=FuzzParseDelegation -fuzztime=30s ./internal/core
	$(GO) test -fuzz=FuzzLogRecordDecode -fuzztime=30s ./internal/logstore
	$(GO) test -fuzz=FuzzMessageDecode -fuzztime=60s ./internal/wire
	$(GO) test -fuzz=FuzzRecordVerify -fuzztime=30s ./internal/dht

# Regenerate the blocks EXPERIMENTS.md fences as coalition-sim output (all
# but the two bounded smokes below); `go test ./cmd/coalition-sim` checks them.
sim:
	$(GO) run ./cmd/coalition-sim -exp all

# Bounded-time end-to-end smoke over a 4-shard cluster (§12): routed
# publishes, a scatter-gather object query, a cross-shard proof, and a
# mid-traffic split. The runner self-bounds at 60s; finishes in well
# under a second on a healthy build.
sim-cluster-smoke:
	$(GO) run ./cmd/coalition-sim -exp clustersmoke

# Bounded-time end-to-end smoke over a 6-wallet DHT coalition (§13):
# bootstrap off one seed, announce, resolve a three-wallet chain with no
# static addresses, survive the seed dying and a home moving. The runner
# self-bounds at 120s; finishes in well under a second on a healthy build.
sim-dht-smoke:
	$(GO) run ./cmd/coalition-sim -exp dhtsmoke

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/attributes
	$(GO) run ./examples/coalition
	$(GO) run ./examples/monitoring
	$(GO) run ./examples/resource-server

clean:
	$(GO) clean ./...
