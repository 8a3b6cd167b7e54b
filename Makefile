GO ?= go

.PHONY: check vet vet-cross build test race examples bench bench-proxy bench-gate bench-module lint cover cover-func fuzz corpus corpus-check nightly-chaos

# The full gate: everything a change must pass before it lands.
check: vet vet-cross build race examples bench-proxy bench-module

vet:
	$(GO) vet ./...

# The checksum kernel and the storage node's streaming copy each have an
# amd64 assembly body and a portable fallback behind a !amd64 build
# constraint, which an amd64 build never compiles. Cross-vetting for arm64
# (the toolchain needs nothing downloaded for it) keeps the fallbacks and
# the fabric that calls the checksum building.
vet-cross:
	GOARCH=arm64 $(GO) vet ./internal/checksum/ ./internal/netsim/ ./internal/storage/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run every example end to end; each exits non-zero on a wrong result and
# all of them finish in seconds.
examples:
	@for d in examples/*/; do \
	    echo "== $$d"; $(GO) run ./$$d > /dev/null || exit 1; \
	done

# Short run of every benchmark, as a smoke test.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The contended data-path benchmarks (compare against BENCH_proxy.json).
bench-proxy:
	$(GO) test -run xxx -bench 'ProxyForward|CacheHit' -benchmem -benchtime 1s -cpu 1,4 .

# benchmark/ is a module of its own (it is what BENCHMARK.json runs), so
# `./...` from the root neither vets, builds nor tests it: an API change
# here that breaks it would surface only when the benchmark pipeline fails
# to build. Its smoke tests take a few seconds.
bench-module:
	cd benchmark && $(GO) vet . && $(GO) test .

# Benchmark regression gate: repeated short runs of the gated data-path
# benchmarks, reduced to their minimum and compared against the
# checked-in baselines. Allocation counts are held exactly (the forward
# path must stay 0 allocs/op, a LOOKUP pair 0, a NULL RPC 0 and a storage
# object's write/commit/remove cycle 22; the bulk path's budgets carry
# headroom in BENCH_bulkio.json); ns/op gets
# BENCH_TOLERANCE headroom for machine noise. The bench*.out files are
# kept for CI artifact upload. The bulk benchmarks run at -cpu 4 only (the
# windowed fan-out needs GOMAXPROCS>1 to overlap) and a few long
# iterations, not thousands of short ones.
#
# Each row of the loop is BENCH_COUNT `go test -bench -count 1` passes
# over one group of benchmarks: output file, baseline, -benchtime, -cpu,
# packages (comma-separated) and the -bench regexp. A pass samples every
# benchmark of the row once, so each min-of-BENCH_COUNT, and both sides
# of a ratio rule, are drawn from across the whole row's run rather than
# from back-to-back samples one burst of host load can cover.
BENCH_COUNT ?= 6
BENCH_TIME ?= 20000x
BENCH_BULK_TIME ?= 3x
BENCH_REPLICA_TIME ?= 2000x
BENCH_WIRE_TIME ?= 3x
BENCH_REBALANCE_TIME ?= 2x
BENCH_TOLERANCE ?= 2.5
bench-gate:
	@set -f; for row in \
	    "bench.out BENCH_proxy.json $(BENCH_TIME) 1,4 .,./internal/checksum/ ProxyForward|ProxyBulkReply|ProxyHandleRead|ProxyLookupPair|RPCNullCall|CacheHit|ChecksumSum" \
	    "bench_bulk.out BENCH_bulkio.json $(BENCH_BULK_TIME) 4 . BenchmarkBulk(Read|Write)|BenchmarkStorageChurn(Cold)?|BenchmarkWriteBehind64K" \
	    "bench_replica.out BENCH_replica.json $(BENCH_REPLICA_TIME) 4 . BenchmarkReplicaRead" \
	    "bench_wire.out BENCH_wire.json $(BENCH_WIRE_TIME) 4 . BenchmarkWire(Read|Write)" \
	    "bench_rebalance.out BENCH_rebalance.json $(BENCH_REBALANCE_TIME) 4 . BenchmarkRebalanceThroughput"; do \
	    set -- $$row; \
	    echo "bench-gate: $(BENCH_COUNT) × -bench '$$6' -benchtime $$3 -cpu $$4 > $$1"; \
	    : > $$1; \
	    for pass in $$(seq $(BENCH_COUNT)); do \
	        $(GO) test -run xxx -bench "$$6" -benchmem \
	            -benchtime $$3 -count 1 -cpu $$4 $$(echo $$5 | tr , ' ') >> $$1 \
	            || { cat $$1; exit 1; }; \
	    done; \
	    $(GO) run ./cmd/benchgate -baseline $$2 -input $$1 -tolerance $(BENCH_TOLERANCE) || exit 1; \
	done

# Static analysis beyond vet. The tools are not vendored: offline
# checkouts skip a missing tool with a note, but under CI=1 a missing
# tool is an error — the lint job must never silently pass because an
# install step broke.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
	    staticcheck ./... ; \
	elif [ -n "$(CI)" ]; then \
	    echo "lint: staticcheck not installed (required under CI=1)"; exit 1; \
	else echo "lint: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
	    govulncheck ./... ; \
	elif [ -n "$(CI)" ]; then \
	    echo "lint: govulncheck not installed (required under CI=1)"; exit 1; \
	else echo "lint: govulncheck not installed; skipping"; fi

# Coverage with a floor: the suite must keep covering at least
# COVER_FLOOR% of statements overall, and two correctness-critical
# packages must also meet per-package floors on their own —
# cross-package chaos tests don't count toward them: internal/replica
# (replica map + peer program) and internal/rebalance (online block
# migration; its floor is higher because a missed branch there is lost
# data, not a missed optimization). Each row of the loop is (label,
# floor, coverage); a package missing from the log reads as 0%.
COVER_FLOOR ?= 65
REBAL_COVER_FLOOR ?= 80
cover:
	@$(GO) test -coverprofile=cover.out -covermode=atomic ./... > cover.log 2>&1 \
	    || { cat cover.log; exit 1; }
	@cat cover.log
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/,"",$$3); print $$3 }'); \
	pkg() { awk -v p="slice/$$1" '$$2 == p { for (i=3;i<=NF;i++) if ($$i ~ /%$$/) { sub(/%/,"",$$i); print $$i } }' cover.log; }; \
	fail=0; \
	for row in "total $(COVER_FLOOR) $$total" \
	    "internal/replica $(COVER_FLOOR) $$(pkg internal/replica)" \
	    "internal/rebalance $(REBAL_COVER_FLOOR) $$(pkg internal/rebalance)"; do \
	    set -- $$row; \
	    awk -v l="$$1" -v f="$$2" -v t="$$3" 'BEGIN { \
	        if (t+0 < f+0) { printf "cover: %s %.1f%% is below the %s%% floor\n", l, t, f; exit 1 } \
	        printf "cover: %s %.1f%% >= %s%% floor\n", l, t, f }' || fail=1; \
	done; exit $$fail

# Functions no tier-1 test reaches, outside cmd/, tools/ and examples/,
# under -coverpkg=./... (so a function reached only from another
# package's tests counts as reached). COVER_FUNC.txt is the checked-in
# list, kept exact: a function that joins it fails the target, and so does
# one that left it (now tested, or deleted) while the list still names it.
cover-func:
	@$(GO) test -count=1 -coverpkg=./... -coverprofile=cover_func.out ./... > cover_func.log 2>&1 \
	    || { cat cover_func.log; exit 1; }
	@$(GO) tool cover -func=cover_func.out \
	    | awk '$$NF == "0.0%" && $$1 !~ /^slice\/(cmd|tools|examples)\// { sub(/:[0-9]+:$$/, "", $$1); print $$1, $$2 }' \
	    | LC_ALL=C sort -u > cover_func.now
	@joined=$$(LC_ALL=C comm -13 COVER_FUNC.txt cover_func.now); \
	left=$$(LC_ALL=C comm -23 COVER_FUNC.txt cover_func.now); \
	if [ -n "$$left" ]; then printf 'cover-func: reached or deleted, remove from COVER_FUNC.txt:\n%s\n' "$$left"; fi; \
	if [ -n "$$joined" ]; then printf 'cover-func: no test reaches these new entries:\n%s\n' "$$joined"; fi; \
	if [ -n "$$left$$joined" ]; then exit 1; fi; \
	echo "cover-func: COVER_FUNC.txt is exactly the $$(wc -l < cover_func.now) functions no test reaches"

# The nightly chaos matrix, locally: the whole chaos suite plus the
# chaos_long elastic-topology scenarios, across {udp,tcp} transports and
# {1,3}-way replication under the race detector. CI runs the same matrix
# with -count 3 (.github/workflows/nightly.yml).
nightly-chaos:
	@for t in udp tcp; do for k in 1 3; do \
	    echo "== chaos matrix: transport=$$t replication=$$k =="; \
	    CHAOS_TRANSPORT=$$t CHAOS_REPLICATION=$$k \
	    $(GO) test -tags chaos_long -race -count 1 ./internal/chaos/ || exit 1; \
	done; done

# Regenerate the checked-in fuzz seed corpora (testdata/fuzz/...).
corpus:
	$(GO) run ./tools/gencorpus

# The checked-in seed corpora are exactly what tools/gencorpus writes: a
# change to a wire format the seeds encode fails here until the corpora
# are regenerated and added with it (a seed the generator rewrote shows
# as modified, one it newly wrote as untracked, one it no longer writes
# as deleted).
corpus-check: corpus
	@stale=$$(git diff --name-status -- '*/testdata/fuzz/*'; \
	    git ls-files --others --exclude-standard -- '*/testdata/fuzz/*'); \
	if [ -n "$$stale" ]; then \
	    printf 'corpus-check: tools/gencorpus does not reproduce the checked-in seed corpora:\n%s\n' "$$stale"; exit 1; \
	fi; \
	echo "corpus-check: the seed corpora are what tools/gencorpus writes"

# Fixed-budget run of every fuzz target (the checksum kernel and the
# differential edits that must not launder corruption, wire parsers, the
# record-marking reader, the WAL scanner, and the routing-table
# transition machine).
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/checksum/ -run '^$$' -fuzz FuzzSum -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal/ -run '^$$' -fuzz FuzzScan -fuzztime $(FUZZTIME)
	$(GO) test ./internal/route/ -run '^$$' -fuzz FuzzTableTransition -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oncrpc/ -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nfsproto/ -run '^$$' -fuzz FuzzParseCall -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nfsproto/ -run '^$$' -fuzz FuzzParseMountPortmap -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netsim/ -run '^$$' -fuzz FuzzParseDatagram -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netsim/ -run '^$$' -fuzz FuzzDifferentialEdit -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzReadRecord -fuzztime $(FUZZTIME)
