# Developer entry points. `make check` is what CI (and the PR checklist)
# runs: vet, build, race-enabled tests, and the proof that disabled
# telemetry costs zero allocations.

GO ?= go

.PHONY: all check vet build lint test bench-selftest bench-telemetry bench bench-e2e coverage-product fuzz fuzz-zns fuzz-faults clean

all: check

check: vet build lint test bench-selftest bench-telemetry

vet:
	$(GO) vet ./...

# The Windows build compiles the heap twin of zkv's slab chunks (slab_other.go),
# which no Unix build does.
build:
	$(GO) build ./...
	GOOS=windows $(GO) build ./...

# Project-specific static analysis (docs/static-analysis.md): determinism
# (no wall clock/global rand/map-order leaks), concurrency (sim core is a
# single-threaded virtual-time loop), tickunit (no time.Duration in tick
# arithmetic). Diffs against the committed baseline —
# LINT_BASELINE.json holds the accepted findings (currently none) — and fails
# on anything new AND on stale entries, so suppression debt can only shrink
# deliberately.
lint:
	$(GO) run ./cmd/simlint -baseline LINT_BASELINE.json ./...

test:
	$(GO) test -race ./...

# bench/ is a nested module (bench/go.mod), so `go test ./...` and `make
# lint` at the root never descend into it: run its tests and lint it here.
bench-selftest:
	cd bench && $(GO) test ./... && $(GO) run blockhead/cmd/simlint ./...

# The telemetry layer's contract: with no probe attached, every instrument
# (including the latency-attribution sink, the zone state-machine auditor,
# and the flight recorder) is a nil no-op — 0 allocs/op. A regression here
# slows every simulation. Armed, one measured IO through every fold an
# experiment attaches allocates nothing either (TestArmedIOZeroAllocs), and
# BenchmarkArmedIO prints what it costs.
#
# The same holds for what every event-driven run pays per event and per
# latency sample: sim.Loop's schedule+dispatch allocates nothing once the
# queue has its depth, and stats.Dist.Add allocates one 16 KiB chunk per
# 4096 samples under 2^32 ns, four bytes each (TestDistBytesPerSample). An
# armed run's critical-path reservoir holds each sampled path in at most
# 96 B (TestRecorderBytesPerPath). The pins run without -race, where
# allocation counts are exact.
#
# And for what every LSM run pays per table: zkv's one table builder adds
# entries and seals them into a blob without allocating once it has built a
# table (DoesNotRegrow); the devices keep each table in segments of at most
# 32 KiB with no spare capacity, every full one a slot of the backend's slab
# outside the Go heap and the last one an exact-size heap allocation
# (HasNoSlack); a table read, one ReadAt per segment, allocates nothing, and
# a merge or a Get copies an entry that straddles a cut into reused spill
# buffers, so a Get allocates only the value it returns (DoesNotAllocate).
#
# And for what an aged device pays per host write: a reclaiming write through
# either stack (victim pick, relocation, erase or zone reset) allocates
# nothing, and the two benchmarks print its cost and copies/op at femu256,
# where the mapping tables outgrow the caches.
bench-telemetry:
	$(GO) test -run='^$$' -bench='ProbeDisabled|ProbeEnabled|ArmedIO' -benchmem ./internal/telemetry/ ./internal/telemetry/critpath/ ./internal/telemetry/exemplar/ ./internal/zns/ ./internal/fault/
	$(GO) test -run='DoesNotAllocate|DoNotAllocate|DoesNotRegrow|HasNoSlack|BytesPerSample|BytesPerPath' -bench='^Benchmark(Loop|DistAddSummary|TableBuilder|TableRead|CompactLevel|GetHit|GetBloomMiss|FTLGCWrite|HostFTLReclaimWrite)$$' -benchmem ./internal/sim/ ./internal/stats/ ./internal/zkv/ ./internal/ftl/ ./internal/hostftl/ ./internal/zalloc/ ./internal/telemetry/critpath/

# The full per-table benchmark suite (slow; custom metrics carry results).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# The repository benchmark end to end (bench/README.md): every workload in a
# process of its own, or only W=<workload> as the driver runs it. OUT names
# the whole-set result file.
OUT ?= /tmp/blockhead-bench-e2e.json
bench-e2e:
ifdef W
	bash bench/run.sh --workload $(W) --seed 42 --seconds 10 --trace 0
else
	bash bench/run.sh -repeat 1 -out $(OUT)
endif

# The product-coverage audit: machinery stays only if the product runs it.
# Builds the two CLIs with coverage of every package in the module, runs
# the invocations that define the product (the README quick start, the
# benchmark JSON, the fault and SLO campaigns, -explain, -whatif, zonectl
# and its inspect views), and fails on any non-test function they never
# execute — or any package they never link — that COVERAGE_ALLOWLIST does
# not name, one line each, with a caller outside the CLIs or the question it
# answers. An entry for something the product now
# runs, or that is gone, fails too, so the list can only shrink deliberately.
COVDIR ?= .coverage-product
coverage-product:
	rm -rf $(COVDIR) && mkdir -p $(COVDIR)/bin $(COVDIR)/data $(COVDIR)/out
	$(GO) build -cover -coverpkg=blockhead/... -o $(COVDIR)/bin/ ./cmd/znsbench ./cmd/zonectl
	@set -e; export GOCOVERDIR=$(COVDIR)/data; b=$(COVDIR)/bin; o=$(COVDIR)/out; \
	run() { echo "  $$*"; "$$@" > /dev/null; }; \
	run $$b/znsbench; \
	run $$b/znsbench -quick -run E2,E5; \
	run $$b/znsbench -list; \
	run $$b/znsbench -run E1; \
	run $$b/znsbench -run E4,E6 -bench-json $$o/bench.json; \
	run $$b/znsbench -slo -run E14 -bench-json $$o/bench_slo.json; \
	run $$b/znsbench -run E4,E13; \
	run $$b/znsbench -faults default -run E13; \
	run $$b/znsbench -seed 42 -faults default -slo; \
	run $$b/znsbench -quick -run E4; \
	run $$b/znsbench -quick -run E4 -whatif zone_reset:0; \
	run $$b/znsbench -quick -run E6; \
	run $$b/znsbench -quick -whatif zone_reset:0,wp_serial:0 -run E4; \
	run $$b/znsbench -quick -explain E6:926; \
	run $$b/zonectl -ops "append:0,append:0,finish:1,reset:0"; \
	run $$b/zonectl inspect -ops "append:0,append:0,finish:1,reset:0"; \
	run $$b/zonectl inspect -json -ops "append:0,append:0,finish:1,reset:0"
	@$(GO) tool covdata func -i=$(COVDIR)/data | \
		awk '$$NF == "0.0%" { sub(/^blockhead\//, "", $$1); sub(/:[0-9]+:$$/, "", $$1); print $$1 ":" $$2 }' > $(COVDIR)/unrun
	@$(GO) tool covdata pkglist -i=$(COVDIR)/data | sort > $(COVDIR)/linked
	@$(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./... | sort | comm -23 - $(COVDIR)/linked | sed 's|^blockhead/||' >> $(COVDIR)/unrun
	@sort -u -o $(COVDIR)/unrun $(COVDIR)/unrun
	@awk '!/^#/ && NF == 1 { print "COVERAGE_ALLOWLIST: " $$1 " names no caller or question"; bad = 1 } END { exit bad }' COVERAGE_ALLOWLIST
	@awk '!/^#/ && NF { print $$1 }' COVERAGE_ALLOWLIST | sort > $(COVDIR)/allowed
	@comm -23 $(COVDIR)/unrun $(COVDIR)/allowed | sed 's/^/never run by the product: /' > $(COVDIR)/report
	@comm -13 $(COVDIR)/unrun $(COVDIR)/allowed | sed 's/^/stale COVERAGE_ALLOWLIST entry (run by the product, or gone): /' >> $(COVDIR)/report
	@if [ -s $(COVDIR)/report ]; then cat $(COVDIR)/report; exit 1; fi
	@echo "coverage-product: $$(wc -l < $(COVDIR)/allowed) allowlisted, nothing else unrun"

# Short fuzz passes over the parsers of outside input: the -whatif flag's
# scenario parser and zkv's table blobs (a whole table, and a bare entry
# region).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseScenario -fuzztime=30s ./internal/telemetry/critpath/
	$(GO) test -run='^$$' -fuzz=FuzzParseTable -fuzztime=30s ./internal/zkv/
	$(GO) test -run='^$$' -fuzz=FuzzBlobIter -fuzztime=30s ./internal/zkv/

# Short fuzz pass over the ZNS zone state machine (auditor attached).
fuzz-zns:
	$(GO) test -run='^$$' -fuzz=FuzzZoneStateMachine -fuzztime=30s ./internal/zns/

# Short fuzz passes over the differential fault harness: random
# (seed, profile, crash point) schedules against the integrity oracle and
# the zone state-machine auditor, both stacks; then random (seed, worker
# count, crash point) schedules with both stacks as parts under runParts,
# whose oracle verdicts must match the direct calls exactly.
fuzz-faults:
	$(GO) test -run='^$$' -fuzz=FuzzFaultSchedule -fuzztime=30s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzShardSchedule -fuzztime=30s ./internal/core/

clean:
	$(GO) clean ./...
	rm -f trace.json metrics.json cpu.pprof
	rm -rf .bench_build .coverage-product
