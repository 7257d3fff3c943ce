# Developer entry points. `make check` is what CI (and the PR checklist)
# runs: vet, build, race-enabled tests, and the proof that disabled
# telemetry costs zero allocations.

GO ?= go

.PHONY: all check vet build lint lint-fix-dryrun test bench-selftest bench-telemetry bench bench-e2e bench-compare fuzz fuzz-zns fuzz-faults fault-campaign slo-campaign whatif-campaign explain-campaign update-golden clean

all: check

check: vet build lint test bench-selftest bench-telemetry fault-campaign slo-campaign whatif-campaign explain-campaign

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Project-specific static analysis (docs/static-analysis.md): determinism
# (no wall clock/global rand/map-order leaks), concurrency (sim core is a
# single-threaded virtual-time loop), nilguard (nil instruments are no-ops),
# tickunit (no time.Duration in tick arithmetic), pairing (AttrSink brackets
# close on every path), exhaustive (zone-state switches and the experiment
# registry are complete). Diffs against the committed baseline —
# LINT_BASELINE.json holds the accepted findings (currently none) — and fails
# on anything new AND on stale entries, so suppression debt can only shrink
# deliberately.
lint:
	$(GO) run ./cmd/simlint -baseline LINT_BASELINE.json ./...

# Triage helper: list the findings the tool could fix mechanically (nilguard
# inserts, missing switch cases) with the edit each would get. Never edits.
lint-fix-dryrun:
	$(GO) run ./cmd/simlint -fix-dryrun ./...

test:
	$(GO) test -race ./...

# bench/ is a nested module (bench/go.mod), so `go test ./...` and `make
# lint` at the root never descend into it: run its tests and lint it here.
bench-selftest:
	cd bench && $(GO) test ./... && $(GO) run blockhead/cmd/simlint ./...

# The telemetry layer's contract: with no probe attached, every instrument
# (including the latency-attribution sink, the zone state-machine auditor,
# and the flight recorder) is a nil no-op — 0 allocs/op. A regression here
# slows every simulation.
#
# The same holds for what every event-driven run pays per event and per
# latency sample: sim.Loop's schedule+dispatch allocates nothing once the
# queue has its depth, and stats.Dist.Add allocates one chunk per 4096
# samples. The pins run without -race, where allocation counts are exact.
#
# And for what every LSM run pays per table: zkv's one table builder adds
# entries without allocating once it has built a table, and the blob it
# hands the devices carries no spare capacity for them to pin.
#
# And for what an aged device pays per host write: a reclaiming write through
# either stack (victim pick, relocation, erase or zone reset) allocates
# nothing, and the two benchmarks print its cost and copies/op at femu256,
# where the mapping tables outgrow the caches.
bench-telemetry:
	$(GO) test -run='^$$' -bench=ProbeDisabled -benchmem ./internal/telemetry/ ./internal/telemetry/critpath/ ./internal/telemetry/exemplar/ ./internal/zns/ ./internal/fault/
	$(GO) test -run='DoesNotAllocate|DoesNotRegrow|HasNoSlack' -bench='^Benchmark(Loop|DistAddSummary|TableBuilder|CompactLevel|GetHit|GetBloomMiss|FTLGCWrite|HostFTLReclaimWrite)$$' -benchmem ./internal/sim/ ./internal/stats/ ./internal/zkv/ ./internal/ftl/ ./internal/hostftl/

# Regenerate the pinned JSON schemas served by /metrics.json and
# /attribution.json after a deliberate schema change.
update-golden:
	$(GO) test ./internal/telemetry/httpserve/ -update

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

# Rerun the committed benchmark suite (full E4+E6) and gate against the
# committed baseline. The 25% threshold leaves room for modeling changes
# while catching order-of-magnitude regressions; tighten per-investigation
# with `go run ./cmd/benchdiff -threshold ...`.
bench-compare:
	$(GO) run ./cmd/znsbench -run E4,E6 -bench-json /tmp/blockhead-bench-new.json > /dev/null
	$(GO) run ./cmd/benchdiff -threshold 0.25 BENCH_attribution.json /tmp/blockhead-bench-new.json
	$(GO) run ./cmd/benchdiff -threshold 0.001 BENCH_attribution.json BENCH_faults.json
	$(GO) run ./cmd/benchdiff -threshold 0.001 BENCH_critpath.json /tmp/blockhead-bench-new.json
	$(GO) run ./cmd/benchdiff -threshold 0.001 BENCH_exemplars.json /tmp/blockhead-bench-new.json
	$(GO) run ./cmd/znsbench -slo -run E14 -bench-json /tmp/blockhead-bench-slo.json > /dev/null
	$(GO) run ./cmd/benchdiff -threshold 0.25 BENCH_slo.json /tmp/blockhead-bench-slo.json

# The fault campaign's acceptance bar (docs/faults.md): the same seed and
# profile reproduce the E13 report bit-for-bit — NAND faults, the power
# loss, and both stacks' recoveries included.
fault-campaign:
	$(GO) run ./cmd/znsbench -quick -faults default -run E13 > /tmp/blockhead-e13-a.txt
	$(GO) run ./cmd/znsbench -quick -faults default -run E13 > /tmp/blockhead-e13-b.txt
	cmp /tmp/blockhead-e13-a.txt /tmp/blockhead-e13-b.txt

# The SLO campaign's acceptance bar: the same seed reproduces the E14
# noisy-neighbor report bit-for-bit — per-tenant breakdowns, the blame
# matrix with its exact conservation line, and the SLO verdicts included.
slo-campaign:
	$(GO) run ./cmd/znsbench -quick -slo -run E14 > /tmp/blockhead-e14-a.txt
	$(GO) run ./cmd/znsbench -quick -slo -run E14 > /tmp/blockhead-e14-b.txt
	cmp /tmp/blockhead-e14-a.txt /tmp/blockhead-e14-b.txt

# The what-if campaign's acceptance bar: a counterfactual run (scaled
# timing parameters + write-pointer early ack) reproduces its report
# bit-for-bit — the early-ack path is computed from device state alone, so
# probes cannot perturb the schedule.
whatif-campaign:
	$(GO) run ./cmd/znsbench -quick -whatif zone_reset:0,wp_serial:0 -run E4 > /tmp/blockhead-whatif-a.txt
	$(GO) run ./cmd/znsbench -quick -whatif zone_reset:0,wp_serial:0 -run E4 > /tmp/blockhead-whatif-b.txt
	cmp /tmp/blockhead-whatif-a.txt /tmp/blockhead-whatif-b.txt

# The explain campaign's acceptance bar (docs/observability.md): the
# forensic replay of one measured IO — timeline, blame, device state, and
# what-if verdicts — reproduces byte-for-byte across two runs, because the
# narrative is a pure function of (seed, experiment, sequence number).
explain-campaign:
	$(GO) run ./cmd/znsbench -quick -explain E6:926 > /tmp/blockhead-explain-a.txt
	$(GO) run ./cmd/znsbench -quick -explain E6:926 > /tmp/blockhead-explain-b.txt
	cmp /tmp/blockhead-explain-a.txt /tmp/blockhead-explain-b.txt

# Short fuzz passes over the parsers of outside bytes: the trace decoder
# and zkv's table blobs (a whole table, and a bare entry region).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=30s ./internal/trace/
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
	rm -rf .bench_build
