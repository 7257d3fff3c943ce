# Developer entry points. `make check` is what CI (and the PR checklist)
# runs: vet, build, race-enabled tests, and the proof that disabled
# telemetry costs zero allocations.

GO ?= go

.PHONY: all check vet build lint lint-affinity lint-fix-dryrun test bench-selftest bench-telemetry bench bench-e2e bench-compare bench-shards fuzz fuzz-zns fuzz-faults fuzz-shards fault-campaign slo-campaign whatif-campaign explain-campaign shard-campaign update-golden clean

all: check

check: vet build lint lint-affinity test bench-selftest bench-telemetry fault-campaign slo-campaign whatif-campaign explain-campaign shard-campaign

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Project-specific static analysis (docs/static-analysis.md): determinism
# (no wall clock/global rand/map-order leaks), concurrency (sim core is a
# single-threaded virtual-time loop), nilguard (nil instruments are no-ops),
# tickunit (no time.Duration in tick arithmetic), shardcheck (per-LUN code
# only writes shard-keyed state), pairing (AttrSink brackets close on every
# path), exhaustive (zone-state switches and the experiment registry are
# complete). Diffs against the committed baseline — LINT_BASELINE.json holds
# the accepted findings (currently none) — and fails on anything new AND on
# stale entries, so suppression debt can only shrink deliberately.
lint:
	$(GO) run ./cmd/simlint -baseline LINT_BASELINE.json ./...

# The shard-affinity report is the parallel core's carve-out contract: which
# state is per-channel/per-LUN/per-block (shardable), which is deliberately
# shared, and which functions run on per-LUN paths. Its acceptance bar is
# the same as every campaign's: two fresh runs reproduce it byte-for-byte.
lint-affinity:
	$(GO) run ./cmd/simlint -affinity ./internal/sim ./internal/flash > /tmp/blockhead-affinity-a.txt
	$(GO) run ./cmd/simlint -affinity ./internal/sim ./internal/flash > /tmp/blockhead-affinity-b.txt
	cmp /tmp/blockhead-affinity-a.txt /tmp/blockhead-affinity-b.txt
	cat /tmp/blockhead-affinity-a.txt

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
bench-telemetry:
	$(GO) test -run='^$$' -bench=ProbeDisabled -benchmem ./internal/telemetry/ ./internal/telemetry/critpath/ ./internal/telemetry/exemplar/ ./internal/zns/ ./internal/fault/
	$(GO) test -run='DoesNotAllocate|DoesNotRegrow|HasNoSlack' -bench='^Benchmark(Loop|DistAddSummary|TableBuilder|CompactLevel|GetHit|GetBloomMiss)$$' -benchmem ./internal/sim/ ./internal/stats/ ./internal/zkv/

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
	$(GO) run ./cmd/znsbench -shards 4 -run E4,E6 -bench-json /tmp/blockhead-bench-shards.json > /dev/null
	$(GO) run ./cmd/benchdiff -threshold 0.001 /tmp/blockhead-bench-new.json /tmp/blockhead-bench-shards.json

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

# The parallel core's acceptance bar (docs/parallel-sim.md): the same seed
# renders byte-identical reports whatever the -shards count — the serial
# loop at 1 is the reference, the shard scheduler at 2 and 4 must reproduce
# it exactly. TestShardEquivalence covers every experiment under -race; this
# campaign pins the shipped binary end to end.
shard-campaign:
	$(GO) run ./cmd/znsbench -quick -shards 1 -run E4,E13,E14 -slo -faults default > /tmp/blockhead-shards-1.txt
	$(GO) run ./cmd/znsbench -quick -shards 2 -run E4,E13,E14 -slo -faults default > /tmp/blockhead-shards-2.txt
	$(GO) run ./cmd/znsbench -quick -shards 4 -run E4,E13,E14 -slo -faults default > /tmp/blockhead-shards-4.txt
	cmp /tmp/blockhead-shards-1.txt /tmp/blockhead-shards-2.txt
	cmp /tmp/blockhead-shards-1.txt /tmp/blockhead-shards-4.txt

# Wall-clock scaling of the shard scheduler on E4/E6 (the experiments whose
# parts dominate run time), committed as BENCH_shards.json. Honest numbers:
# on a single-CPU host the lanes time-slice one core and the speedup is ~1x;
# see docs/parallel-sim.md for the scaling model.
bench-shards:
	$(GO) run ./cmd/znsbench -shards 1 -run E4,E6 -bench-json /tmp/blockhead-shards-serial.json > /dev/null
	$(GO) run ./cmd/znsbench -shards 4 -run E4,E6 -bench-json /tmp/blockhead-shards-par.json > /dev/null
	$(GO) run ./cmd/benchdiff -threshold 0.001 /tmp/blockhead-shards-serial.json /tmp/blockhead-shards-par.json

# Short fuzz passes over the parsers of outside bytes: the trace decoder
# and zkv's table blobs (a whole table, and a bare entry region).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=30s ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzParseTable -fuzztime=30s ./internal/zkv/
	$(GO) test -run='^$$' -fuzz=FuzzBlobIter -fuzztime=30s ./internal/zkv/

# Short fuzz pass over the ZNS zone state machine (auditor attached).
fuzz-zns:
	$(GO) test -run='^$$' -fuzz=FuzzZoneStateMachine -fuzztime=30s ./internal/zns/

# Short fuzz pass over the differential fault harness: random
# (seed, profile, crash point) schedules against the integrity oracle and
# the zone state-machine auditor, both stacks.
fuzz-faults:
	$(GO) test -run='^$$' -fuzz=FuzzFaultSchedule -fuzztime=30s ./internal/core/

# Short fuzz pass over the parallel scheduler: random (seed, lane count,
# crash point) schedules run both fault-campaign stacks serially and as
# shard lanes; the oracle verdicts must match exactly.
fuzz-shards:
	$(GO) test -run='^$$' -fuzz=FuzzShardSchedule -fuzztime=30s ./internal/core/

clean:
	$(GO) clean ./...
	rm -f trace.json metrics.json cpu.pprof
	rm -rf .bench_build
