# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race race-suites vet fmt-check deadcode bench bench-compile bench-smoke bench-json bench-alloc-guard experiments fuzz chaos chaos-soak examples clean

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...
	go test -run='^$$' -bench=BenchmarkNetServe -benchtime=1x .

# The full -race sweep, then the focused suites.
race:
	go test -race ./...
	@$(MAKE) --no-print-directory race-suites

# race-suite runs one focused suite under -race: $(1) the package, $(2) the
# selecting flag (-run or -bench), $(3) its pattern, $(4) further flags.
# Every alternative of the pattern must first select something in the
# package, so a renamed test fails the target instead of quietly leaving the
# race pass.
define race-suite
	@for alt in $(subst |, ,$(3)); do \
		go test -list "$$alt" $(1) | grep -qE '^(Test|Fuzz|Benchmark)' || \
			{ echo "race-suites: $$alt selects nothing in $(1)"; exit 1; }; \
	done
	go test -race $(2)='$(3)' $(4) $(1)
endef

# The hot serving paths (parallel UDP workers, hot cache, pooled wire
# buffers), the zone swap, the transfer planes and the coordinators, each
# at a higher count than the sweep gives them. CI runs this list.
race-suites:
	$(call race-suite,./internal/netserve/,-run,TestConcurrentMixedLoad|TestConcurrentUDPClients|TestHotCache|FuzzHotCacheVersions,-count=2)
	$(call race-suite,./internal/nameserver/,-run,TestHotCache|TestAnswerIntoMatchesAnswer,-count=2)
	$(call race-suite,./internal/netserve/,-run,TestViewServeWhileSwapping,-count=2)
	$(call race-suite,./internal/zone/,-run,TestSetSerialCopyOnWrite|TestViewInvalidation|TestZoneHeapPerZone|TestViewFootprint|TestStoreViewCounters|FuzzZoneModel|FuzzZoneArena|FuzzStoreModel|FuzzParseMasterParity,-count=2)
	$(call race-suite,./internal/zone/,-bench,BenchmarkView|BenchmarkParseMasterBenchZone,-run='^$$' -benchtime=1x)
	$(call race-suite,./internal/netserve/,-run,TestContainmentPanicStorm|TestQueryOfDeathDrill|TestSimSocketParity|TestStormProbeSuspends|TestSuspensionCapAcrossServers,-count=2)
	$(call race-suite,./internal/netserve/,-run,TestScrapeWhileServing|TestFlightForensicsEndToEnd,-count=2)
	$(call race-suite,./internal/netserve/,-run,TestBatchParity|TestBatchDrainWakes|TestUDPGroupSamePort|TestFiltersLearnOverSockets|TestHotZoneSeesNewNames|TestLoyaltyIgnoresSpoofedFlood|TestAdmittedOnce|TestOneSpanPerQuery|TestOneSamplingDecision|TestOneOutcomePerQuery|TestIXFRLargeDelta|TestSecondaryStatsWhileRefreshing,-count=2)
	go test -race -count=2 ./internal/udpbatch/
	$(call race-suite,./internal/udpbatch/,-run,TestReadWhileWrite,-count=10)
	$(call race-suite,./internal/filters/,-run,TestLoyaltyBounded|TestRateLimitBucketsBounded|TestHopCountBounded|TestNXDomainHotWhileScoring|TestFiltersConcurrencySafety,)
	$(call race-suite,./internal/monitor/,-run,TestCoordinatorRaceStress|TestCoordinatorQuorumUnionOverGrant,-count=2)
	$(call race-suite,./internal/ctlplane/,-run,TestChurnWhileServing|TestChurnPipelinedWhileServing|TestPublishOrderingUnderRace|TestApplyCatchesSameSerialSwap|TestReplanSameChangelist|TestApplyRevalidation|TestHistoryRecordsInInstallOrder,)
	$(call race-suite,./internal/propagate/,-run,TestPullLoopRace,-count=2)

# The second and third lines cross-compile the portable udpbatch.Conn, the
# only serving path off linux/{amd64,arm64}, which a native vet never builds.
vet:
	go vet ./...
	GOOS=darwin GOARCH=arm64 go vet ./...
	GOOS=linux GOARCH=386 go vet ./...

# Every Go file as gofmt would write it.
fmt-check:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# Exported names that no non-test code reached from a main package uses,
# and Config/Options fields that none sets outside its package's defaults,
# other than those deadcode_allow.txt lists with a reason. -v prints the
# line "settable options: N (fields F, flags G)". Standard library only
# (go/types); not part of tier-1.
deadcode:
	go test -tags deadcode -run '^TestDeadcode$$' -count=1 -v .

bench:
	go test -bench=. -benchmem -benchtime=1x .

# Compile-and-run every benchmark once: catches bit-rot in bench harnesses
# across all packages without the cost of a real measurement.
bench-compile:
	go test -run='^$$' -bench=. -benchtime=1x ./...

# One-iteration smoke run of the socket benchmarks (catches bit-rot in the
# bench harness without the cost of a real measurement).
bench-smoke:
	go test -run='^$$' -bench=BenchmarkNetServe -benchtime=1x .

# Measured UDP serving numbers, committed as BENCH_netserve.json. Written
# via a temp file, so a run whose zero-alloc guard fails leaves the
# committed file as it was. The -assert-zero-alloc
# guard fails the run if any hot handle path (cached hit, scored hit, scored
# NXDOMAIN miss, scored flood packet, EDNS hit, view-path NXDOMAIN miss,
# delegation miss, a view answer filled into a full hot cache, the decode
# path's packer, the cold 20 000-zone view append) starts allocating. The BenchmarkView* rows are the cold-cache and
# footprint numbers: what a view costs to route to and answer from when it
# is not in cache, to compile, and to hold (extra: B/zone, objects/zone);
# BenchmarkZoneHeapPerZone is the same pair of numbers for a whole hosted
# zone at rest, record slab and view together.
bench-json:
	go test -run='^$$' -bench='BenchmarkNetServeUDP|BenchmarkHandleUDP|BenchmarkAppendTruncateTo|BenchmarkStoreFind|BenchmarkRouterRebuild|BenchmarkCtlApply|BenchmarkView|BenchmarkZoneHeapPerZone|BenchmarkParseMasterBenchZone' -benchmem -benchtime=2s . ./internal/netserve/ ./internal/dnswire/ ./internal/zone/ ./internal/ctlplane/ | go run ./cmd/benchjson -assert-zero-alloc='^HandleUDP$$|^HandleUDPScoredHit$$|^HandleUDPScoredMissNXDOMAIN$$|^HandleUDPScoredFlood$$|^HandleUDPEDNS$$|^HandleUDPMissNXDOMAIN$$|^HandleUDPDelegation$$|^HandleUDPBatch32$$|^HandleUDPChurnHit$$|^HandleUDPChurnMiss$$|^HandleUDPViewFill$$|^AppendTruncateTo$$|^StoreFindWire$$|^ViewAppendCold$$' > BENCH_netserve.json.tmp
	mv BENCH_netserve.json.tmp BENCH_netserve.json
	@cat BENCH_netserve.json

# CI-shaped allocation regression smoke: short benchtime, no file rewrite,
# same zero-alloc guard as bench-json, plus ceilings for the rows that
# allocate by design (the decode path), so none gains an allocation.
bench-alloc-guard:
	go test -run='^$$' -bench='BenchmarkHandleUDP|BenchmarkAppendTruncateTo|BenchmarkStoreFindWire|BenchmarkViewAppendCold' -benchmem -benchtime=0.2s ./internal/netserve/ ./internal/dnswire/ ./internal/zone/ | go run ./cmd/benchjson -assert-zero-alloc='^HandleUDP$$|^HandleUDPScoredHit$$|^HandleUDPScoredMissNXDOMAIN$$|^HandleUDPScoredFlood$$|^HandleUDPEDNS$$|^HandleUDPMissNXDOMAIN$$|^HandleUDPDelegation$$|^HandleUDPBatch32$$|^HandleUDPChurnHit$$|^HandleUDPChurnMiss$$|^HandleUDPViewFill$$|^AppendTruncateTo$$|^StoreFindWire$$|^ViewAppendCold$$' -assert-max-allocs='HandleUDPECS=3' > /dev/null

experiments:
	go run ./cmd/experiments -fig all

# Every fuzz target for FUZZTIME each; CI runs the list with FUZZTIME=10s.
FUZZTIME ?= 30s
fuzz:
	go test -fuzz=FuzzUnpack\$$ -fuzztime=$(FUZZTIME) ./internal/dnswire/
	go test -fuzz=FuzzUnpackInto -fuzztime=$(FUZZTIME) ./internal/dnswire/
	go test -fuzz=FuzzAppendPack -fuzztime=$(FUZZTIME) ./internal/dnswire/
	go test -fuzz=FuzzPackParity -fuzztime=$(FUZZTIME) ./internal/dnswire/
	go test -fuzz=FuzzIsSubdomainOf -fuzztime=$(FUZZTIME) ./internal/dnswire/
	go test -fuzz=FuzzParseMaster\$$ -fuzztime=$(FUZZTIME) ./internal/zone/
	go test -fuzz=FuzzParseMasterParity -fuzztime=$(FUZZTIME) ./internal/zone/
	go test -fuzz=FuzzViewLookupParity -fuzztime=$(FUZZTIME) ./internal/zone/
	go test -fuzz=FuzzZoneModel -fuzztime=$(FUZZTIME) ./internal/zone/
	go test -fuzz=FuzzZoneArena -fuzztime=$(FUZZTIME) ./internal/zone/
	go test -fuzz=FuzzStoreModel -fuzztime=$(FUZZTIME) ./internal/zone/
	go test -fuzz=FuzzTCPFrameReader -fuzztime=$(FUZZTIME) ./internal/netserve/
	go test -fuzz=FuzzTransferStream -fuzztime=$(FUZZTIME) ./internal/netserve/
	go test -fuzz=FuzzHotCacheVersions -fuzztime=$(FUZZTIME) ./internal/netserve/
	go test -fuzz=FuzzCanExistWire -fuzztime=$(FUZZTIME) ./internal/nameserver/
	go test -fuzz=FuzzPlanApply -fuzztime=$(FUZZTIME) ./internal/ctlplane/
	go test -fuzz=FuzzZoneSum -fuzztime=$(FUZZTIME) ./internal/propagate/
	go test -fuzz=FuzzVerifyBeforeInstall -fuzztime=$(FUZZTIME) ./internal/propagate/
	go test -fuzz=FuzzSignatureMatch -fuzztime=$(FUZZTIME) ./internal/qod/

# Deterministic fault-injection harness: every scenario once at the default
# seed, plus the determinism and regression suites and the live-socket
# query-of-death drill. Replay a failure with the printed reproducer
# (scenario + seed + event index).
chaos:
	go test ./internal/chaos -run 'TestScenarios|TestDeterminism|TestRegressionSeeds|TestLiveServerDrill' -v

# Longer soak across a seed range; override SEEDS=lo:hi as needed.
SEEDS ?= 1:25
chaos-soak:
	go run ./cmd/chaos -scenarios all -seeds $(SEEDS) -quiet

examples:
	go run ./examples/quickstart
	go run ./examples/gtm
	go run ./examples/attackmitigation
	go run ./examples/failoverdrill
	go run ./examples/adhsops

clean:
	go clean ./...
