# One line per target; the tests a target runs are named in its recipe.
#   tier1         the CI gate: gofmt, build, vet, every test (TestGoldenTables is the perf gate)
#   race          the race detector over the packet ring, queues, planes and step loops
#   soak          the seeded soaks and enumerations of kio (the socket receive's unmasked window among them), the ready ring, the live chain and queues, -race
#   cluster-soak  2-VM fleet churn, snapshots and parking, -race
#   chaos-soak    the fleet under link faults and partitions, -race; dumps go to FLIGHT_DIR
#   examples      every directory under examples/, each self-checking and exiting nonzero on failure
#   bench         every benchmark in the module
#   tables        prints every evaluation table
#   profile       one Table 1 program under the profiler, writing trace.json (-profile-run "sock echo 64 B" prices the datagram path)
#   loc           lines of non-test Go outside benchmark/, the count ROADMAP tracks
#   placement     (*Machine).Run's address mod 64, to quote beside a wall-clock delta
#   inline        the dispatcher's RAM helpers and the host's Peek and Poke inline at the call-site counts INLINE_SITES names

GO ?= go

.PHONY: tier1 race soak cluster-soak chaos-soak examples bench tables profile loc placement inline

tier1:
	test -z "$$(gofmt -l .)"
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -timeout 120s ./...

race:
	$(GO) test -race ./internal/net/... ./internal/queue/... ./internal/prof/... ./internal/metrics/... ./internal/fault/...
	$(GO) test -race -count 1 -run 'TestRunEqualsSteps|TestSelfModifyingCode|TestPatchHelpersInvalidate' ./internal/m68k

soak:
	$(GO) test -race -count 1 -timeout 120s \
		-run 'TestFaultSoak|TestSendGivesUp|TestSendRetries|TestCorruptFrame|TestWatchdog|TestOpenCloseChurnPlateaus|TestSocketChurnPlateaus|TestExitClosesDescriptors|TestSocketChurnReturnsItsHeap|TestPipeChurnReturnsItsHeap|TestSlotChurnHoldsCodeFlat|TestBulkCopyPreservesRegisters|TestOneByteGetParkWindowEnumerated|TestQuantumInHandlerEnumerated|TestIdleLeaveWindowEnumerated|TestRuntFrameDropped|TestSendChecksumEveryTailShape|TestDepositChecksumEveryTailShape|TestNetIntrOneActivationEnumerated|TestDemuxMatchesSocketTable|TestUnixEntryMatchesNative|TestBadDescriptorsThroughUnixGate|TestOpenCloseLeavesRegistryNames|TestSnapshotReadsOpenObjects|TestQuantumInSwitchEnumerated|TestSockRecvWindowEnumerated' \
		./internal/kio/
	$(GO) test -race -count 1 -timeout 120s -run 'TestReadyRingRandomOps|TestLeavingAParkClearsTheCell|TestLiveChainChurn|TestSpawnAfterIdleLeftTheRing' ./internal/kernel/
	$(GO) test -race -count 1 -timeout 120s -run 'TestConcurrentFullEmptyRaces' ./internal/queue/

cluster-soak:
	$(GO) test -race -count 1 -timeout 180s \
		-run 'TestClusterSoak|TestNoReecho|TestSnapshotDuringRun|TestIdleFleetParks' ./internal/cluster/

# FLIGHT_DIR makes a failing soak write the fleet's flight-recorder
# dumps there (CI uploads the directory as an artifact).
FLIGHT_DIR ?= bench/flight

chaos-soak:
	FLIGHT_DIR=$(FLIGHT_DIR) $(GO) test -race -count 1 -timeout 180s \
		-run 'TestChaosSoak|TestFabricDropAccountingExact|TestThrottleBackpressure|TestLinkDelayHoldsAndReleases|TestScheduledPartition|TestManualCutHeal' \
		./internal/cluster/

examples:
	set -e; for ex in examples/*/; do \
		echo "== $${ex%/}"; $(GO) run ./$$ex; \
	done

bench:
	$(GO) test -bench . -run ^$$ ./...

tables:
	$(GO) run ./cmd/synbench

profile:
	$(GO) run ./cmd/synbench -profile-run "open-close tty" -top 15 -trace-json trace.json

loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

placement:
	@dir=$$(mktemp -d) && $(GO) build -o $$dir/benchmark ./benchmark && \
	addr=$$($(GO) tool nm $$dir/benchmark | awk '$$3 ~ /m68k\.\(\*Machine\)\.Run$$/ {print $$1}') && \
	rm -rf $$dir && test -n "$$addr" && \
	echo "(*Machine).Run at 0x$$addr: $$((0x$$addr % 64)) mod 64"

INLINE_SITES = loadRAM32:14 storeRAM32:8 loadRAM:5 storeRAM:4 Peek:0 Poke:2

inline:
	@out=$$($(GO) build -gcflags=-m ./internal/m68k 2>&1) || { echo "$$out"; exit 1; }; \
	for hs in $(INLINE_SITES); do \
		h=$${hs%%:*}; want=$${hs##*:}; \
		echo "$$out" | grep -q "can inline (\*Machine)\.$$h\$$" || \
			{ echo "inline: (*Machine).$$h does not inline"; exit 1; }; \
		got=$$(echo "$$out" | grep -c "inlining call to (\*Machine)\.$$h\$$"); \
		test "$$got" -eq "$$want" || \
			{ echo "inline: (*Machine).$$h inlined at $$got call sites, want $$want"; exit 1; }; \
	done; \
	echo "inline: $(INLINE_SITES) (helper:call sites) all inlined"
