# `make tier1` is the CI gate: gofmt-clean, build, vet, and every test
# under a bounded timeout. It includes the cycle-clock half of the
# perf gate (internal/bench's TestGoldenTables holds every table
# byte-equal to bench/baseline, and the paper-gap ledger
# bench/baseline/PAPER_GAPS.md to what the tables render; TestPaperGaps
# fails on a row beyond 1.5x of the paper with no owner; `go run
# ./cmd/synbench -json bench/baseline` refreshes both); the wall-clock half is
# `go run ./benchmark`, see docs/PERFORMANCE.md. `make race`, `soak`, `cluster-soak` and
# `chaos-soak` are the bounded, seeded race-detector passes CI runs
# after it (the packet ring and the queue conformance tests + measurement plane + fault plan and
# injector, then the machine's two step loops and its
# self-modifying-code tests in internal/m68k;
# single-machine fault injection, the open/close and socket churn
# plateaus, the receive demux checked against the socket table in
# each handler mode, pipe churn returning its heap, an exiting thread closing
# its descriptors, 200 distinct files and 1,000 mixed opens on one
# descriptor slot holding code space flat, every descriptor kind's UNIX entry against
# its native one, bad descriptors through the UNIX gate, the block
# copy preempted mid-group, the one-byte get's masked park with a tty
# byte injected at every cycle of its window, and the quantum expiring
# at every cycle of the net, tty and A/D handlers' windows, of the
# idle thread's step out of the ready ring and of a yield's switch path,
# each run ending with the ready ring's invariant checked, seeded
# stop/start/block/wake/yield sequences over 2 to 8 threads with the
# ring checked at every unmasked boundary, a parked thread started or
# destroyed and its cell then woken, and a second frame and a tty
# byte at every cycle of one receive-handler activation; a runt frame
# dropped at the NIC, and the send's and the deposit's copy-and-checksum
# at every payload tail shape, 1,000 mixed opens and closes leaving the
# registry's names alone and snapshots read from the socket table and
# the descriptor slots, and the packet ring raced at its full
# and empty edges; 2-VM
# fleet churn; 2-VM fleet under link faults and a partition/heal
# cycle, plus the fabric's held-frame queue and cut record driven directly:
# throttle, delay, scripted and manual cuts). `make examples` runs the five self-checking examples, each of
# which exits nonzero on failure. `make bench` runs the root Go
# benchmarks once and then the dispatcher's inner loops for a second each (internal/m68k:
# BenchmarkStepLoop; BenchmarkShapes, one instruction shape at a time,
# among them the seven MOVEMs with bodies of their own: D3-D7/A3-A5 from
# (A0)+, to (An) and to 32(An), D0-D2/A0-A2 to -(A7) and from (A7)+,
# D0-D7/A0-A6 to and from an absolute address, the JSR+RTS and TRAP+RTE
# pairs, the SR moves and MOVEC's four bodies;
# BenchmarkCopyLoop beside BenchmarkMovemCopyLoop, the copy loop's two
# forms, the second a JSR to kio.block_copy's eight-group pass; host ns
# per guest instruction and per KB) and a reopen of a descriptor
# (internal/kio: BenchmarkReopen, host ns per open+close of /dev/tty,
# whose routines are built once per kernel, and of a file, whose are
# built again into the slot's code region, and of /dev/tty with the
# metrics plane attached; internal/metrics: a handle update with the
# plane off and on, and a snapshot; internal/prof: a step with the
# profiler off and on). CI runs every one of those benchmarks once
# (-benchtime 1x), so a benchmark that fails fails CI. `make tables` prints every table, `make profile` runs
# one Table 1 program under the profiler and emits trace.json (load in
# about:tracing or ui.perfetto.dev). `make loc` prints the number
# ROADMAP tracks: lines of non-test Go outside benchmark/ (CI's test
# job logs it). `make
# placement` prints where (*Machine).Run, the dispatcher's fast loop,
# lands in the benchmark binary, mod 64: its placement alone has moved
# every workload's host numbers by a few percent between equivalent
# builds (docs/PERFORMANCE.md), so quote it beside a wall-clock delta.
# `make inline` holds the dispatcher's RAM helpers (internal/m68k's
# loadRAM32, storeRAM32, loadRAM, storeRAM) to what makes them pay: each
# must report `can inline` under -gcflags=-m and be inlined at exactly
# the number of call sites INLINE_SITES names. A helper pushed over the
# inliner's budget of 80 turns every memory operand back into a Go call
# with no test failing (docs/PERFORMANCE.md); a call site added or
# removed changes the count, which is updated here with it.

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
		-run 'TestFaultSoak|TestSendGivesUp|TestSendRetries|TestCorruptFrame|TestWatchdog|TestOpenCloseChurnPlateaus|TestSocketChurnPlateaus|TestExitClosesDescriptors|TestSocketChurnReturnsItsHeap|TestPipeChurnReturnsItsHeap|TestSlotChurnHoldsCodeFlat|TestBulkCopyPreservesRegisters|TestOneByteGetParkWindowEnumerated|TestQuantumInHandlerEnumerated|TestIdleLeaveWindowEnumerated|TestRuntFrameDropped|TestSendChecksumEveryTailShape|TestDepositChecksumEveryTailShape|TestNetIntrOneActivationEnumerated|TestDemuxMatchesSocketTable|TestUnixEntryMatchesNative|TestBadDescriptorsThroughUnixGate|TestOpenCloseLeavesRegistryNames|TestSnapshotReadsOpenObjects|TestQuantumInSwitchEnumerated' \
		./internal/kio/
	$(GO) test -race -count 1 -timeout 120s -run 'TestReadyRingRandomOps|TestLeavingAParkClearsTheCell' ./internal/kernel/
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
	set -e; for ex in quickstart audio codegen netecho procmetrics; do \
		echo "== examples/$$ex"; $(GO) run ./examples/$$ex; \
	done

bench:
	$(GO) test -bench . -benchtime 1x -run ^$$ .
	$(GO) test -bench . -run ^$$ ./internal/m68k ./internal/kio ./internal/metrics ./internal/prof

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

INLINE_SITES = loadRAM32:15 storeRAM32:8 loadRAM:5 storeRAM:4

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
