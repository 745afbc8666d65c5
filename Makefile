# Common targets for the pcc reproduction.

GO ?= go

.PHONY: all build test race bench bench-module bench-interframe vet fmt fmt-check check-run-patterns fuzz-smoke ci experiments experiments-full fanout-scale fec layers clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Fails when any file needs gofmt (the CI drift check).
fmt-check:
	@drift=$$(gofmt -l .); if [ -n "$$drift" ]; then \
		echo "gofmt drift in:" >&2; echo "$$drift" >&2; exit 1; fi

# Fails when a -run pattern in this Makefile or .github/workflows/ci.yml
# selects no test in its packages (go test passes silently on such a pattern).
check-run-patterns:
	GO=$(GO) sh scripts/check-run-patterns.sh

# 20 s of fuzzing per hardened decoder entry point. This is the one list:
# the CI fuzz-smoke job runs this target.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=20s ./internal/attr
	$(GO) test -run='^$$' -fuzz=FuzzDecodeP -fuzztime=20s ./internal/interframe
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=20s ./internal/codec
	$(GO) test -run='^$$' -fuzz=FuzzReadFrameFrom -fuzztime=20s ./internal/codec
	$(GO) test -run='^$$' -fuzz=FuzzParseLayerDirectory -fuzztime=20s ./internal/codec
	$(GO) test -run='^$$' -fuzz=FuzzSliceDecoder -fuzztime=20s ./internal/entropy
	$(GO) test -run='^$$' -fuzz=FuzzDeserialize -fuzztime=20s ./internal/paroctree
	$(GO) test -run='^$$' -fuzz=FuzzParseFeedback -fuzztime=20s ./pcc/stream
	$(GO) test -run='^$$' -fuzz=FuzzParseParity -fuzztime=20s ./pcc/stream
	$(GO) test -run='^$$' -fuzz=FuzzParsePacket -fuzztime=20s ./pcc/stream

# bench/ is a Go module of its own (the BENCHMARK.json benchmark), so the
# targets above never compile it: vet it and run its smoke tests, which is
# what notices a refactor breaking the API the benchmark imports.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One iteration of BenchmarkBlockMatch (single-point, 16-point and kp != ki
# blocks): keeps the in-module benchmark compiling and running.
bench-interframe:
	$(GO) test -run '^$$' -bench BlockMatch -benchtime 1x ./internal/interframe

# Everything the CI gate runs (see .github/workflows/ci.yml), including the
# CI-sized relay-tree viewer-scaling gate and the experiment smoke run.
ci: build vet fmt-check check-run-patterns test bench-module bench-interframe race fuzz-smoke fec fanout-scale layers
	$(GO) run ./cmd/pccbench -scale 0.05 all

# One benchmark per paper table/figure (simulated edge-board metrics).
bench:
	$(GO) test -bench=. -benchmem ./...

# Quick sweep of every experiment at 10% dataset scale (~2 min).
experiments:
	$(GO) run ./cmd/pccbench -scale 0.1 all

# Relay-tree viewer-scaling gate, CI-sized (64 -> 2048 viewers) with the
# per-viewer CPU-cost ceiling and max/min cost-ratio budgets CI enforces.
# The full 64 -> 16k sweep that maintains BENCH_6.json is
#   go run ./cmd/pccbench -ratio 2 -ceiling 100 -benchout BENCH_6.json fanout-scale
fanout-scale:
	$(GO) test -race -count=1 -run 'TestServerShardChurn1k|TestServerCloseDuringChurn|TestServerDetachInFlight|TestRingFrozenBytes|TestServerShardPartition' ./pcc/stream
	$(GO) run ./cmd/pccbench -maxviewers 2048 -ceiling 100 -ratio 2 fanout-scale

# Zero-RTT FEC loss-repair gate: the parity/repair unit and integration
# tests under the race detector, with the loss sweep's rows (decoded ratio
# >= 0.99 at up to 5% random loss with parity armed, >= 0.95 without).
fec:
	$(GO) test -race -count=1 -run 'TestParity|TestParseParity|TestFEC|TestServerFEC|TestFeedbackNetsRecoveredLosses|TestAdaptiveParity|TestLossyStreamRecovers5PercentLoss' ./pcc/stream
	$(GO) test -race -count=1 -run 'TestParityKnob|TestParityGroupLen|TestProbe' ./internal/codec
	$(GO) test -race -count=1 -run 'TestFaultyLink' ./internal/linksim

# Layered multi-rate serving gate: the layer tests, the layered rows of the
# conformance table (TestLayered*, TestPartialDecode*: streams, clouds,
# ledgers), the per-viewer subscription tests, the reference rule and the
# progressive-decode tests under the race detector ('Layer' includes the
# subscription sweep's wire ratios and the subscription latch);
# the decode window-count invariant, the decode allocation gate and the
# partial and progressive pins again with four concurrent windows per untiled
# frame (GOMAXPROCS=4, whatever the host's cores), and so the encode side:
# the geometry and attribute window-count invariants, the encode allocation
# gate and the sort tests — the invariants and both allocation gates with a
# frame whose geometry chunk is mode 2's entropy slices, beside the sliced
# codec's round-trip, worker-count and hostile-header tests and 10 s of
# FuzzDecodeFrame from its mode-2 seeds.
layers:
	$(GO) test -race -count=1 -run 'Layer|Partial|UndecodedIFrame|DecodeProgressive' ./internal/codec ./pcc/stream ./pcc
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestDecodeWindowCountInvariant|TestDecodeSteadyStateAllocs|TestPartialDecode|TestDecodeProgressivePinned|TestGeomChunk' ./internal/codec ./pcc
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestGeometryWindowCountInvariant|TestEncodeWorkerCountInvariant|TestSteadyStateAllocsPerFrame' ./internal/codec
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'Sort' ./internal/morton
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'Sliced' ./internal/entropy
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/codec

# Paper-scale canonical run (~30-45 min); regenerates results_full_scale.txt.
experiments-full:
	$(GO) run ./cmd/pccbench -scale 1.0 -frames 3 -csv results_csv all | tee results_full_scale.txt

clean:
	rm -rf results_csv
