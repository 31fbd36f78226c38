# cloudscope — reproduction of He et al., IMC 2013.

GO ?= go

.PHONY: all build check test race bench bench-smoke serve-smoke experiments world chaos bisect-smoke fuzz-chaos fuzz-chaos-v3 fuzz-trace fuzz-packet fuzz-pcap fuzz-diskfmt clean

all: build check test

build:
	$(GO) build ./...

# Static analysis plus race-detector runs over the packages with the
# hottest concurrent paths (telemetry instruments, fabric, resolver,
# the worker pool, and every parallelized analysis stage), plus a
# repeated small-shard stress run that forces shard-boundary
# interleavings in the pool.
check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@if grep -rn --include='*.go' '"unsafe"' . ; then \
		echo 'the zero-copy hot path stays honest: no unsafe imports'; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./internal/telemetry ./internal/simnet ./internal/dnssrv \
		./internal/parallel ./internal/core/patterns ./internal/core/regions \
		./internal/core/zones ./internal/core/wanperf ./internal/cartography \
		./internal/wan
	$(GO) test -race -count=5 -run TestStressShardBoundaries ./internal/parallel
	$(GO) test -race -count=5 -run 'WorkerCountInvariant|ArrivalOrderInvariant' \
		./internal/deploy ./internal/core/dataset ./internal/capture ./internal/cartography
	$(GO) test -race -count=2 -run 'UnderLossWorkerInvariant|ChaosWorkerInvariant' \
		./internal/core/dataset ./internal/cartography ./internal/core/wanperf
	$(GO) test -race -count=2 -run 'TestAnalyzeRetainsNoPooledBuffers' ./internal/capture
	$(GO) test -race -count=2 -run 'TestCaptureChaosRace' ./internal/capture
	$(GO) test -race -count=2 -run 'TestStreamingSmallChunkInvariance' .
	$(MAKE) serve-smoke
	$(MAKE) bench-smoke

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The repo benchmark's correctness smoke: one short study-dns run at a
# held-out seed must reproduce the committed reference digest
# (perfbench/refs.json). It also compiles the separate perfbench
# module, which the root `go build ./...` never builds, so removing a
# name the benchmark uses fails here.
bench-smoke:
	@last="$$(bash perfbench/run.sh --workload study-dns --seed 11 --seconds 1 | tail -n 1)"; \
	echo "$$last"; \
	case "$$last" in '{"correct":true'*) ;; *) echo "bench-smoke: perfbench output check failed"; exit 1 ;; esac

# The query daemon end to end under the race detector: a cloudscoped
# server on a random port, a tiny seeded cloudload mix, zero request
# errors, and a parseable /metrics document.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke' ./internal/serve

# Regenerate every table and figure of the paper.
experiments:
	$(GO) run ./cmd/experiments

# Run the fault-injection suite: the chaos engine's own tests, every
# campaign's failure/invariance tests, and the full-study chaos goldens
# (byte-identical outputs at every worker count under fault scenarios).
chaos:
	$(GO) test ./internal/chaos ./internal/chaos/trace
	$(GO) test -run 'UnderLoss|Chaos|Outage|Brownout|ServFail|Backoff' \
		./internal/core/dataset ./internal/cartography ./internal/core/wanperf ./internal/dnssrv
	$(GO) test -run 'TestChaosDeterminism|TestChaosChangesOutcomes|TestChaosRecordReplay|TestChaosBisect' .

# The fault-forensics loop in miniature, under the race detector:
# record a faulted study's trace, replay it byte-identically, and
# delta-debug it down to the culprit events.
bisect-smoke:
	$(GO) test -race -run 'TestChaosBisectMinimizesToCulprits' -v .

# Fuzz the chaos scenario parser (accepted specs must validate,
# round-trip, and drive the engine without panicking).
fuzz-chaos:
	$(GO) test -fuzz=FuzzParseScenario -fuzztime=10s ./internal/chaos

# Fuzz the chaos-v3 surfaces: the multi-hop trigger-path clause
# (accepted paths must round-trip and answer wire, vantage, and
# capture boost queries without panicking) and the fault-trace differ
# (never panics, empty exactly on self-comparison, magnitude-symmetric
# under operand swap).
fuzz-chaos-v3:
	$(GO) test -fuzz=FuzzParseTriggerPath -fuzztime=10s ./internal/chaos
	$(GO) test -fuzz=FuzzTraceDiff -fuzztime=10s ./internal/chaos/trace

# Fuzz the fault-trace decoder (malformed or truncated traces must
# error, never panic).
fuzz-trace:
	$(GO) test -fuzz=FuzzRead -fuzztime=10s ./internal/chaos/trace

# Fuzz the packet header decoder (truncated headers and lying length
# fields must error, never panic or over-read, and the allocating
# Decode must agree with the in-place DecodeHeaders).
fuzz-packet:
	$(GO) test -fuzz=FuzzDecodePacket -fuzztime=10s ./internal/packet

# Fuzz both pcap read paths (malformed or truncated streams must error,
# never panic, and the zero-copy ReadBlock path must parse
# byte-identically with the record-at-a-time Next path).
fuzz-pcap:
	$(GO) test -fuzz=FuzzPcapRead -fuzztime=10s ./internal/pcapio

# Fuzz the spill-file decoder (arbitrary bytes must decode cleanly or
# error — never panic or over-read — and whatever decodes must survive
# an encode/decode round trip).
fuzz-diskfmt:
	$(GO) test -fuzz=FuzzDiskFmtRoundTrip -fuzztime=10s ./internal/core/dataset/diskfmt

# Generate a world with shareable artifacts (pcap, zone files, CSVs).
world:
	$(GO) run ./cmd/worldgen -out world

clean:
	rm -rf world plots
