# Developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build loc test race short cover cover-check bench bench-compare repro fuzz chaos chaos-smoke shard-smoke gateway-smoke gateway-churn durable-smoke shardscale fmt fmtcheck vet ci clean

all: build vet fmtcheck test

# Mirror of .github/workflows/ci.yml for local runs.
ci: build vet fmtcheck test race chaos-smoke shard-smoke gateway-smoke durable-smoke fuzz

build:
	$(GO) build ./...

# Go line counts outside bench/ (the repository benchmark), split into
# non-test and test files: the "net LoC" measure a subtraction is judged by.
LOC_FILES = find . -name '*.go' -not -path './bench/*' -not -path './.git/*'
loc:
	@printf 'non-test Go lines (excluding bench/): %s\n' "$$($(LOC_FILES) -not -name '*_test.go' -exec cat {} + | wc -l)"
	@printf 'test Go lines (excluding bench/): %s\n' "$$($(LOC_FILES) -name '*_test.go' -exec cat {} + | wc -l)"

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -short -cover ./...

# Coverage ratchet over every internal package, derived from `go list` so
# a new package can't dodge the floor by not being on a hand-written list.
# The floor only moves up: raise COVER_MIN when coverage durably improves.
COVER_PKGS = $(shell $(GO) list ./internal/...)
COVER_MIN ?= 84.0
cover-check:
	$(GO) test -coverprofile=coverage.out $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (ratchet floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 >= m+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below the $(COVER_MIN)% ratchet" >&2; exit 1; }

# Regenerate every paper table/figure plus ablations (minutes).
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path regression guard: repeat BenchmarkDispatchLanes{1,4,8},
# BenchmarkFanoutAsync{8,64,64Stalled}, BenchmarkEgressWritev,
# BenchmarkDurablePublishAck, BenchmarkRecvBatched{64B,16KiB},
# BenchmarkReplicateEnqueue, BenchmarkPublishBurst{16B,16KiB} and
# BenchmarkBrokerRelay{16B,16KiB} from the root package, then the
# contended-intake pair BenchmarkMPSCPushContended (internal/queue) and
# BenchmarkPublishContendedMPSC (internal/broker), and the subscriber's
# delivery path BenchmarkSubscriberDeliver (internal/client), all into one
# file with allocation reporting, and summarize with benchstat when it is
# installed (raw output otherwise). Acceptance bars: ≥2x ns/op at 8 lanes
# vs 1 on a multi-core runner, and 0 allocs/op on the dispatch, fan-out,
# egress, durable publish→ack, batched receive, replication-enqueue,
# publisher-uplink, broker-relay, contended-intake and subscriber-delivery
# paths — CI's bench-alloc job fails on any alloc (or above 16 B/op) in
# this file.
BENCH_COUNT ?= 6
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkDispatchLanes|BenchmarkFanout|BenchmarkEgress|BenchmarkDurablePublishAck|BenchmarkRecvBatched|BenchmarkReplicateEnqueue|BenchmarkPublishBurst|BenchmarkBrokerRelay' -benchmem -count $(BENCH_COUNT) . | tee dispatch_lanes.bench
	$(GO) test -run '^$$' -bench 'BenchmarkMPSCPushContended|BenchmarkPublishContendedMPSC|BenchmarkSubscriberDeliver' -benchmem -count $(BENCH_COUNT) ./internal/queue/ ./internal/broker/ ./internal/client/ | tee -a dispatch_lanes.bench
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat dispatch_lanes.bench; \
	else \
		echo "benchstat not installed; raw samples are in dispatch_lanes.bench"; \
		echo "(go install golang.org/x/perf/cmd/benchstat@latest to summarize)"; \
	fi

# Same via the CLI harness, with CSV artifacts.
repro:
	$(GO) run ./cmd/frame-bench -exp all -csv artifacts

fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzInPlaceFrames -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzParseTopics -fuzztime 30s ./internal/spec/
	$(GO) test -fuzz FuzzGatewayDecode -fuzztime 30s ./internal/gateway/
	$(GO) test -fuzz FuzzSegmentReplay -fuzztime 30s ./internal/diskstore/
	$(GO) test -fuzz FuzzRecvChunking -fuzztime 30s ./internal/transport/

# Scripted fault-injection scenarios (internal/chaos): one harness runs
# every scenario of every plane — pair, shard, gateway, durable and their
# compositions. chaos-smoke is the PR gate (the Smoke subset of every
# plane, well under two minutes); chaos is the full suite the nightly
# workflow runs under -race. Replay a failure with
# FRAME_CHAOS_SEED=<seed from the failure log>, or
# `go run ./cmd/frame-chaos -scenario NAME -seed SEED`.
chaos:
	$(GO) test -race -count=1 -v ./internal/chaos/

# The shard plane's PR gate beyond its chaos smoke scenarios: the cluster
# package tests and the 1→4 shard throughput-scaling sweep.
shard-smoke:
	$(GO) test -count=1 ./internal/cluster/
	$(MAKE) shardscale

# Aggregate throughput vs. shard count. The ≥2.5x 1→4 gate arms itself
# only on machines with at least 4 CPUs (frame-bench skips the assertion,
# but still reports, below that).
shardscale:
	$(GO) run ./cmd/frame-bench -exp shardscale -shards 1,2,4 -min-speedup 2.5

# The connection plane's PR gate beyond its chaos smoke scenarios: the
# gateway package's model-equivalence and churn-soak tests under -race,
# the client package's subscriber tests (the redial a thin client needs
# across a gateway restart lives in client.Subscriber) under -race three
# times over, and a CI-sized connection-churn run with its connects/s gate
# (the acceptance-scale run is `frame-bench -exp gateway` bare: 10k
# clients, ≥500 connects/s).
gateway-smoke:
	$(GO) test -race -count=1 ./internal/gateway/
	$(GO) test -race -count=3 -run 'TestSubscriber' ./internal/client/
	$(MAKE) gateway-churn

gateway-churn:
	$(GO) run ./cmd/frame-bench -exp gateway -clients 2000 -churn 500 -measure 2s -min-churn 400

# The durability plane's PR gate: the dual-crash acceptance scenario (the
# entire pair fail-stops mid-load and a broker restarted from the
# group-commit log segments is judged against the crashed log's ground
# truth: no acked publish lost, no on-disk prune re-dispatched, orphan
# backlog recovered exactly once) through the real CLI, then — under -race, three
# times over, because the pipeline's interesting interleavings are between
# the session, committer and flusher goroutines — the diskstore package
# (segment replay, crash tables, committer hammer and pipeline tests), the
# broker's durable-mode tests and the client package (pooled ack waiters,
# release on Close and on a dead link, the delivery log).
durable-smoke:
	$(GO) run ./cmd/frame-chaos -scenario kill-both-brokers
	$(GO) test -race -count=3 ./internal/diskstore/ ./internal/client/
	$(GO) test -race -count=3 -run 'TestDurable' ./internal/broker/

chaos-smoke:
	$(GO) test -short -count=1 ./internal/chaos/ ./internal/faultinject/

fmt:
	gofmt -l -w .

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

clean:
	rm -rf artifacts test_output.txt bench_output.txt coverage.out dispatch_lanes.bench
