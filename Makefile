# Developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race short cover cover-check bench bench-compare bench-json bench-regress repro fuzz chaos chaos-shard chaos-gateway chaos-durable chaos-smoke shard-smoke gateway-smoke gateway-churn durable-smoke shardscale fmt fmtcheck vet ci clean

all: build vet fmtcheck test

# Mirror of .github/workflows/ci.yml for local runs.
ci: build vet fmtcheck test race chaos-smoke shard-smoke gateway-smoke durable-smoke fuzz

build:
	$(GO) build ./...

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
# BenchmarkFanout{1,8,64} (+ the FanoutAsync/Egress variants),
# BenchmarkDurablePublishAck, BenchmarkRecvBatched{64B,16KiB},
# BenchmarkReplicateEnqueue, BenchmarkPublishBurst{16B,16KiB} and
# BenchmarkBrokerRelay{16B,16KiB}, with allocation reporting and summarize
# with benchstat when it is installed (raw output otherwise). Acceptance bars:
# ≥2x ns/op at 8 lanes vs 1 on a multi-core runner, and 0 allocs/op on the
# dispatch, fan-out, egress, durable publish→ack, batched receive,
# replication-enqueue, publisher-uplink and broker-relay paths — benchstat's
# B/op and allocs/op columns are the alloc-regression signal.
BENCH_COUNT ?= 6
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkDispatchLanes|BenchmarkFanout|BenchmarkEgress|BenchmarkDurablePublishAck|BenchmarkRecvBatched|BenchmarkReplicateEnqueue|BenchmarkPublishBurst|BenchmarkBrokerRelay' -benchmem -count $(BENCH_COUNT) . | tee dispatch_lanes.bench
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat dispatch_lanes.bench; \
	else \
		echo "benchstat not installed; raw samples are in dispatch_lanes.bench"; \
		echo "(go install golang.org/x/perf/cmd/benchstat@latest to summarize)"; \
	fi

# Machine-readable egress baseline: run the egress-path benches once and
# record {name, ns_per_op, bytes_per_op, allocs_per_op} rows in
# BENCH_EGRESS.json. Commit the refreshed file when the egress hot path
# changes deliberately; allocs_per_op must stay 0.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkFanoutAsync|BenchmarkEgressWritev|BenchmarkFanout64$$' -benchmem -count 1 . | tee egress.bench
	@awk 'BEGIN { print "[" } \
		/^Benchmark/ { \
			if (n++) printf ",\n"; \
			printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", $$1, $$2, $$3, $$5, $$7 \
		} \
		END { print "\n]" }' egress.bench > BENCH_EGRESS.json
	@echo "wrote BENCH_EGRESS.json"
	$(GO) run ./cmd/frame-bench -exp opoints -quiet -opoints-msgs 1024 -bench-json BENCH_OPOINTS.json
	$(GO) run ./cmd/frame-bench -exp durable -quiet -bench-json BENCH_DURABLE.json

# Fail if a fresh bench-json run regresses >BENCH_REGRESS_MAX% in ns/op
# against the committed BENCH_EGRESS.json (or allocates where the
# baseline did not). The CI bench-baseline job runs this on every PR.
# The opoints grid measures a live broker end to end, so its budget is
# far looser: single-run cells on a loaded box swing ±30-40%. The durable
# rows are p99 publish latencies dominated by the fsync window and the
# disk, so their budget is looser still.
BENCH_REGRESS_MAX ?= 10
OPOINTS_REGRESS_MAX ?= 50
DURABLE_REGRESS_MAX ?= 75
bench-regress:
	cp BENCH_EGRESS.json bench_baseline.json
	cp BENCH_OPOINTS.json opoints_baseline.json
	cp BENCH_DURABLE.json durable_baseline.json
	$(MAKE) bench-json
	$(GO) run ./cmd/frame-benchdiff -base bench_baseline.json -new BENCH_EGRESS.json -max-regress $(BENCH_REGRESS_MAX)
	$(GO) run ./cmd/frame-benchdiff -base opoints_baseline.json -new BENCH_OPOINTS.json -max-regress $(OPOINTS_REGRESS_MAX)
	$(GO) run ./cmd/frame-benchdiff -base durable_baseline.json -new BENCH_DURABLE.json -max-regress $(DURABLE_REGRESS_MAX)

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

# Scripted fault-injection scenarios over real TCP (internal/chaos).
# chaos-smoke is the PR gate (Smoke subset, well under two minutes);
# chaos is the full suite the nightly workflow runs under -race.
# Replay a failure with FRAME_CHAOS_SEED=<seed from the failure log>.
chaos:
	$(GO) test -race -count=1 -v -run 'TestChaosScenarios|TestScenarioNames' ./internal/chaos/

# Shard-level scenarios: full multi-pair cluster + routing Directory
# (kill-one-pair, routing-plane partition). chaos-shard is the nightly
# -race form; shard-smoke is the PR gate, which also runs the cluster
# package tests and the 1→4 shard throughput-scaling sweep.
chaos-shard:
	$(GO) test -race -count=1 -v -run 'TestShardChaosScenarios|TestShardScenarioRegistry' ./internal/chaos/

shard-smoke:
	$(GO) test -short -count=1 -run 'TestShard' ./internal/chaos/
	$(GO) test -count=1 ./internal/cluster/
	$(MAKE) shardscale

# Aggregate throughput vs. shard count. The ≥2.5x 1→4 gate arms itself
# only on machines with at least 4 CPUs (frame-bench skips the assertion,
# but still reports, below that).
shardscale:
	$(GO) run ./cmd/frame-bench -exp shardscale -shards 1,2,4 -min-speedup 2.5

# Gateway-level scenarios: the connection plane terminating thin clients
# in front of a broker pair (crash/restart mid-stream, wedged client).
# chaos-gateway is the nightly -race form; gateway-smoke is the PR gate,
# which also runs the gateway package's model-equivalence and churn-soak
# tests under -race and a CI-sized connection-churn run with its
# connects/s gate (the acceptance-scale run is `frame-bench -exp gateway`
# bare: 10k clients, ≥500 connects/s).
chaos-gateway:
	$(GO) test -race -count=1 -v -run 'TestGatewayChaosScenarios|TestGatewayScenarioRegistry' ./internal/chaos/

gateway-smoke:
	$(GO) test -short -count=1 -run 'TestGateway' ./internal/chaos/
	$(GO) test -race -count=1 ./internal/gateway/
	$(MAKE) gateway-churn

gateway-churn:
	$(GO) run ./cmd/frame-bench -exp gateway -clients 2000 -churn 500 -measure 2s -min-churn 400

# Durability-plane scenarios: the entire pair fail-stops mid-load and a
# broker restarted from the group-commit log segments is judged against
# the crashed log's ground truth (no acked publish lost, no on-disk
# prune re-dispatched, orphan backlog recovered exactly once).
# chaos-durable is the nightly -race form; durable-smoke is the PR gate:
# the acceptance scenario through the real CLI, then — under -race, three
# times over, because the pipeline's interesting interleavings are between
# the session, committer and flusher goroutines — the diskstore package
# (segment replay, crash tables, committer hammer and pipeline tests), the
# broker's durable-mode tests and the client package (pooled ack waiters,
# release on Close and on a dead link, the delivery log).
chaos-durable:
	$(GO) test -race -count=1 -v -run 'TestDurableChaosScenarios|TestDurableScenarioRegistry' ./internal/chaos/

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
	rm -rf artifacts test_output.txt bench_output.txt coverage.out dispatch_lanes.bench egress.bench bench_baseline.json opoints_baseline.json durable_baseline.json
