// Benchmarks regenerating every table and figure of the FRAME paper's
// evaluation (§VI), plus ablations of FRAME's design choices. Each bench
// runs its experiment once (a run takes seconds to minutes, far above
// benchtime, so the harness keeps N=1) and prints the regenerated
// table/figure to stdout so that
//
//	go test -bench=. -benchmem ./... | tee bench_output.txt
//
// captures the full reproduction. Scale knobs (defaults are laptop-sized;
// the paper used 10 runs × 60 s on a 7-host test-bed):
//
//	FRAME_BENCH_RUNS     repetitions per cell (default 5)
//	FRAME_BENCH_MEASURE  fault-free window (default 4s)
//	FRAME_BENCH_CRASH    crash-run window (default 8s)
package frame

import (
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/experiments"
	"repro/internal/queue"
	"repro/internal/simcluster"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
	"repro/internal/wire"
)

func benchConfig() experiments.Config {
	cfg := experiments.Config{}
	if v, err := strconv.Atoi(os.Getenv("FRAME_BENCH_RUNS")); err == nil && v > 0 {
		cfg.Runs = v
	}
	if d, err := time.ParseDuration(os.Getenv("FRAME_BENCH_MEASURE")); err == nil && d > 0 {
		cfg.Measure = d
	}
	if d, err := time.ParseDuration(os.Getenv("FRAME_BENCH_CRASH")); err == nil && d > 0 {
		cfg.CrashMeasure = d
	}
	return cfg
}

// BenchmarkTable4LossTolerance regenerates Table 4: success rate for
// loss-tolerance requirements under crash injection, workloads
// 7525/10525/13525, configurations FRAME+/FRAME/FCFS/FCFS−.
func BenchmarkTable4LossTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n%s\n", res.Format())
	}
}

// BenchmarkTable5LatencySuccess regenerates Table 5: success rate for
// latency requirements in fault-free operation, workloads 4525–13525.
func BenchmarkTable5LatencySuccess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable5(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n%s\n", res.Format())
	}
}

// BenchmarkFig7CPUUtilization regenerates Fig. 7: modeled CPU utilization
// of the Primary's Message Delivery and Message Proxy modules and the
// Backup's Message Proxy module, per configuration and workload.
func BenchmarkFig7CPUUtilization(b *testing.B) {
	cfg := benchConfig()
	cfg.Runs = 1 // utilization is deterministic per seed; one run per cell
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n%s\n", res.Format())
	}
}

// BenchmarkFig8CloudLatency regenerates Fig. 8: the 24-hour ΔBS profile of
// a category-5 cloud topic (diurnal swing, jitter, the ~8am +104 ms
// spike), and validates the paper's claim that configuring with a measured
// lower bound of ΔBS preserves loss tolerance despite run-time variation —
// here even with the Primary crashed exactly at the latency spike.
func BenchmarkFig8CloudLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig8(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n%s\n", res.Format())
	}
}

// BenchmarkFig9RecoveryLatency regenerates Fig. 9: end-to-end latency of a
// topic in categories 0, 2, and 5 before, upon, and after fault recovery,
// for each configuration, at the 7525-topic workload.
func BenchmarkFig9RecoveryLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n%s\n", res.Format())
	}
}

// ablationRun executes one simulated run for the ablation benches.
func ablationRun(b *testing.B, total int, opts simcluster.Options) *simcluster.Result {
	b.Helper()
	w, err := spec.NewWorkload(total)
	if err != nil {
		b.Fatal(err)
	}
	opts.Workload = w
	if opts.Measure == 0 {
		opts.Measure = 3 * time.Second
	}
	if opts.Warmup == 0 {
		opts.Warmup = 500 * time.Millisecond
	}
	if opts.Drain == 0 {
		opts.Drain = time.Second
	}
	res, err := simcluster.Run(opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationSelectiveReplication quantifies Proposition 1 alone:
// FRAME vs an EDF configuration that replicates every topic. The paper's
// lesson 1 — replication removal lets the system accommodate more topics
// at lower delivery-module utilization.
func BenchmarkAblationSelectiveReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		frameRes := ablationRun(b, 7525, simcluster.Options{Variant: simcluster.VariantFRAME, Seed: 1})
		// EDF with replication for all topics: FRAME minus Proposition 1.
		all := ablationRun(b, 7525, simcluster.Options{Variant: simcluster.VariantEDFReplicateAll, Seed: 1})
		fmt.Printf("\nAblation: selective replication (workload 7525, EDF)\n")
		fmt.Printf("  FRAME (Prop. 1 on):  delivery util %5.1f%%, replication jobs %d\n",
			frameRes.Util.PrimaryDelivery, frameRes.PrimaryStats.ReplicationJobs)
		fmt.Printf("  replicate-all:       delivery util %5.1f%%, replication jobs %d\n",
			all.Util.PrimaryDelivery, all.PrimaryStats.ReplicationJobs)
		b.ReportMetric(frameRes.Util.PrimaryDelivery, "frame-util-%")
		b.ReportMetric(all.Util.PrimaryDelivery, "replicate-all-util-%")
	}
}

// BenchmarkAblationCoordination quantifies Table 3's dispatch–replicate
// coordination: with it, the Backup Buffer is pruned and recovery is
// cheap; without it (FCFS−), promotion drains a full buffer. The paper's
// lesson 2.
func BenchmarkAblationCoordination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		peak := func(v simcluster.Variant) (time.Duration, uint64) {
			w, err := spec.NewWorkload(7525)
			if err != nil {
				b.Fatal(err)
			}
			res, err := simcluster.Run(simcluster.Options{
				Workload: w, Variant: v, Seed: 1,
				Warmup: 500 * time.Millisecond, Measure: 4 * time.Second,
				Drain: time.Second, CrashAt: 2 * time.Second,
				TrackTopics: []spec.TopicID{20},
			})
			if err != nil {
				b.Fatal(err)
			}
			var max time.Duration
			for _, pt := range res.Series[20] {
				if pt.Recovered && pt.Latency > max {
					max = pt.Latency
				}
			}
			return max, res.BackupStats.RecoveryJobs
		}
		fcfsPeak, fcfsJobs := peak(simcluster.VariantFCFS)
		minusPeak, minusJobs := peak(simcluster.VariantFCFSMinus)
		fmt.Printf("\nAblation: dispatch-replicate coordination (workload 7525, crash)\n")
		fmt.Printf("  FCFS  (coordination on):  recovery peak %8.1f ms, recovery jobs %6d\n",
			float64(fcfsPeak)/1e6, fcfsJobs)
		fmt.Printf("  FCFS- (coordination off): recovery peak %8.1f ms, recovery jobs %6d\n",
			float64(minusPeak)/1e6, minusJobs)
		b.ReportMetric(float64(minusPeak)/1e6, "fcfs-minus-peak-ms")
	}
}

// BenchmarkAblationRetentionBoost quantifies the paper's lesson 4: raising
// Ni by one for categories 2 and 5 (FRAME+) removes all replication and
// its CPU cost while keeping loss tolerance intact.
func BenchmarkAblationRetentionBoost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		frameRes := ablationRun(b, 13525, simcluster.Options{Variant: simcluster.VariantFRAME, Seed: 1})
		plusRes := ablationRun(b, 13525, simcluster.Options{Variant: simcluster.VariantFRAMEPlus, Seed: 1})
		fmt.Printf("\nAblation: publisher retention boost (workload 13525)\n")
		fmt.Printf("  FRAME:  delivery util %5.1f%%, backup proxy util %5.1f%%, replicas %d\n",
			frameRes.Util.PrimaryDelivery, frameRes.Util.BackupProxy, frameRes.BackupStats.ReplicasStored)
		fmt.Printf("  FRAME+: delivery util %5.1f%%, backup proxy util %5.1f%%, replicas %d\n",
			plusRes.Util.PrimaryDelivery, plusRes.Util.BackupProxy, plusRes.BackupStats.ReplicasStored)
		b.ReportMetric(frameRes.Util.PrimaryDelivery-plusRes.Util.PrimaryDelivery, "util-saved-%")
	}
}

// BenchmarkAblationQueuePolicy isolates EDF vs FCFS queueing with
// everything else equal (replicate-all, coordination on) at a load where
// order matters.
func BenchmarkAblationQueuePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		latOK := func(v simcluster.Variant) float64 {
			res := ablationRun(b, 7525, simcluster.Options{Variant: v, Seed: 1})
			var met, created uint64
			for _, tr := range res.Topics {
				met += tr.DeadlineMet
				created += tr.Created
			}
			return 100 * float64(met) / float64(created)
		}
		edf := latOK(simcluster.VariantFRAME)
		fcfs := latOK(simcluster.VariantFCFS)
		fmt.Printf("\nAblation: queue policy at 7525 topics\n")
		fmt.Printf("  EDF  (FRAME): latency success %6.2f%%\n", edf)
		fmt.Printf("  FCFS:         latency success %6.2f%%\n", fcfs)
		b.ReportMetric(edf-fcfs, "edf-advantage-pp")
	}
}

// BenchmarkExtensionMultiEdge runs the beyond-paper extension: N edges
// (Fig. 1's Edge 1..N) sharing one bounded cloud ingest host. Edge-bound
// latency must stay flat while the shared cloud saturates.
func BenchmarkExtensionMultiEdge(b *testing.B) {
	cfg := benchConfig()
	cfg.Runs = 1
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMultiEdge(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n%s\n", res.Format())
	}
}

// BenchmarkTable1StrategyComparison makes the paper's Table 1 argument
// quantitative: it compares the per-message cost of the three loss-
// tolerance strategies — publisher retention (a ring-buffer push), backup
// brokers (an in-memory replication hop), and local disk (a durable
// append). The paper chose not to evaluate local disk "because it performs
// relatively slowly"; this bench measures by how much.
func BenchmarkTable1StrategyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		const n = 256
		// Strategy 1: publisher retention — ring push (measured in-loop by
		// the ringbuf micro-bench; here we report the replication hop and
		// disk numbers that dominate the comparison).
		hop := simcluster.DefaultCostModel().Replicate // calibrated in-memory hop
		noSync := appendLatency(b, diskstore.SyncNever, n)
		always := appendLatency(b, diskstore.SyncAlways, n)
		fmt.Printf("\nTable 1 strategies — per-message cost of a loss-tolerance copy\n")
		fmt.Printf("  backup broker (in-memory hop, calibrated): %10v\n", hop)
		fmt.Printf("  local disk, OS-buffered append:            %10v\n", noSync.Round(time.Nanosecond))
		fmt.Printf("  local disk, fsync per message:             %10v\n", always.Round(time.Nanosecond))
		b.ReportMetric(float64(always)/float64(hop), "fsync-vs-hop-x")
	}
}

// appendLatency is the mean latency of n appends of a 16-byte message to the
// durable mode's segmented log under the policy.
func appendLatency(b *testing.B, policy diskstore.SyncPolicy, n int) time.Duration {
	l, _, err := diskstore.OpenSegmented(b.TempDir(), diskstore.SegmentOptions{Policy: policy, RetainBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	m := wire.Message{Topic: 1, Payload: make([]byte, 16)}
	start := time.Now()
	for i := 1; i <= n; i++ {
		m.Seq = uint64(i)
		if err := l.Append(m); err != nil {
			b.Fatal(err)
		}
	}
	return time.Since(start) / time.Duration(n)
}

// benchmarkDispatchLanes drives the sharded engine exactly the way the
// broker's lane workers do — one goroutine per lane pushing its topics'
// messages and draining its own EDF heap under a per-lane mutex — and
// asserts per-topic FIFO on every dispatch. Lanes share nothing, so the
// ns/op ratio between the 1-, 4-, and 8-lane variants is the lane-scaling
// headroom of the dispatch path on this machine (on a single-core runner
// all variants collapse to the same schedule).
func benchmarkDispatchLanes(b *testing.B, lanes int) {
	const topicCount = 64
	const chunkPerTopic = 512
	eng, err := core.New(core.Config{
		Params: timing.Params{
			DeltaBSEdge:  time.Millisecond,
			DeltaBSCloud: time.Millisecond,
			DeltaBB:      time.Millisecond,
			Failover:     50 * time.Millisecond,
		},
		Policy:           queue.PolicyEDF,
		Lanes:            lanes,
		MessageBufferCap: chunkPerTopic,
	})
	if err != nil {
		b.Fatal(err)
	}
	laneTopics := make([][]spec.TopicID, lanes)
	for i := 0; i < topicCount; i++ {
		tp := spec.Topic{
			ID: spec.TopicID(i + 1), Category: -1,
			Period: 20 * time.Millisecond, Deadline: time.Second,
			Retention: 8, Destination: spec.DestEdge, PayloadSize: 16,
		}
		if err := eng.AddTopic(tp); err != nil {
			b.Fatal(err)
		}
		l := eng.LaneFor(tp.ID)
		laneTopics[l] = append(laneTopics[l], tp.ID)
	}
	laneMu := make([]sync.Mutex, lanes)
	// Each topic is owned end-to-end by one lane's single goroutine, so the
	// per-topic counters need no synchronization.
	lastSeq := make([]uint64, topicCount+1)
	nextSeq := make([]uint64, topicCount+1)
	var now atomic.Int64 // synthetic clock: created times stay monotone
	var sink atomic.Uint64

	b.ReportAllocs()
	b.ResetTimer()
	remaining := b.N
	for remaining > 0 {
		// Cap the chunk so per-topic in-flight stays within the Message
		// Buffer — an evicted entry would break the FIFO assertion.
		per := chunkPerTopic
		if need := (remaining + topicCount - 1) / topicCount; need < per {
			per = need
		}
		laneQuota := make([]int, lanes)
		left := remaining
		for l := 0; l < lanes && left > 0; l++ {
			q := per * len(laneTopics[l])
			if q > left {
				q = left
			}
			laneQuota[l] = q
			left -= q
		}
		pushed := remaining - left
		var wg sync.WaitGroup
		for l := 0; l < lanes; l++ {
			if laneQuota[l] == 0 {
				continue
			}
			l := l
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Push this lane's share, then drain this lane. Both halves
				// touch only this lane's mutex — the broker's worker contract.
				budget := laneQuota[l]
				for _, id := range laneTopics[l] {
					n := per
					if n > budget {
						n = budget
					}
					budget -= n
					for k := 0; k < n; k++ {
						nextSeq[id]++
						m := wire.Message{
							Topic: id, Seq: nextSeq[id],
							Created: time.Duration(now.Add(1)),
						}
						laneMu[l].Lock()
						err := eng.OnPublish(m, m.Created)
						laneMu[l].Unlock()
						if err != nil {
							b.Errorf("publish: %v", err)
							return
						}
					}
					if budget == 0 {
						break
					}
				}
				// Drain through NextWorkLane, the concurrent broker's pop path
				// (the messages carry no payload, so there is no reference
				// to release).
				for {
					laneMu[l].Lock()
					w, ok := eng.NextWorkLane(l)
					laneMu[l].Unlock()
					if !ok {
						return
					}
					if w.Kind != core.WorkDispatch {
						continue
					}
					if w.Msg.Seq != lastSeq[w.Msg.Topic]+1 {
						b.Errorf("topic %d dispatched seq %d after %d (FIFO broken)",
							w.Msg.Topic, w.Msg.Seq, lastSeq[w.Msg.Topic])
						return
					}
					lastSeq[w.Msg.Topic] = w.Msg.Seq
					// Synthetic per-dispatch work standing in for frame
					// encode + fan-out, so the bench measures a realistic
					// mix of queue ops and CPU rather than pure heap churn.
					h := w.Msg.Seq
					for s := 0; s < 64; s++ {
						h ^= h << 13
						h ^= h >> 7
						h ^= h << 17
					}
					sink.Add(h)
					laneMu[l].Lock()
					eng.OnDispatched(w.Job)
					laneMu[l].Unlock()
				}
			}()
		}
		wg.Wait()
		remaining -= pushed
		if pushed == 0 {
			break
		}
	}
	b.StopTimer()
	if stats := eng.Stats(); stats.Published == 0 {
		b.Fatal("benchmark published nothing")
	}
	_ = sink.Load()
}

// BenchmarkDispatchLanes{1,4,8} are the lane-scaling regression guard; see
// `make bench-compare` for the benchstat workflow. Acceptance: ≥2x ns/op
// improvement at 8 lanes vs 1 on a multi-core runner, 0 allocs/op.
func BenchmarkDispatchLanes1(b *testing.B) { benchmarkDispatchLanes(b, 1) }
func BenchmarkDispatchLanes4(b *testing.B) { benchmarkDispatchLanes(b, 4) }
func BenchmarkDispatchLanes8(b *testing.B) { benchmarkDispatchLanes(b, 8) }

// discardConn is a net.Conn whose writes vanish, so the fan-out benches
// measure the broker-side encode+enqueue cost without a kernel or a peer.
type discardConn struct{ n atomic.Uint64 }

func (d *discardConn) Read([]byte) (int, error)        { return 0, io.EOF }
func (d *discardConn) Write(p []byte) (int, error)     { d.n.Add(uint64(len(p))); return len(p), nil }
func (d *discardConn) Close() error                    { return nil }
func (d *discardConn) LocalAddr() net.Addr             { return nil }
func (d *discardConn) RemoteAddr() net.Addr            { return nil }
func (d *discardConn) SetDeadline(time.Time) error     { return nil }
func (d *discardConn) SetReadDeadline(time.Time) error { return nil }
func (d *discardConn) SetWriteDeadline(t time.Time) error {
	return nil
}

// stalledConn returns one end of an in-process pipe whose peer never reads
// — the bench-side stand-in for a subscriber socket that stopped reading.
// Like a real socket's, its writes block until their deadline passes or the
// conn closes.
func stalledConn(tb testing.TB) net.Conn {
	a, b := net.Pipe()
	tb.Cleanup(func() { a.Close(); b.Close() })
	return a
}

// benchmarkFanoutAsync measures the broker's fan-out: the dispatch loop
// encodes once into a pooled FrameBuf and enqueues a
// retained reference onto each subscriber's egress ring; a shared flusher
// pool (the broker's default egress mode) drains the rings with vectored
// writes. This is exactly what broker.dispatch does per Work item, so the
// measured cost is the EDF lane's per-message share. Acceptance: 0
// allocs/op and 0 B/op steady state.
func benchmarkFanoutAsync(b *testing.B, subs int, stalled bool) {
	sink := &discardConn{}
	pool := transport.NewFlusherPool(transport.FlusherPoolConfig{})
	egs := make([]*transport.Egress, 0, subs+1)
	var meter transport.EgressMeter
	for i := 0; i < subs; i++ {
		egs = append(egs, transport.NewEgress(transport.NewConn(sink),
			transport.EgressConfig{Depth: 4096, Shed: true, Meter: &meter, Pool: pool}))
	}
	if stalled {
		// One ring wedged behind a socket that never completes a write: it
		// must absorb and shed, and its write is handed off from its
		// flusher, without slowing the loop below.
		egs = append(egs, transport.NewEgress(transport.NewConn(stalledConn(b)),
			transport.EgressConfig{Depth: 64, Shed: true, Meter: &meter, Pool: pool}))
	}
	m := wire.Message{Topic: 7, Seq: 0, Created: time.Millisecond, Payload: make([]byte, 16)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Seq++
		fb := transport.GetFrameBuf()
		fb.B = wire.AppendDispatchBody(fb.B[:0], &m, time.Duration(i))
		fb.RetainN(len(egs))
		for _, eg := range egs {
			eg.Enqueue(fb, 7, spec.LossUnbounded)
		}
		fb.Release()
	}
	b.StopTimer()
	transport.Retire(egs...)
	pool.Close()
	if meter.Enqueued.Load() == 0 {
		b.Fatal("async fan-out enqueued nothing")
	}
}

// BenchmarkFanoutAsync{8,64} sweep fan-out widths through the egress path;
// BenchmarkFanoutAsync64Stalled adds a wedged 65th subscriber to show the
// enqueue cost does not degrade when a sibling's socket stops draining.
func BenchmarkFanoutAsync8(b *testing.B)         { benchmarkFanoutAsync(b, 8, false) }
func BenchmarkFanoutAsync64(b *testing.B)        { benchmarkFanoutAsync(b, 64, false) }
func BenchmarkFanoutAsync64Stalled(b *testing.B) { benchmarkFanoutAsync(b, 64, true) }

// BenchmarkEgressWritev measures the lossless egress pipeline end to end:
// blocking mode (no shedding), one ring, writer batching frames into
// net.Buffers vectored flushes. ns/op is the full enqueue→writev cost per
// frame; allocs/op must be 0 once the pool is warm.
func BenchmarkEgressWritev(b *testing.B) {
	sink := &discardConn{}
	var meter transport.EgressMeter
	eg := transport.NewEgress(transport.NewConn(sink),
		transport.EgressConfig{Depth: 1024, Shed: false, Meter: &meter})
	m := wire.Message{Topic: 3, Seq: 0, Created: time.Millisecond, Payload: make([]byte, 16)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Seq++
		fb := transport.GetFrameBuf()
		fb.B = wire.AppendDispatchBody(fb.B[:0], &m, time.Duration(i))
		eg.Enqueue(fb, 3, 0)
	}
	b.StopTimer()
	drainAndCloseEgress(b, eg, &meter)
	if meter.Batches.Load() == 0 {
		b.Fatal("writer never flushed a batch")
	}
}

// drainAndCloseEgress waits for a lossless ring to write the b.N frames the
// benchmark enqueued, retires it, and fails the benchmark if any was dropped.
func drainAndCloseEgress(b *testing.B, eg *transport.Egress, meter *transport.EgressMeter) {
	b.Helper()
	for deadline := time.Now().Add(5 * time.Second); meter.Flushed.Load() < uint64(b.N) && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	transport.Retire(eg)
	if got := meter.Flushed.Load(); got != uint64(b.N) {
		b.Fatalf("flushed %d frames, want %d (blocking mode must not drop)", got, b.N)
	}
}

// BenchmarkReplicateEnqueue measures what a Replicate costs a dispatch lane
// now that the Primary→Backup link is a ring on the shared flusher pool:
// encode into a pooled buffer, one enqueue, backpressure when the ring is
// full (the link never sheds). The write(2) it used to block in is the
// flusher's, batched. allocs/op must be 0 once the pool is warm.
func BenchmarkReplicateEnqueue(b *testing.B) {
	pool := transport.NewFlusherPool(transport.FlusherPoolConfig{})
	var meter transport.EgressMeter
	ring := transport.NewEgress(transport.NewConn(&discardConn{}),
		transport.EgressConfig{Stall: broker.DefaultPeerWriteTimeout, Meter: &meter, Pool: pool})
	m := wire.Message{Topic: 3, Created: time.Millisecond, Payload: make([]byte, 16)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Seq++
		fb := transport.GetFrameBuf()
		fb.B = wire.AppendReplicateBody(fb.B[:0], &m, time.Duration(i))
		ring.Enqueue(fb, 0, 0)
	}
	b.StopTimer()
	drainAndCloseEgress(b, ring, &meter)
	pool.Close()
}

// benchmarkRecvBatched measures the receive path per frame when one write
// delivers a batch of frames, as the egress flushers' writev does: over
// loopback TCP a sender writes the same 32-frame batch over and over and the
// timed side receives b.N frames in alias mode. ns/op is per frame, read(2)
// included; reads/frame reports how many kernel crossings that took.
// allocs/op must be 0.
func benchmarkRecvBatched(b *testing.B, payload int) {
	const perWrite = 32
	tcp := &transport.TCP{DialTimeout: time.Second}
	ln, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		sender := transport.NewConn(nc)
		defer sender.Close()
		m := wire.Message{Topic: 3, Seq: 1, Created: time.Millisecond, Payload: make([]byte, payload)}
		body := wire.AppendDispatchBody(nil, &m, time.Millisecond)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
		batch := make(net.Buffers, 0, 2*perWrite)
		for err == nil {
			batch = batch[:0] // the vectored write nils the entries it consumed
			for i := 0; i < perWrite; i++ {
				batch = append(batch, hdr[:], body)
			}
			err = sender.WriteBuffers(batch, perWrite, perWrite*(4+len(body)))
		}
	}()
	nc, err := tcp.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	recv := transport.NewConn(nc)
	defer recv.Close()
	recv.SetZeroCopy(true)
	var meter transport.Meter
	recv.SetMeter(&meter)
	var f wire.Frame
	for i := 0; i < 4*perWrite; i++ { // let the receive window size itself
		if err := recv.RecvInto(&f); err != nil {
			b.Fatal(err)
		}
	}
	reads := meter.ReadSyscalls.Load()
	b.SetBytes(int64(payload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := recv.RecvInto(&f); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(meter.ReadSyscalls.Load()-reads)/float64(b.N), "reads/frame")
}

func BenchmarkRecvBatched64B(b *testing.B)   { benchmarkRecvBatched(b, 64) }
func BenchmarkRecvBatched16KiB(b *testing.B) { benchmarkRecvBatched(b, 16<<10) }

// writeCountingNet dials TCP and counts, per connection, the Write calls and
// bytes that reach the socket. Below a wrapped conn transport gathers a ring
// batch into one Write, so a call here is one write(2), as a writev is on
// the bare socket.
type writeCountingNet struct {
	transport.TCP
	conn *writeCountingConn // the last one dialed
}

type writeCountingConn struct {
	net.Conn
	writes, bytes atomic.Int64
}

func (n *writeCountingNet) Dial(addr string) (net.Conn, error) {
	nc, err := n.TCP.Dial(addr)
	if err != nil {
		return nil, err
	}
	n.conn = &writeCountingConn{Conn: nc}
	return n.conn, nil
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// benchmarkPublishBurst measures the publisher hop (the paper's ΔPB sender
// side) the way a §VI proxy drives it: bursts of 50 Publish calls over
// loopback TCP to a broker that only drains, the next burst starting once
// the last byte of this one is in the kernel. An op is one message, so
// ns/op is per message, uplink writer included; writes/msg is the kernel
// crossings that took (2 when every Publish wrote its own prefix and body).
// Retention is on, as for every replicated topic. allocs/op must be 0.
func benchmarkPublishBurst(b *testing.B, payload int) {
	const burst = 50
	netw := &writeCountingNet{TCP: transport.TCP{DialTimeout: time.Second}}
	ln, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		io.Copy(io.Discard, nc) //nolint:errcheck // drains until the publisher closes
	}()
	start := time.Now()
	pub, err := client.NewPublisher(client.PublisherOptions{
		Name: "burst", PrimaryAddr: ln.Addr().String(), Network: netw,
		Clock: func() time.Duration { return time.Since(start) },
		Topics: []spec.Topic{{
			ID: 1, Category: -1, Period: 20 * time.Millisecond, Deadline: time.Second,
			LossTolerance: 0, Retention: 2, Destination: spec.DestEdge, PayloadSize: payload,
		}},
		Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	conn := netw.conn
	buf := make([]byte, payload)
	onWire := int64(4 + 1 + 4 + 8 + 8 + 4 + payload) // prefix, type, topic, seq, tc, length, payload
	sent := conn.bytes.Load()
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := pub.Publish(1, buf); err != nil {
				b.Fatal(err)
			}
		}
		sent += int64(n) * onWire
		for conn.bytes.Load() < sent {
			runtime.Gosched()
		}
	}
	for i := 0; i < 8; i++ { // retention slots, pooled buffers, the ring's scratch
		run(burst)
	}
	writes := conn.writes.Load()
	b.SetBytes(int64(payload))
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= burst {
		run(min(left, burst))
	}
	b.StopTimer()
	b.ReportMetric(float64(conn.writes.Load()-writes)/float64(b.N), "writes/msg")
}

func BenchmarkPublishBurst16B(b *testing.B)   { benchmarkPublishBurst(b, 16) }
func BenchmarkPublishBurst16KiB(b *testing.B) { benchmarkPublishBurst(b, 16<<10) }

// benchmarkBrokerRelay relays messages through a live broker over the
// in-memory network: one publisher, four subscribers, sixteen messages in
// flight. It is the payload's whole journey — the session's copy into a pooled
// buffer, the reference through intake, Message Buffer and Work, the in-place
// Dispatch frame on four egress rings, four flusher writes — and the guarded
// numbers are allocs/op (0) and that every buffer is back in the pool once
// the broker has stopped. MB/s counts published payload bytes; each is
// delivered four times.
func benchmarkBrokerRelay(b *testing.B, payload int) {
	const subscribers, outstanding = 4, 16
	base := transport.FrameBufRefs()
	mem := transport.NewMem()
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	cfg := core.FRAMEConfig(timing.Params{
		DeltaBSEdge: time.Millisecond, DeltaBSCloud: time.Millisecond,
		DeltaBB: time.Millisecond, Failover: 50 * time.Millisecond,
	})
	cfg.MessageBufferCap = 4 * outstanding
	bk, err := broker.New(broker.Options{
		Engine: cfg, Role: broker.RolePrimary, ListenAddr: "relay-bench",
		Network: mem, Clock: clock, EgressNoShed: true,
		Topics: []spec.Topic{{
			ID: 1, Category: -1, Period: 20 * time.Millisecond, Deadline: time.Second,
			LossTolerance: spec.LossUnbounded, Retention: 8, Destination: spec.DestEdge, PayloadSize: payload,
		}},
		Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})),
	})
	if err != nil {
		b.Fatal(err)
	}
	bk.Start()
	dial := func(role wire.Role) *transport.Conn {
		nc, err := mem.Dial(bk.Addr())
		if err != nil {
			b.Fatal(err)
		}
		conn := transport.NewConn(nc)
		if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: role, Name: "relay"}); err != nil {
			b.Fatal(err)
		}
		return conn
	}
	var subs [subscribers]*transport.Conn
	for i := range subs {
		subs[i] = dial(wire.RoleSubscriber)
		subs[i].SetZeroCopy(true)
		if err := subs[i].Send(&wire.Frame{Type: wire.TypeSubscribe, Topics: []spec.TopicID{1}}); err != nil {
			b.Fatal(err)
		}
	}
	for bk.Health().EgressSubs < subscribers {
		runtime.Gosched()
	}
	pub := dial(wire.RolePublisher)
	out := &wire.Frame{Type: wire.TypePublish, Msg: wire.Message{Topic: 1, Payload: make([]byte, payload)}}
	in := transport.GetFrame()
	round := func(n int) {
		for i := 0; i < n; i++ {
			out.Msg.Seq++
			out.Msg.Created = clock()
			if err := pub.Send(out); err != nil {
				b.Fatal(err)
			}
		}
		for _, sub := range subs {
			for i := 0; i < n; i++ {
				if err := sub.RecvInto(in); err != nil || in.Type != wire.TypeDispatch || len(in.Msg.Payload) != payload {
					b.Fatalf("dispatch: %v, %d bytes, %v", in.Type, len(in.Msg.Payload), err)
				}
			}
		}
	}
	for i := 0; i < 32; i++ {
		round(outstanding) // size the receive windows and fill the pools
	}
	b.SetBytes(int64(payload))
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= outstanding {
		round(min(left, outstanding))
	}
	b.StopTimer()
	transport.PutFrame(in)
	pub.Close()
	for _, sub := range subs {
		sub.Close()
	}
	bk.Stop()
	if refs := transport.FrameBufRefs(); refs != base {
		b.Errorf("%d FrameBufs still checked out after the broker stopped", refs-base)
	}
}

func BenchmarkBrokerRelay16B(b *testing.B)   { benchmarkBrokerRelay(b, 16) }
func BenchmarkBrokerRelay16KiB(b *testing.B) { benchmarkBrokerRelay(b, 16<<10) }

// BenchmarkDurablePublishAck drives the whole ACK = durable pipeline of a
// live broker over one connection with sixteen publishes in flight: session
// read, staging copy, intake, dispatch, prune marker, group commit, PubAck
// encode and the flusher's vectored ack write. ns/op is one commit round
// shared by sixteen publishes (the fsync window dominates it); the guarded
// numbers are allocs/op and B/op, which must stay 0 — the path runs per
// message at ten thousand messages a second between collections.
func BenchmarkDurablePublishAck(b *testing.B) {
	const outstanding = 16
	mem := transport.NewMem()
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	cfg := core.FRAMEConfig(timing.Params{
		DeltaBSEdge: time.Millisecond, DeltaBSCloud: time.Millisecond,
		DeltaBB: time.Millisecond, Failover: 50 * time.Millisecond,
	})
	cfg.MessageBufferCap = 64
	bk, err := broker.New(broker.Options{
		Engine: cfg, Role: broker.RolePrimary, ListenAddr: "durable-bench",
		Network: mem, Clock: clock, IntakeDepth: 64,
		Topics: []spec.Topic{{
			ID: 1, Category: -1, Period: 20 * time.Millisecond, Deadline: time.Second,
			LossTolerance: spec.LossUnbounded, Retention: 8, Destination: spec.DestEdge, PayloadSize: 256,
		}},
		Logger:  slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})),
		Durable: true, LogDir: b.TempDir(), FsyncInterval: 100 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	bk.Start()
	defer bk.Stop()
	nc, err := mem.Dial(bk.Addr())
	if err != nil {
		b.Fatal(err)
	}
	conn := transport.NewConn(nc)
	defer conn.Close()
	out := &wire.Frame{Type: wire.TypePublish, Msg: wire.Message{Topic: 1, Payload: make([]byte, 256)}}
	in := transport.GetFrame()
	defer transport.PutFrame(in)
	round := func(n int) {
		// All n go out before the first ack is read; over the synchronous
		// Mem pipe that only works because the session never waits for the
		// disk or for the ack write.
		for i := 0; i < n; i++ {
			out.Msg.Seq++
			out.Msg.Created = clock()
			if err := conn.Send(out); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if err := conn.RecvInto(in); err != nil || in.Type != wire.TypePubAck {
				b.Fatalf("ack: %v %v", in.Type, err)
			}
		}
	}
	for i := 0; i < 32; i++ {
		round(outstanding)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= outstanding {
		round(min(left, outstanding))
	}
}

// fanoutP99 runs `rounds` encode+enqueue fan-out iterations over egs and
// returns the p99 per-iteration latency. The iteration is what an EDF lane
// executes per dispatched message, so this is the dispatch-latency quantile
// the ISSUE's acceptance criterion speaks about.
func fanoutP99(egs []*transport.Egress, rounds int) time.Duration {
	durs := make([]time.Duration, rounds)
	m := wire.Message{Topic: 7, Seq: 0, Created: time.Millisecond, Payload: make([]byte, 16)}
	for i := range durs {
		m.Seq++
		start := time.Now()
		fb := transport.GetFrameBuf()
		fb.B = wire.AppendDispatchBody(fb.B[:0], &m, 0)
		fb.RetainN(len(egs))
		for _, eg := range egs {
			eg.Enqueue(fb, 7, spec.LossUnbounded)
		}
		fb.Release()
		durs[i] = time.Since(start)
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	return durs[len(durs)*99/100]
}

// TestStalledSubscriberFanoutIsolation is the acceptance criterion for the
// asynchronous egress: with one artificially stalled subscriber in the
// fan-out set, p99 dispatch latency for the remaining subscribers must stay
// within 2x of the no-stall run (plus a floor absorbing scheduler jitter on
// loaded CI runners — the latencies here are single-digit microseconds).
func TestStalledSubscriberFanoutIsolation(t *testing.T) {
	const subs, rounds = 8, 4000
	newSet := func(extra net.Conn) []*transport.Egress {
		egs := make([]*transport.Egress, 0, subs+1)
		for i := 0; i < subs; i++ {
			egs = append(egs, transport.NewEgress(transport.NewConn(&discardConn{}),
				transport.EgressConfig{Depth: 4096, Shed: true}))
		}
		if extra != nil {
			egs = append(egs, transport.NewEgress(transport.NewConn(extra),
				transport.EgressConfig{Depth: 64, Shed: true}))
		}
		return egs
	}

	base := newSet(nil)
	fanoutP99(base, rounds) // warm pools and writers
	p99Base := fanoutP99(base, rounds)
	transport.Retire(base...)

	stalled := newSet(stalledConn(t))
	fanoutP99(stalled, rounds)
	p99Stalled := fanoutP99(stalled, rounds)
	transport.Retire(stalled...)

	limit := 2 * p99Base
	if floor := time.Millisecond; limit < floor {
		limit = floor
	}
	t.Logf("fan-out p99: no-stall %v, stalled sibling %v (limit %v)", p99Base, p99Stalled, limit)
	if p99Stalled > limit {
		t.Fatalf("stalled sibling degraded dispatch p99: %v > %v (2x no-stall, 1ms floor)",
			p99Stalled, limit)
	}
}
