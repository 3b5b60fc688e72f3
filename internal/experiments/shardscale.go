// Shard-scaling experiment: aggregate end-to-end delivery throughput of a
// multi-pair cluster as the shard count grows.
//
// Like the gateway churn run, this is a property of the real runtime, not
// the discrete-event simulator: it brings up N Primary+Backup pairs plus the
// routing Directory over the in-process network, fans a fixed message
// batch across the jump-hash topic partition, and stops the clock when the
// cluster-wide subscriber holds every message. On a single-core host every
// shard count degenerates to the same schedule; the MinSpeedup gate is
// therefore armed only when the host has at least as many CPUs as the
// largest swept shard count.

package experiments

import (
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"strings"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
)

// ShardScaleOptions parameterizes the sweep.
type ShardScaleOptions struct {
	// Shards are the pair counts to sweep; nil means {1, 2, 4}.
	Shards []int
	// Topics is the cluster-wide topic count; 0 means 64.
	Topics int
	// PerTopic is how many messages each topic publishes; 0 means 200.
	PerTopic int
	// Publishers is the number of concurrent publishing goroutines; 0
	// means 4.
	Publishers int
	// MinSpeedup, when positive, fails the sweep if the last point's
	// throughput is below MinSpeedup × the first point's — the CI gate.
	// Skipped (with a progress note) when the host has fewer CPUs than
	// the largest swept shard count, where the scaling cannot exist.
	MinSpeedup float64
}

func (o ShardScaleOptions) withDefaults() ShardScaleOptions {
	if len(o.Shards) == 0 {
		o.Shards = []int{1, 2, 4}
	}
	if o.Topics == 0 {
		o.Topics = 64
	}
	if o.PerTopic == 0 {
		o.PerTopic = 200
	}
	if o.Publishers == 0 {
		o.Publishers = 4
	}
	return o
}

// ShardScalePoint is one swept shard count.
type ShardScalePoint struct {
	Shards     int
	Messages   int
	Elapsed    time.Duration
	Throughput float64 // delivered messages per second, cluster-wide
}

// ShardScaleResult is the sweep outcome.
type ShardScaleResult struct {
	Points []ShardScalePoint
}

// Speedup is the last point's throughput over the first's.
func (r *ShardScaleResult) Speedup() float64 {
	if len(r.Points) == 0 || r.Points[0].Throughput == 0 {
		return 0
	}
	return r.Points[len(r.Points)-1].Throughput / r.Points[0].Throughput
}

// RunShardScale measures aggregate delivery throughput for each shard
// count and applies the optional MinSpeedup gate.
func RunShardScale(cfg Config, opts ShardScaleOptions) (*ShardScaleResult, error) {
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()
	res := &ShardScaleResult{}
	maxShards := 0
	for _, n := range opts.Shards {
		if n < 1 {
			return nil, fmt.Errorf("experiments: shard count %d must be ≥ 1", n)
		}
		if n > maxShards {
			maxShards = n
		}
		cfg.progress("shardscale: shards=%d", n)
		p, err := runShardPoint(n, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: shardscale shards=%d: %w", n, err)
		}
		res.Points = append(res.Points, p)
	}
	if opts.MinSpeedup > 0 {
		if runtime.NumCPU() < maxShards {
			cfg.progress("shardscale: %d CPUs < %d shards — speedup gate skipped", runtime.NumCPU(), maxShards)
		} else if s := res.Speedup(); s < opts.MinSpeedup {
			return res, fmt.Errorf("experiments: shardscale speedup %.2fx below required %.2fx\n%s",
				s, opts.MinSpeedup, res.Format())
		}
	}
	return res, nil
}

func runShardPoint(shards int, opts ShardScaleOptions) (ShardScalePoint, error) {
	params := timing.Params{
		DeltaBSEdge:  time.Millisecond,
		DeltaBSCloud: time.Millisecond,
		DeltaBB:      time.Millisecond,
		Failover:     50 * time.Millisecond,
	}
	topics := make([]spec.Topic, opts.Topics)
	ids := make([]spec.TopicID, opts.Topics)
	for i := range topics {
		topics[i] = spec.Topic{
			ID:          spec.TopicID(i + 1),
			Category:    -1,
			Period:      20 * time.Millisecond,
			Deadline:    time.Second,
			Retention:   8,
			Destination: spec.DestEdge,
			PayloadSize: 64,
		}
		ids[i] = topics[i].ID
	}
	engineCfg := core.FRAMEConfig(params)
	// Burst publishing, not Ti-paced: the Message Buffer must hold a topic's
	// whole burst, and the egress ring the whole run's, or the shed policy
	// reads the backlog as a dead subscriber and evicts it.
	engineCfg.MessageBufferCap = opts.PerTopic

	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	net := transport.NewMem()
	c, err := cluster.New(cluster.Config{
		Shards:      shards,
		Topics:      topics,
		Engine:      engineCfg,
		Network:     net,
		Mem:         true,
		Clock:       clock,
		Detector:    failover.Config{Period: 10 * time.Millisecond, Timeout: 30 * time.Millisecond, Misses: 3},
		EgressDepth: opts.Topics * opts.PerTopic,
		Logger:      quietLogger(),
	})
	if err != nil {
		return ShardScalePoint{}, err
	}
	defer c.Stop()
	router, err := cluster.NewRouter(cluster.RouterOptions{
		DirectoryAddr: c.Dir.Addr(), Network: net, Logger: quietLogger(),
	})
	if err != nil {
		return ShardScalePoint{}, err
	}
	sub, err := cluster.NewSubscriber(cluster.SubscriberOptions{
		Name: "shardscale-sub", Topics: ids, Router: router, Network: net,
		Clock: clock, Logger: quietLogger(),
	})
	if err != nil {
		return ShardScalePoint{}, err
	}
	defer sub.Close()
	for _, p := range c.Pairs {
		if err := awaitSubscriptions(p.Primary, 1); err != nil {
			return ShardScalePoint{}, err
		}
	}
	pub, err := cluster.NewPublisher(cluster.PublisherOptions{
		Name: "shardscale-pub", Topics: topics, Router: router, Network: net,
		Clock: clock, Logger: quietLogger(),
	})
	if err != nil {
		return ShardScalePoint{}, err
	}
	defer pub.Close()

	total := opts.Topics * opts.PerTopic
	payload := make([]byte, 64)
	begin := time.Now()
	errCh := make(chan error, opts.Publishers)
	for p := 0; p < opts.Publishers; p++ {
		// Disjoint topic slices keep per-topic ordering single-writer.
		own := ids[p*len(ids)/opts.Publishers : (p+1)*len(ids)/opts.Publishers]
		go func() {
			for i := 0; i < opts.PerTopic; i++ {
				for _, id := range own {
					if _, err := pub.Publish(id, payload); err != nil {
						errCh <- err
						return
					}
				}
			}
			errCh <- nil
		}()
	}
	for p := 0; p < opts.Publishers; p++ {
		if err := <-errCh; err != nil {
			return ShardScalePoint{}, err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for clusterReceived(sub, ids) < uint64(total) {
		if time.Now().After(deadline) {
			return ShardScalePoint{}, fmt.Errorf("delivered %d of %d before timeout", clusterReceived(sub, ids), total)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(begin)
	return ShardScalePoint{
		Shards:     shards,
		Messages:   total,
		Elapsed:    elapsed,
		Throughput: float64(total) / elapsed.Seconds(),
	}, nil
}

func clusterReceived(sub *cluster.Subscriber, ids []spec.TopicID) uint64 {
	var n uint64
	for _, id := range ids {
		n += sub.Received(id)
	}
	return n
}

// quietLogger drops the brokers' operational chatter during sweeps.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
}

// awaitSubscriptions waits until b has registered n subscriber sessions.
// SUBSCRIBE has no ack: NewSubscriber returns once the frame is written, and
// a publish that overtakes the registration is dispatched to nobody.
func awaitSubscriptions(b *broker.Broker, n int) error {
	for deadline := time.Now().Add(5 * time.Second); b.Health().EgressSubs < n; {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d subscriptions registered", b.Health().EgressSubs, n)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Format renders the sweep with speedup over one shard.
func (r *ShardScaleResult) Format() string {
	var sb strings.Builder
	fmt.Fprintln(&sb, "Shard scaling: aggregate delivery throughput vs broker pairs")
	fmt.Fprintf(&sb, "%8s  %10s  %10s  %12s  %8s\n", "shards", "messages", "elapsed", "msgs/sec", "speedup")
	var base float64
	for i, p := range r.Points {
		if i == 0 {
			base = p.Throughput
		}
		speedup := 0.0
		if base > 0 {
			speedup = p.Throughput / base
		}
		fmt.Fprintf(&sb, "%8d  %10d  %10v  %12.0f  %7.2fx\n",
			p.Shards, p.Messages, p.Elapsed.Round(time.Millisecond), p.Throughput, speedup)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// WriteCSV stores the sweep as shards,messages,elapsed_seconds,throughput.
func (r *ShardScaleResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "shards,messages,elapsed_seconds,throughput_msgs_per_sec"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%d,%d,%.6f,%.1f\n", p.Shards, p.Messages, p.Elapsed.Seconds(), p.Throughput); err != nil {
			return err
		}
	}
	return nil
}
