// Slow-subscriber egress experiment: fan-out delivery throughput of a live
// broker with and without a wedged subscriber sharing the egress path.
//
// Like lanescale, this is a property of the real runtime, not the simulator:
// the asynchronous egress exists so that one subscriber that stops reading
// cannot stall the EDF lanes or its healthy siblings. The experiment runs the
// same fan-out burst twice — once with only healthy subscribers, once with an
// extra subscriber that never reads — over the in-process network (where
// backpressure reaches the broker synchronously instead of pooling in kernel
// socket buffers) and reports the healthy side's throughput in both regimes
// plus the broker's shed/eviction counters for the wedged one.

package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
	"repro/internal/wire"
)

// EgressOptions parameterizes the slow-subscriber fan-out run.
type EgressOptions struct {
	// Subs is the healthy subscriber count; 0 means 4.
	Subs int
	// Depth is the per-subscriber egress ring depth; 0 means 256.
	Depth int
	// Topics is the topic count; 0 means 32.
	Topics int
	// PerTopic is how many messages each topic publishes; 0 means 100.
	PerTopic int
	// Publishers is the number of concurrent publishing connections;
	// 0 means 2.
	Publishers int
	// Interval paces each publisher between frames, like a Ti-driven
	// workload; 0 means 200µs. (A flat-out burst would overflow every
	// ring at once and measure the shed policy, not the isolation.)
	Interval time.Duration
}

func (o EgressOptions) withDefaults() EgressOptions {
	if o.Subs == 0 {
		o.Subs = 4
	}
	if o.Depth == 0 {
		o.Depth = 256
	}
	if o.Topics == 0 {
		o.Topics = 32
	}
	if o.PerTopic == 0 {
		o.PerTopic = 100
	}
	if o.Publishers == 0 {
		o.Publishers = 2
	}
	if o.Interval == 0 {
		o.Interval = 200 * time.Microsecond
	}
	return o
}

// EgressPoint is one measured regime.
type EgressPoint struct {
	Stalled    bool // whether a never-reading subscriber shared the broker
	Messages   int  // delivered to the healthy subscribers, total
	Elapsed    time.Duration
	Throughput float64 // healthy deliveries per second
	Shed       uint64
	Evictions  uint64
}

// EgressResult is the two-regime outcome.
type EgressResult struct {
	Subs   int
	Depth  int
	Points []EgressPoint
}

// RunEgress measures healthy-subscriber fan-out throughput without and with a
// wedged subscriber. The isolation the per-subscriber rings provide shows up
// as the ratio between the two points staying near 1.0, with the wedged run
// shedding within Li and ending in an eviction rather than a stall.
func RunEgress(cfg Config, opts EgressOptions) (*EgressResult, error) {
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()
	res := &EgressResult{Subs: opts.Subs, Depth: opts.Depth}
	for _, stalled := range []bool{false, true} {
		cfg.progress("egress: subs=%d depth=%d stalled=%v", opts.Subs, opts.Depth, stalled)
		p, err := runEgressPoint(stalled, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: egress stalled=%v: %w", stalled, err)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

func runEgressPoint(stalled bool, opts EgressOptions) (EgressPoint, error) {
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
			ID:       spec.TopicID(i + 1),
			Category: -1,
			Period:   20 * time.Millisecond,
			Deadline: time.Second,
			// Li bounds how many consecutive frames the wedged
			// subscriber's ring may shed before it is evicted.
			LossTolerance: 8,
			Retention:     8,
			Destination:   spec.DestEdge,
			PayloadSize:   64,
		}
		ids[i] = topics[i].ID
	}
	engineCfg := core.FRAMEConfig(params)
	engineCfg.MessageBufferCap = opts.PerTopic

	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	net := transport.NewMem()
	b, err := broker.New(broker.Options{
		Engine:      engineCfg,
		Role:        broker.RolePrimary,
		ListenAddr:  "primary",
		Network:     net,
		Clock:       clock,
		EgressDepth: opts.Depth,
		Topics:      topics,
		Logger:      quietLogger(),
	})
	if err != nil {
		return EgressPoint{}, err
	}
	b.Start()
	defer b.Stop()

	subs := make([]*client.Subscriber, opts.Subs)
	for i := range subs {
		subs[i], err = client.NewSubscriber(client.SubscriberOptions{
			Name:        fmt.Sprintf("egress-sub-%d", i),
			Topics:      ids,
			BrokerAddrs: []string{b.Addr()},
			Network:     net,
			Clock:       clock,
			Logger:      quietLogger(),
		})
		if err != nil {
			return EgressPoint{}, err
		}
		defer subs[i].Close()
	}

	want := opts.Subs
	if stalled {
		nc, err := net.Dial(b.Addr())
		if err != nil {
			return EgressPoint{}, err
		}
		wedged := transport.NewConn(nc)
		defer wedged.Close()
		if err := wedged.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RoleSubscriber, Name: "egress-wedged"}); err != nil {
			return EgressPoint{}, err
		}
		if err := wedged.Send(&wire.Frame{Type: wire.TypeSubscribe, Topics: ids}); err != nil {
			return EgressPoint{}, err
		}
		// The connection is never read again: over net.Pipe the broker's
		// next write to it wedges, its ring fills, and the shed/evict
		// policy takes over.
		want++
	}
	if err := awaitSubscriptions(b, want); err != nil {
		return EgressPoint{}, err
	}

	total := opts.Topics * opts.PerTopic
	begin := time.Now()
	errCh := make(chan error, opts.Publishers)
	for p := 0; p < opts.Publishers; p++ {
		own := ids[p*len(ids)/opts.Publishers : (p+1)*len(ids)/opts.Publishers]
		go func() { errCh <- publishPaced(net, b.Addr(), clock, own, opts.PerTopic, opts.Interval) }()
	}
	for p := 0; p < opts.Publishers; p++ {
		if err := <-errCh; err != nil {
			return EgressPoint{}, err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		n := uint64(0)
		for _, sub := range subs {
			n += received(sub, ids)
		}
		if n >= uint64(total*opts.Subs) {
			break
		}
		if time.Now().After(deadline) {
			return EgressPoint{}, fmt.Errorf("healthy subscribers got %d of %d before timeout", n, total*opts.Subs)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(begin)
	stats := b.EgressStats()
	return EgressPoint{
		Stalled:    stalled,
		Messages:   total * opts.Subs,
		Elapsed:    elapsed,
		Throughput: float64(total*opts.Subs) / elapsed.Seconds(),
		Shed:       stats.Shed,
		Evictions:  stats.Evictions,
	}, nil
}

// publishPaced publishes every message of the owned topics over one raw
// connection, sleeping between frames the way a Ti-driven publisher would.
func publishPaced(net transport.Network, addr string, clock func() time.Duration, own []spec.TopicID, perTopic int, interval time.Duration) error {
	nc, err := net.Dial(addr)
	if err != nil {
		return err
	}
	conn := transport.NewConn(nc)
	defer conn.Close()
	if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RolePublisher, Name: "egress-pub"}); err != nil {
		return err
	}
	payload := make([]byte, 64)
	for seq := uint64(1); seq <= uint64(perTopic); seq++ {
		for _, id := range own {
			f := &wire.Frame{Type: wire.TypePublish, Msg: wire.Message{
				Topic: id, Seq: seq, Created: clock(), Payload: payload,
			}}
			if err := conn.Send(f); err != nil {
				return err
			}
			time.Sleep(interval)
		}
	}
	return nil
}

// Format renders both regimes with the stalled/healthy throughput ratio.
func (r *EgressResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Slow-subscriber egress: healthy fan-out throughput, %d subs, ring depth %d\n", r.Subs, r.Depth)
	fmt.Fprintf(&sb, "%8s  %10s  %10s  %12s  %8s  %6s  %6s\n",
		"stalled", "messages", "elapsed", "msgs/sec", "vs base", "shed", "evict")
	var base float64
	for i, p := range r.Points {
		if i == 0 {
			base = p.Throughput
		}
		ratio := 0.0
		if base > 0 {
			ratio = p.Throughput / base
		}
		fmt.Fprintf(&sb, "%8v  %10d  %10v  %12.0f  %7.2fx  %6d  %6d\n",
			p.Stalled, p.Messages, p.Elapsed.Round(time.Millisecond), p.Throughput, ratio, p.Shed, p.Evictions)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// WriteCSV stores both regimes as one row each.
func (r *EgressResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "stalled,messages,elapsed_seconds,throughput_msgs_per_sec,shed,evictions"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%v,%d,%.6f,%.1f,%d,%d\n",
			p.Stalled, p.Messages, p.Elapsed.Seconds(), p.Throughput, p.Shed, p.Evictions); err != nil {
			return err
		}
	}
	return nil
}
