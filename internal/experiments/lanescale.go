// Lane-scaling experiment: dispatch throughput of a live broker as the
// dispatch-lane count grows.
//
// Unlike the paper-reproduction experiments, which run in the discrete-event
// simulator's virtual time, lane scaling is a property of the real runtime —
// lock contention and syscall amortization do not exist in virtual time — so
// this experiment drives an actual broker over the in-process network and
// measures wall-clock delivery throughput. On a single-core host every lane
// count degenerates to the same schedule; run it on a multi-core machine to
// see the scaling the sharded engine buys.

package experiments

import (
	"fmt"
	"io"
	"log/slog"
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

// LaneScaleOptions parameterizes the sweep.
type LaneScaleOptions struct {
	// Lanes are the lane counts to sweep; nil means {1, 2, 4, 8}.
	Lanes []int
	// Batch is the write-batch window applied to every swept broker
	// (0 disables batching).
	Batch time.Duration
	// Topics is the topic count, spread evenly over the publishers;
	// 0 means 64.
	Topics int
	// PerTopic is how many messages each topic publishes; 0 means 200.
	PerTopic int
	// Publishers is the number of concurrent publishing connections;
	// 0 means 4.
	Publishers int
}

func (o LaneScaleOptions) withDefaults() LaneScaleOptions {
	if len(o.Lanes) == 0 {
		o.Lanes = []int{1, 2, 4, 8}
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

// LaneScalePoint is one swept lane count.
type LaneScalePoint struct {
	Lanes      int
	Messages   int
	Elapsed    time.Duration
	Throughput float64 // delivered messages per second
}

// LaneScaleResult is the sweep outcome.
type LaneScaleResult struct {
	Batch  time.Duration
	Points []LaneScalePoint
}

// RunLaneScale measures end-to-end delivery throughput (publish → dispatch →
// subscriber) for each lane count: a fixed batch of messages is pushed as
// fast as the broker accepts and the clock stops when the subscriber has
// received the last of them.
func RunLaneScale(cfg Config, opts LaneScaleOptions) (*LaneScaleResult, error) {
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()
	res := &LaneScaleResult{Batch: opts.Batch}
	for _, lanes := range opts.Lanes {
		if lanes < 1 {
			return nil, fmt.Errorf("experiments: lane count %d must be ≥ 1", lanes)
		}
		cfg.progress("lanescale: lanes=%d batch=%v", lanes, opts.Batch)
		p, err := runLanePoint(lanes, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: lanescale lanes=%d: %w", lanes, err)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// quietLogger drops the broker's operational chatter during sweeps.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
}

func runLanePoint(lanes int, opts LaneScaleOptions) (LaneScalePoint, error) {
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
			// (Ni+Li)·Ti must clear ΔBB + x for admission.
			Retention:   8,
			Destination: spec.DestEdge,
			PayloadSize: 64,
		}
		ids[i] = topics[i].ID
	}
	engineCfg := core.FRAMEConfig(params)
	// The sweep publishes in bursts rather than Ti-paced, so the Message
	// Buffer must hold a whole topic's burst — and the subscriber's egress
	// ring the whole run's, or the shed policy would read the transient
	// backlog as a dead subscriber and evict it mid-measurement.
	engineCfg.MessageBufferCap = opts.PerTopic
	egressDepth := opts.Topics * opts.PerTopic

	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	net := transport.NewMem()
	b, err := broker.New(broker.Options{
		Engine:      engineCfg,
		Role:        broker.RolePrimary,
		ListenAddr:  "primary",
		Network:     net,
		Clock:       clock,
		Lanes:       lanes,
		BatchWindow: opts.Batch,
		EgressDepth: egressDepth,
		Topics:      topics,
		Logger:      quietLogger(),
	})
	if err != nil {
		return LaneScalePoint{}, err
	}
	b.Start()
	defer b.Stop()

	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name:        "lanescale-sub",
		Topics:      ids,
		BrokerAddrs: []string{b.Addr()},
		Network:     net,
		Clock:       clock,
		Logger:      quietLogger(),
	})
	if err != nil {
		return LaneScalePoint{}, err
	}
	defer sub.Close()
	if err := awaitSubscriptions(b, 1); err != nil {
		return LaneScalePoint{}, err
	}

	total := opts.Topics * opts.PerTopic
	begin := time.Now()
	errCh := make(chan error, opts.Publishers)
	for p := 0; p < opts.Publishers; p++ {
		// Each publisher owns a disjoint topic slice, so per-topic sequence
		// numbers stay monotone from a single goroutine.
		own := ids[p*len(ids)/opts.Publishers : (p+1)*len(ids)/opts.Publishers]
		go func() { errCh <- publishBurst(net, b.Addr(), clock, own, opts.PerTopic) }()
	}
	for p := 0; p < opts.Publishers; p++ {
		if err := <-errCh; err != nil {
			return LaneScalePoint{}, err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for received(sub, ids) < uint64(total) {
		if time.Now().After(deadline) {
			return LaneScalePoint{}, fmt.Errorf("delivered %d of %d before timeout", received(sub, ids), total)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(begin)
	return LaneScalePoint{
		Lanes:      lanes,
		Messages:   total,
		Elapsed:    elapsed,
		Throughput: float64(total) / elapsed.Seconds(),
	}, nil
}

// publishBurst floods the broker with every message of the owned topics over
// one raw connection.
func publishBurst(net transport.Network, addr string, clock func() time.Duration, own []spec.TopicID, perTopic int) error {
	nc, err := net.Dial(addr)
	if err != nil {
		return err
	}
	conn := transport.NewConn(nc)
	defer conn.Close()
	if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RolePublisher, Name: "lanescale-pub"}); err != nil {
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
		}
	}
	return nil
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

func received(sub *client.Subscriber, ids []spec.TopicID) uint64 {
	var n uint64
	for _, id := range ids {
		n += sub.Received(id)
	}
	return n
}

// Format renders the sweep as a small table with speedup over one lane.
func (r *LaneScaleResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Lane scaling: delivery throughput vs dispatch lanes (batch window %v)\n", r.Batch)
	fmt.Fprintf(&sb, "%8s  %10s  %10s  %12s  %8s\n", "lanes", "messages", "elapsed", "msgs/sec", "speedup")
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
			p.Lanes, p.Messages, p.Elapsed.Round(time.Millisecond), p.Throughput, speedup)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// WriteCSV stores the sweep as lanes,messages,elapsed_seconds,throughput.
func (r *LaneScaleResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "lanes,messages,elapsed_seconds,throughput_msgs_per_sec"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%d,%d,%.6f,%.1f\n", p.Lanes, p.Messages, p.Elapsed.Seconds(), p.Throughput); err != nil {
			return err
		}
	}
	return nil
}
