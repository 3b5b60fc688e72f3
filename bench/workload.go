package main

import (
	"fmt"
	"time"

	"repro/internal/broker"
	"repro/internal/spec"
)

// loop says how a workload offers load.
type loop int

const (
	// openLoop publishes on a schedule fixed before the run; latency is
	// taken from each message's due time.
	openLoop loop = iota
	// floodLoop publishes flat out from one goroutine while fewer than
	// floodWindow messages are undelivered: a closed loop.
	floodLoop
	// ackLoop publishes from many goroutines that each wait for a PubAck
	// before the next message.
	ackLoop
)

// workload is one traffic mix and the broker set-up it runs against.
// Everything not named here is the broker.Options default.
type workload struct {
	name, why string
	loop      loop
	topics    []spec.Topic // dense ids from 0
	subs      int          // subscribers, each on every topic
	backup    bool         // Primary + Backup pair, subscribers on both
	warmup    time.Duration
	drain     time.Duration // how long after the last publish deliveries may still arrive
	tune      func(*broker.Options)
	// ackLoop: connections, and goroutines publishing on each. A goroutine
	// has one publish outstanding, so a topic never has two in the broker.
	conns, perConn int
	// Span records pre-allocated per topic for a traced run.
	spanRecs int
}

const (
	// paperTopics is the smallest of the paper's workload sizes (1525, 4525,
	// 7525, ...). At 4525 the two cores of the reference box run at 45-50 %
	// and queueing amplifies the box's own speed changes: over eight
	// interleaved runs each, lat_p50_us ranged 984-1887 us at 4525 topics and
	// 703-880 us at 1525.
	paperTopics = 1525
	// fanoutTopics is half the issue's 1000, for the same reason: at 1000
	// topics (41 % of the two cores) ten interleaved runs spread lat_p50_us and
	// cpu_us_per_msg by 17 % each, at 500 by 6 % and 4 %, and one slow spell of
	// the box took a 1000-topic run past saturation until a subscriber was
	// evicted.
	fanoutTopics    = 500
	paperEgressRing = 16384 // a 1024-frame ring holds less than one message per topic
)

// oneWorkerPerLane is the Workers setting of the three workloads that can
// have two messages of one topic inside the broker at once (the broker raises
// it to its lane count). With the default pool of three workers per lane, two
// workers can hold consecutive messages of one topic and enqueue them in
// either order: flood_large then delivers sequence numbers dozens apart out
// of order within seconds, and fanout_small did once in a dozen runs, when a
// vCPU stalled for a period. Per-topic FIFO is checked on every delivery and
// a violation fails the run, so these workloads run the configuration that
// has it, and each says so in its why. durable_ack keeps the default pool.
// When the broker is fixed, drop this and re-baseline the three workloads.
const oneWorkerPerLane = 1

var workloadNames = []string{"paper_mix", "fanout_small", "flood_large", "durable_ack"}

func newWorkload(name string) (*workload, error) {
	switch name {
	case "paper_mix":
		return paperMix(paperTopics)
	case "fanout_small":
		return fanoutSmall(fanoutTopics), nil
	case "flood_large":
		return floodLarge(), nil
	case "durable_ack":
		return durableAck(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// paperMix is the paper's own Table 2 traffic at the given workload size.
func paperMix(total int) (*workload, error) {
	pw, err := spec.NewWorkload(total)
	if err != nil {
		return nil, err
	}
	return &workload{
		name: "paper_mix",
		why: "the paper's Table 2 mix (1525 topics, 15.3k msg/s, 16 B, Primary+Backup; 1 worker per lane, for FIFO): " +
			"core EDF, Prop. 1 suppression, Table 3 prune, queue, intake and the replication link do the work",
		loop:   openLoop,
		topics: pw.Topics,
		subs:   1,
		backup: true,
		warmup: 2 * time.Second,
		drain:  5 * time.Second,
		tune: func(o *broker.Options) {
			o.EgressDepth = paperEgressRing
			o.Workers = oneWorkerPerLane
		},
		// 10 messages a second per topic at most, one in 16 sampled.
		spanRecs: 64,
	}, nil
}

func uniformTopics(n int, t spec.Topic) []spec.Topic {
	out := make([]spec.Topic, n)
	for i := range out {
		out[i] = t
		out[i].ID = spec.TopicID(i)
	}
	return out
}

func fanoutSmall(topics int) *workload {
	return &workload{
		name: "fanout_small",
		why: "500 topics x 20 msg/s x 8 subscribers = 80k deliveries/s of 64 B, Primary only, 1 worker per lane (FIFO): " +
			"egress rings, flushers, io_uring sweeps and client receive do 8x the work of core and queue",
		loop: openLoop,
		topics: uniformTopics(topics, spec.Topic{
			Category: -1, Period: 50 * time.Millisecond, Deadline: 50 * time.Millisecond,
			LossTolerance: 3, Destination: spec.DestEdge, PayloadSize: 64,
		}),
		subs:   8,
		warmup: 2 * time.Second,
		drain:  5 * time.Second,
		tune: func(o *broker.Options) {
			o.EgressDepth = 8192
			o.Workers = oneWorkerPerLane
		},
		spanRecs: 64,
	}
}

func floodLarge() *workload {
	return &workload{
		name: "flood_large",
		why: "flat out, 256 messages of 16 KiB in flight, 8 best-effort topics, 4 subscribers, no shedding, 1 worker " +
			"per lane (FIFO): bytes and copies (wire, receive buffers, intake copy, large writev); capacity",
		loop: floodLoop,
		topics: uniformTopics(8, spec.Topic{
			Category: -1, Period: time.Millisecond, Deadline: time.Second,
			LossTolerance: spec.LossUnbounded, Destination: spec.DestEdge, PayloadSize: 16 << 10,
		}),
		subs:   4,
		warmup: 2 * time.Second,
		drain:  15 * time.Second,
		tune: func(o *broker.Options) {
			o.EgressNoShed = true
			o.Workers = oneWorkerPerLane
			// A message evicted from the Message Buffer before its dispatch
			// job runs is never dispatched. The default 16 slots a topic are
			// fewer than the flood window can put in flight on one topic.
			o.Engine.MessageBufferCap = floodWindow
		},
		spanRecs: 8192,
	}
}

func durableAck() *workload {
	return &workload{
		name: "durable_ack",
		why: "ACK = durable: 2 connections x 16 goroutines each waiting for its PubAck, 256 B, log on the real disk, default " +
			"workers: diskstore group commit and the ack path, many publishes in flight per connection",
		loop: ackLoop,
		topics: uniformTopics(64, spec.Topic{
			Category: -1, Period: 100 * time.Millisecond, Deadline: 100 * time.Millisecond,
			LossTolerance: 3, Destination: spec.DestEdge, PayloadSize: 256,
		}),
		subs:     1,
		warmup:   2 * time.Second,
		drain:    5 * time.Second,
		tune:     func(o *broker.Options) { o.Durable = true },
		conns:    2,
		perConn:  16,
		spanRecs: 2048,
	}
}
