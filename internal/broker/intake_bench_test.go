package broker

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// BenchmarkPublishContendedMPSC hammers the broker's publish handoff — the
// session's copy into a pooled buffer and the push of that reference into the
// lane's MPSC intake — from parallel producers while its own lane dispatchers
// drain concurrently: the session-goroutine contention BenchmarkDispatchLanes
// cannot see, since it pushes and pops from the same goroutine per lane.
// RunParallel spawns GOMAXPROCS producers, so read it on a multi-core runner.
func BenchmarkPublishContendedMPSC(b *testing.B) {
	const topicCount = 64
	cfg := core.FRAMEConfig(lanParams())
	cfg.Lanes = 4
	cfg.MessageBufferCap = 1024
	topics := make([]spec.Topic, topicCount)
	for i := range topics {
		topics[i] = lanTopic(spec.TopicID(i+1), 8)
		topics[i].LossTolerance = spec.LossUnbounded
	}
	bk, err := New(Options{
		Engine:     cfg,
		Role:       RolePrimary,
		ListenAddr: "bench-primary",
		Network:    transport.NewMem(),
		Clock:      testClock(),
		Topics:     topics,
		Logger:     quietLogger(),
	})
	if err != nil {
		b.Fatal(err)
	}
	bk.Start()
	defer bk.Stop()

	payload := make([]byte, 16)
	var nextTopic atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each producer owns one topic, so per-topic seqs stay monotone
		// without coordination; the shared state under test is the lane
		// intake itself.
		id := spec.TopicID(nextTopic.Add(1)-1)%topicCount + 1
		seq := uint64(0)
		for pb.Next() {
			seq++
			m := wire.Message{Topic: id, Seq: seq, Created: bk.opts.Clock(), Payload: payload}
			if err := bk.onPublish(nil, wire.TypePublish, m); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
