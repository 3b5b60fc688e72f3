package metrics

import (
	"sync"
	"time"

	"repro/internal/ringbuf"
	"repro/internal/spec"
)

// RecentKeep is how many of a topic's newest latency samples
// RecentLatencies keeps.
const RecentKeep = 256

// RecentLatencies keeps each topic's RecentKeep newest latency samples, the
// record a long-running subscriber reports from: fixed memory per topic
// however long it runs. Feed it from a subscriber's OnDeliver. The zero
// value is ready to use, and it is safe for concurrent use.
type RecentLatencies struct {
	mu     sync.Mutex
	topics map[spec.TopicID]*ringbuf.Ring[time.Duration]
}

// Record adds one sample for the topic, evicting its oldest beyond
// RecentKeep.
func (r *RecentLatencies) Record(topic spec.TopicID, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ring := r.topics[topic]
	if ring == nil {
		if r.topics == nil {
			r.topics = make(map[spec.TopicID]*ringbuf.Ring[time.Duration])
		}
		ring = ringbuf.New[time.Duration](RecentKeep)
		r.topics[topic] = ring
	}
	ring.Push(d)
}

// Latencies returns a copy of the topic's kept samples, oldest first, or
// nil if none arrived.
func (r *RecentLatencies) Latencies(topic spec.TopicID) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ring := r.topics[topic]; ring != nil {
		return ring.Snapshot()
	}
	return nil
}
