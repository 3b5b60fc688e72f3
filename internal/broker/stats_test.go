package broker

import (
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/spec"
	"repro/internal/transport"
)

// TestStatsScrapeDuringLiveRun hammers every observability read path —
// Stats, LateDispatches, Health, the /metrics gauge scrape, and the queue
// meter — from concurrent goroutines while lane workers are dispatching and
// replicating. Run under -race this proves the engine counters are safe to
// read without the engine lock (they are atomics; a scrape never blocks the
// delivery path).
func TestStatsScrapeDuringLiveRun(t *testing.T) {
	topics := []spec.Topic{lanTopic(1, 5), lanTopic(2, 5), lanTopic(3, 5), lanTopic(4, 5)}
	c := startCluster(t, transport.NewMem(), "primary", "backup", topics)

	pub, err := client.NewPublisher(client.PublisherOptions{
		Name: "pub", Topics: topics,
		PrimaryAddr: "primary", BackupAddr: "backup",
		Network: c.net, Clock: c.clock,
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, b := range []*Broker{c.primary, c.backup} {
		b := b
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Exercise every scrape surface the admin endpoint uses.
				_ = b.Stats()
				_ = b.LateDispatches()
				_ = b.Health()
				_ = b.scrapeGauges()
				qm := b.engine.QueueMeter()
				for l := 0; l < qm.Lanes(); l++ {
					_ = qm.LaneDepth(l)
				}
			}
		}()
	}

	const perTopic = 200
	for i := 0; i < perTopic; i++ {
		for _, tp := range topics {
			if _, err := pub.Publish(tp.ID, []byte("0123456789abcdef")); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, 5*time.Second, "dispatch counters to settle", func() bool {
		return c.primary.Stats().DispatchJobs >= uint64(len(topics)*perTopic)
	})
	close(stop)
	wg.Wait()

	stats := c.primary.Stats()
	if stats.Published != uint64(len(topics)*perTopic) {
		t.Errorf("Published = %d, want %d", stats.Published, len(topics)*perTopic)
	}
	if stats.DispatchJobs < stats.Published {
		t.Errorf("DispatchJobs = %d < Published = %d", stats.DispatchJobs, stats.Published)
	}
}
