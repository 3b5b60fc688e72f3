package broker

import (
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/spec"
	"repro/internal/transport"
)

// soakBudget is how long the chaos soak runs: ~4s by default so the suite
// stays quick under -race, 30s (or anything else) via FRAME_SOAK_DURATION:
//
//	FRAME_SOAK_DURATION=30s go test -race -run TestChaosSoak ./internal/broker/
func soakBudget() time.Duration {
	if d, err := time.ParseDuration(os.Getenv("FRAME_SOAK_DURATION")); err == nil && d > 0 {
		return d
	}
	return 4 * time.Second
}

// soakNetwork picks the soak transport: the deterministic in-memory
// network by default, real loopback TCP when FRAME_SOAK_TCP is set. Over
// TCP every egress batch is a real writev on a real socket, with partial
// writes and full socket buffers — this is how the nightly TCP leg
// exercises the flusher pool's write and hand-off paths under -race.
func soakNetwork() (transport.Network, bool) {
	if os.Getenv("FRAME_SOAK_TCP") != "" {
		return &transport.TCP{DialTimeout: 2 * time.Second}, true
	}
	return transport.NewMem(), false
}

// chaosTopics spread across the lanes with retention deep enough that the
// publisher's fail-over resend covers every message lost in the crash
// window. All have Li = 0: the loss assertion is exact.
func chaosTopics(n int) []spec.Topic {
	topics := make([]spec.Topic, n)
	for i := range topics {
		topics[i] = spec.Topic{
			ID:            spec.TopicID(i + 1),
			Category:      -1,
			Period:        20 * time.Millisecond,
			Deadline:      time.Second,
			LossTolerance: 0,
			Retention:     64,
			Destination:   spec.DestEdge,
			PayloadSize:   16,
		}
	}
	return topics
}

// deliveryLog records every distinct delivery the subscriber surfaced to the
// application, for the at-most-once assertion.
type deliveryLog struct {
	mu     sync.Mutex
	counts map[spec.TopicID]map[uint64]int
}

func newDeliveryLog() *deliveryLog {
	return &deliveryLog{counts: make(map[spec.TopicID]map[uint64]int)}
}

func (l *deliveryLog) record(d client.Delivery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.counts[d.Msg.Topic]
	if m == nil {
		m = make(map[uint64]int)
		l.counts[d.Msg.Topic] = m
	}
	m[d.Msg.Seq]++
}

// checkNoDuplicates fails the test for any (topic, seq) delivered to the
// application more than once.
func (l *deliveryLog) checkNoDuplicates(t *testing.T, cycle int) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, seqs := range l.counts {
		for seq, n := range seqs {
			if n > 1 {
				t.Errorf("cycle %d: topic %d seq %d delivered %d times", cycle, id, seq, n)
			}
		}
	}
}

// TestChaosSoak repeatedly brings up a Primary+Backup pair with sharded
// lanes, pumps publishes from concurrent publishers,
// fail-stops the Primary mid-stream, and asserts the FRAME recovery
// guarantees after every promotion:
//
//   - zero non-discarded loss beyond each topic's Li (here Li = 0: every
//     published message reaches the subscriber), and
//   - no duplicate delivery to the application after recovery.
//
// Run it under -race: the point of the soak is to shake scheduling windows
// in the lane workers, the egress rings, and the promotion path.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}
	// The kill timing is the only random input; seeding it from
	// FRAME_CHAOS_SEED makes a nightly failure replayable.
	seed := faultinject.SeedFromEnv(0x50a4)
	t.Logf("seed=%d (override with FRAME_CHAOS_SEED to replay)", seed)
	rng := rand.New(rand.NewSource(seed))
	deadline := time.Now().Add(soakBudget())
	cycle := 0
	for time.Now().Before(deadline) || cycle == 0 {
		cycle++
		runChaosCycle(t, cycle, rng)
		if t.Failed() {
			return
		}
	}
	t.Logf("chaos soak: %d kill/promote cycles clean", cycle)
}

func runChaosCycle(t *testing.T, cycle int, rng *rand.Rand) {
	t.Helper()
	topics := chaosTopics(8)
	ids := make([]spec.TopicID, len(topics))
	for i, tp := range topics {
		ids[i] = tp.ID
	}
	n, tcp := soakNetwork()
	clock := testClock()
	cfg := core.FRAMEConfig(lanParams())
	cfg.MessageBufferCap = 2048
	newBroker := func(role Role, listen, peer string) *Broker {
		b, err := New(Options{
			Engine:     cfg,
			Role:       role,
			ListenAddr: listen,
			PeerAddr:   peer,
			Network:    n,
			Clock:      clock,
			Lanes:      4,
			Detector:   fastDetector(),
			Topics:     topics,
			Logger:     quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	listenPrimary, listenBackup := "primary", "backup"
	if tcp {
		listenPrimary, listenBackup = "127.0.0.1:0", "127.0.0.1:0"
	}
	backup := newBroker(RoleBackup, listenBackup, "pending")
	primary := newBroker(RolePrimary, listenPrimary, backup.Addr())
	backup.SetPeerAddr(primary.Addr())
	backup.Start()
	primary.Start()
	primaryStopped := false
	defer func() {
		if !primaryStopped {
			primary.Stop()
		}
		backup.Stop()
	}()

	log := newDeliveryLog()
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "chaos-sub", Topics: ids,
		BrokerAddrs: []string{primary.Addr(), backup.Addr()},
		Network:     n, Clock: clock,
		OnDeliver: log.record,
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	pub, err := client.NewPublisher(client.PublisherOptions{
		Name: "chaos-pub", Topics: topics,
		PrimaryAddr: primary.Addr(), BackupAddr: backup.Addr(),
		Network: n, Clock: clock,
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// Concurrent pumps over disjoint topic halves; they keep publishing
	// straight through the crash (send errors in the detection window are
	// fine — the retained ring re-sends on fail-over).
	stop := make(chan struct{})
	var pumps sync.WaitGroup
	for p := 0; p < 2; p++ {
		half := ids[p*len(ids)/2 : (p+1)*len(ids)/2]
		pumps.Add(1)
		go func() {
			defer pumps.Done()
			payload := []byte("chaos-soak-load!")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pub.Publish(half[i%len(half)], payload)
				time.Sleep(time.Millisecond)
			}
		}()
	}

	// Let load build, then fail-stop the Primary. The window is jittered
	// from the soak seed so successive cycles kill at different phases of
	// the egress flushes and lane workers.
	time.Sleep(time.Duration(60+rng.Intn(80)) * time.Millisecond)
	primary.Stop()
	primaryStopped = true

	select {
	case <-backup.Promoted():
	case <-time.After(3 * time.Second):
		close(stop)
		pumps.Wait()
		t.Fatalf("cycle %d: backup never promoted", cycle)
	}
	if backup.Role() != RolePrimary {
		t.Fatalf("cycle %d: promoted backup reports role %v", cycle, backup.Role())
	}

	// Keep the load on the new Primary for a while, then drain.
	time.Sleep(100 * time.Millisecond)
	close(stop)
	pumps.Wait()

	for _, id := range ids {
		id := id
		published := pub.LastSeq(id)
		waitFor(t, 5*time.Second, "post-promotion delivery drain", func() bool {
			return sub.Received(id) >= published
		})
		if t.Failed() {
			t.Fatalf("cycle %d: topic %d delivered %d of %d (Li=0 allows no loss)",
				cycle, id, sub.Received(id), published)
		}
		if loss := sub.MaxConsecutiveLoss(id, published); loss > topics[0].LossTolerance {
			t.Errorf("cycle %d: topic %d max consecutive loss %d > Li %d",
				cycle, id, loss, topics[0].LossTolerance)
		}
	}
	log.checkNoDuplicates(t, cycle)
}
