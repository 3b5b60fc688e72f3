package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
)

func testClock() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

func fastDetector() failover.Config {
	return failover.Config{Period: 2 * time.Millisecond, Timeout: 5 * time.Millisecond, Misses: 2}
}

func lanParams() timing.Params {
	return timing.Params{
		DeltaBSEdge:  time.Millisecond,
		DeltaBSCloud: time.Millisecond,
		DeltaBB:      time.Millisecond,
		Failover:     50 * time.Millisecond,
	}
}

func lanTopic(id spec.TopicID, retention int) spec.Topic {
	return spec.Topic{
		ID: id, Category: -1, Period: 20 * time.Millisecond, Deadline: time.Second,
		LossTolerance: 0, Retention: retention, Destination: spec.DestEdge, PayloadSize: 16,
	}
}

func lanTopics(n, retention int) []spec.Topic {
	out := make([]spec.Topic, n)
	for i := range out {
		out[i] = lanTopic(spec.TopicID(i+1), retention)
	}
	return out
}

func testEngine() core.Config {
	cfg := core.FRAMEConfig(lanParams())
	cfg.MessageBufferCap = 1024
	return cfg
}

func startTestCluster(t *testing.T, n transport.Network, shards int, topics []spec.Topic) *Cluster {
	t.Helper()
	c, err := New(Config{
		Shards:   shards,
		Topics:   topics,
		Engine:   testEngine(),
		Network:  n,
		Mem:      true,
		Clock:    testClock(),
		Detector: fastDetector(),
		Logger:   quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// waitSubscribed blocks until every pair primary registered the subscriber.
func waitSubscribed(t *testing.T, c *Cluster) {
	t.Helper()
	for _, p := range c.Pairs {
		p := p
		waitFor(t, 2*time.Second, "subscriber registration", func() bool {
			return p.Primary.Health().EgressSubs >= 1
		})
	}
}

// TestClusterEndToEnd: topics spread over 3 shards, every message reaches
// the subscriber exactly once, and each shard's Primary served only its
// partition.
func TestClusterEndToEnd(t *testing.T) {
	n := transport.NewMem()
	topics := lanTopics(30, 3)
	clock := testClock()
	c := startTestCluster(t, n, 3, topics)
	r := newTestRouter(t, n, c.Dir.Addr())

	ids := make([]spec.TopicID, len(topics))
	for i, tp := range topics {
		ids[i] = tp.ID
	}
	sub, err := NewSubscriber(SubscriberOptions{
		Name: "sub", Topics: ids, Router: r, Network: n, Clock: clock, Logger: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitSubscribed(t, c)
	pub, err := NewPublisher(PublisherOptions{
		Name: "pub", Topics: topics, Router: r, Network: n, Clock: clock,
		Detector: fastDetector(), Logger: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const perTopic = 5
	for i := 0; i < perTopic; i++ {
		for _, id := range ids {
			if _, err := pub.Publish(id, []byte("cluster-payload!")); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, 5*time.Second, "all deliveries", func() bool {
		for _, id := range ids {
			if sub.Received(id) < perTopic {
				return false
			}
		}
		return true
	})
	if d := sub.Duplicates(); d != 0 {
		t.Errorf("duplicates = %d, want 0", d)
	}
	if pub.Redirects() != 0 || pub.Rehomed() != 0 {
		t.Errorf("unexpected redirects=%d rehomed=%d on a fresh table", pub.Redirects(), pub.Rehomed())
	}
	// Ownership is disjoint: each Primary published only its partition.
	var total uint64
	for _, p := range c.Pairs {
		got := p.Primary.Stats().Published
		want := uint64(len(p.Topics) * perTopic)
		if got != want {
			t.Errorf("shard %d served %d publishes, want %d", p.Index, got, want)
		}
		total += got
	}
	if want := uint64(len(ids) * perTopic); total != want {
		t.Errorf("cluster served %d publishes, want %d", total, want)
	}
}

// TestStalePublisherRedirectsAndRehomes: a publisher routing on an epoch-1
// single-shard table against an epoch-2 two-shard world is corrected in
// band — WrongShard redirect → refresh → topics re-homed with their
// retained messages — without losing a message.
func TestStalePublisherRedirectsAndRehomes(t *testing.T) {
	n := transport.NewMem()
	topics := lanTopics(12, 8) // retention covers everything published pre-refresh
	clock := testClock()
	c := startTestCluster(t, n, 2, topics)

	// The stale world: a directory whose table says shard 0 owns everything.
	full := c.Dir.Table()
	staleDir, err := NewDirectory(DirectoryOptions{
		ListenAddr: "routing-stale", Network: n,
		Shards: full.Shards[:1], Logger: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(staleDir.Close)

	staleRouter := newTestRouter(t, n, staleDir.Addr())
	freshRouter := newTestRouter(t, n, c.Dir.Addr())
	ids := make([]spec.TopicID, len(topics))
	for i, tp := range topics {
		ids[i] = tp.ID
	}
	sub, err := NewSubscriber(SubscriberOptions{
		Name: "sub", Topics: ids, Router: freshRouter, Network: n, Clock: clock, Logger: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitSubscribed(t, c)
	pub, err := NewPublisher(PublisherOptions{
		Name: "pub", Topics: topics, Router: staleRouter, Network: n, Clock: clock,
		Detector: fastDetector(), Logger: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if pub.Epoch() != 1 {
		t.Fatalf("publisher epoch = %d, want stale 1", pub.Epoch())
	}

	// Advance the stale directory to the real two-shard table (epoch 2).
	// The publisher has not refreshed: its first publishes to shard-1
	// topics still go to pair 0, which rejects them with WrongShard.
	if err := staleDir.SetShards(full.Shards); err != nil {
		t.Fatal(err)
	}
	const perTopic = 4
	for i := 0; i < perTopic; i++ {
		for _, id := range ids {
			if _, err := pub.Publish(id, []byte("redirected-load!")); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	// In-band correction: redirects observed, table converged, topics moved
	// onto shard 1, and the retained window resent — nothing lost.
	waitFor(t, 5*time.Second, "router convergence", func() bool { return pub.Epoch() == 2 })
	if pub.Redirects() == 0 {
		t.Error("no WrongShard redirects observed")
	}
	movedWant := 0
	for _, tp := range topics {
		if ShardOf(tp.ID, 2) == 1 {
			movedWant++
		}
	}
	waitFor(t, 5*time.Second, "re-homing", func() bool { return pub.Rehomed() == uint64(movedWant) })
	waitFor(t, 10*time.Second, "all deliveries", func() bool {
		for _, id := range ids {
			if sub.Received(id) < pub.LastSeq(id) {
				return false
			}
		}
		return true
	})
	for _, id := range ids {
		if loss := sub.MaxConsecutiveLoss(id, pub.LastSeq(id)); loss != 0 {
			t.Errorf("topic %d lost %d consecutive messages across the re-home", id, loss)
		}
	}
}

// TestClusterPromotionKeepsShard: killing one shard's Primary promotes its
// Backup, the Directory bumps the epoch with the pair keeping the shard,
// and traffic to that shard continues; other shards never notice.
func TestClusterPromotionKeepsShard(t *testing.T) {
	n := transport.NewMem()
	topics := lanTopics(12, 4)
	clock := testClock()
	c := startTestCluster(t, n, 2, topics)
	r := newTestRouter(t, n, c.Dir.Addr())

	ids := make([]spec.TopicID, len(topics))
	for i, tp := range topics {
		ids[i] = tp.ID
	}
	sub, err := NewSubscriber(SubscriberOptions{
		Name: "sub", Topics: ids, Router: r, Network: n, Clock: clock, Logger: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitSubscribed(t, c)
	pub, err := NewPublisher(PublisherOptions{
		Name: "pub", Topics: topics, Router: r, Network: n, Clock: clock,
		Detector: fastDetector(), Logger: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	publishRound := func() {
		for _, id := range ids {
			if _, err := pub.Publish(id, []byte("failover-payload")); err != nil {
				t.Logf("publish during failover: %v", err) // expected near the crash
			}
		}
	}
	publishRound()

	victim := c.Pairs[0]
	victim.Primary.Stop()
	select {
	case <-victim.Backup.Promoted():
	case <-time.After(5 * time.Second):
		t.Fatal("backup never promoted")
	}
	// The watcher records the promotion: epoch bumps, pair keeps the shard.
	waitFor(t, 2*time.Second, "directory epoch bump", func() bool { return c.Dir.Epoch() == 2 })
	e := c.Dir.Table().Shards[0]
	if e.Primary != victim.Backup.Addr() || e.Backup != "" {
		t.Errorf("post-promotion entry = %+v, want promoted backup as primary", e)
	}
	// Keep publishing: per-pair fail-over already redirected the links.
	for i := 0; i < 3; i++ {
		publishRound()
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, 10*time.Second, "deliveries after promotion", func() bool {
		for _, id := range ids {
			if sub.Received(id) < pub.LastSeq(id) {
				return false
			}
		}
		return true
	})
	for _, id := range ids {
		tp := topics[id-1]
		if loss := sub.MaxConsecutiveLoss(id, pub.LastSeq(id)); loss > tp.LossTolerance {
			t.Errorf("topic %d: %d consecutive losses > Li=%d", id, loss, tp.LossTolerance)
		}
	}
}

// TestClusterValidation covers constructor guards.
func TestClusterValidation(t *testing.T) {
	if _, err := New(Config{Shards: 0, Clock: testClock(), Network: transport.NewMem()}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := New(Config{Shards: 1, Network: transport.NewMem()}); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := New(Config{Shards: 1, Clock: testClock()}); err == nil {
		t.Error("nil network accepted")
	}
	n := transport.NewMem()
	r := &Router{}
	if _, err := NewPublisher(PublisherOptions{Router: r, Network: n, Clock: testClock(), Logger: quietLog()}); err == nil {
		t.Error("publisher with no topics accepted")
	}
	if _, err := NewSubscriber(SubscriberOptions{Router: r, Network: n, Clock: testClock(), Logger: quietLog()}); err == nil {
		t.Error("subscriber with no topics accepted")
	}
	if _, err := NewPublisher(PublisherOptions{Topics: lanTopics(1, 0), Network: n, Clock: testClock()}); err == nil {
		t.Error("publisher with nil router accepted")
	}
}
