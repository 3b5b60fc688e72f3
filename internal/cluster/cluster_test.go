package cluster

import (
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/failover"
	"repro/internal/obsv"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
	"repro/internal/wire"
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

// testTemplate is the broker template of the test clusters.
func testTemplate(n transport.Network) broker.Options {
	return broker.Options{
		Engine:   testEngine(),
		Network:  n,
		Clock:    testClock(),
		Detector: fastDetector(),
		Logger:   quietLog(),
	}
}

// pubTemplate is the test clusters' publisher template.
func pubTemplate(n transport.Network, clock func() time.Duration, topics []spec.Topic) client.PublisherOptions {
	return client.PublisherOptions{Name: "pub", Topics: topics, Network: n, Clock: clock, Logger: quietLog()}
}

func startTestCluster(t *testing.T, n transport.Network, shards int, topics []spec.Topic) *Cluster {
	t.Helper()
	c, err := New(Config{Shards: shards, Topics: topics, Broker: testTemplate(n), Mem: true})
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
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "sub", Topics: ids, BrokerAddrs: r.Table().Addrs(), Network: n, Clock: clock, Logger: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := NewPublisher(PublisherOptions{Publisher: pubTemplate(n, clock, topics), Router: r})
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
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "sub", Topics: ids, BrokerAddrs: freshRouter.Table().Addrs(), Network: n, Clock: clock, Logger: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := NewPublisher(PublisherOptions{Publisher: pubTemplate(n, clock, topics), Router: staleRouter})
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
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "sub", Topics: ids, BrokerAddrs: r.Table().Addrs(), Network: n, Clock: clock, Logger: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := NewPublisher(PublisherOptions{Publisher: pubTemplate(n, clock, topics), Router: r})
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
	if _, err := New(Config{Shards: 0, Broker: broker.Options{Clock: testClock(), Network: transport.NewMem()}}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := New(Config{Shards: 1, Broker: broker.Options{Network: transport.NewMem()}}); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := New(Config{Shards: 1, Broker: broker.Options{Clock: testClock()}}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := New(Config{Shards: 1, Broker: broker.Options{Clock: testClock(), Network: transport.NewMem(), Durable: true}}); err == nil {
		t.Error("durable template without a log dir accepted")
	}
	// The smallest cluster is one pair, and its routing table is exactly it.
	one := startTestCluster(t, transport.NewMem(), 1, lanTopics(1, 4))
	if got, p := one.Dir.Table().Addrs(), one.Pairs[0]; !slices.Equal(got, []string{p.Primary.Addr(), p.Backup.Addr()}) {
		t.Errorf("one-shard table addrs = %v, want [%s %s]", got, p.Primary.Addr(), p.Backup.Addr())
	}
	n := transport.NewMem()
	r := &Router{}
	if _, err := NewPublisher(PublisherOptions{Publisher: pubTemplate(n, testClock(), nil), Router: r}); err == nil {
		t.Error("publisher with no topics accepted")
	}
	if _, err := NewPublisher(PublisherOptions{Publisher: pubTemplate(n, testClock(), lanTopics(1, 0))}); err == nil {
		t.Error("publisher with nil router accepted")
	}
}

// TestDurableTemplateLogsPerPrimary: a Durable template over two shards
// gives each Primary its own log under LogDir/PrimaryNode(i) and no Backup
// a log, and after a dual crash a Primary restarted through RestartPrimary
// recovers exactly its own shard's unpruned records.
func TestDurableTemplateLogsPerPrimary(t *testing.T) {
	n := transport.NewMem()
	dir := t.TempDir()
	tmpl := testTemplate(n)
	tmpl.Durable, tmpl.LogDir, tmpl.HoldRecovery = true, dir, true
	c, err := New(Config{Shards: 2, Topics: lanTopics(8, 8), Broker: tmpl, Mem: true})
	if err != nil {
		t.Fatal(err)
	}
	killed := make(map[*broker.Broker]bool)
	t.Cleanup(func() { c.StopExcept(killed) })

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	for _, e := range entries {
		logs = append(logs, e.Name())
	}
	if want := []string{PrimaryNode(0), PrimaryNode(1)}; !slices.Equal(logs, want) {
		t.Fatalf("log dirs = %v, want %v: one per Primary, none for a Backup", logs, want)
	}

	// Crash every broker, then leave each Primary's log two unpruned
	// records per topic of its own shard, and shard 0's first topic a
	// third record whose prune marker also reached the log.
	for _, p := range c.Pairs {
		for _, b := range []*broker.Broker{p.Backup, p.Primary} {
			b.Kill()
			killed[b] = true
		}
	}
	const perTopic = 2
	for _, p := range c.Pairs {
		seg, _, err := diskstore.OpenSegmented(filepath.Join(dir, PrimaryNode(p.Index)), diskstore.SegmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range p.Topics {
			for seq := uint64(1); seq <= perTopic; seq++ {
				if err := seg.Append(wire.Message{Topic: tp.ID, Seq: seq, Payload: []byte("logged")}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if p.Index == 0 {
			pruned := p.Topics[0].ID
			if err := seg.Append(wire.Message{Topic: pruned, Seq: perTopic + 1, Payload: []byte("pruned")}); err != nil {
				t.Fatal(err)
			}
			if err := seg.AppendPrune(pruned, perTopic+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
	}

	b, err := c.RestartPrimary(0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Pairs[0].Primary != b {
		t.Error("RestartPrimary did not replace the pair's Primary")
	}
	ids := make([]spec.TopicID, 8)
	for i := range ids {
		ids[i] = spec.TopicID(i + 1)
	}
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "sub", Topics: ids, BrokerAddrs: []string{b.Addr()}, Network: n, Clock: testClock(), Logger: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	b.RecoverFromLog()

	own := c.Pairs[0].Topics
	waitFor(t, 5*time.Second, "recovery of shard 0's records", func() bool {
		for _, tp := range own {
			if sub.Received(tp.ID) < perTopic {
				return false
			}
		}
		return true
	})
	if got, want := b.Stats().RecoveryJobs, uint64(perTopic*len(own)); got != want {
		t.Errorf("recovery jobs = %d, want %d: shard 0's unpruned records and nothing else", got, want)
	}
	for _, tp := range c.Pairs[1].Topics {
		if got := sub.Received(tp.ID); got != 0 {
			t.Errorf("shard 1 topic %d: %d messages recovered from shard 0's restart", tp.ID, got)
		}
	}
	if got := sub.Received(own[0].ID); got != perTopic {
		t.Errorf("topic %d: %d messages recovered, want %d (seq %d was pruned)", own[0].ID, got, perTopic, perTopic+1)
	}
}

// TestDurablePublisherAcrossShards: a publisher template with DurableAcks
// makes every shard's per-pair publisher wait for its PubAck, so when the
// last Publish returns each Primary has made durable at least every
// publish to its partition.
func TestDurablePublisherAcrossShards(t *testing.T) {
	n := transport.NewMem()
	topics := lanTopics(8, 4)
	tmpl := testTemplate(n)
	tmpl.Durable, tmpl.LogDir, tmpl.FsyncInterval = true, t.TempDir(), 100*time.Millisecond
	tmpl.AdminAddr = "127.0.0.1:0"
	c, err := New(Config{Shards: 2, Topics: topics, Broker: tmpl, Mem: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	pt := pubTemplate(n, testClock(), topics)
	pt.DurableAcks = true
	pub, err := NewPublisher(PublisherOptions{Publisher: pt, Router: newTestRouter(t, n, c.Dir.Addr())})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	publish := func(perTopic int) {
		t.Helper()
		errs := make(chan error, len(topics))
		for _, tp := range topics { // one goroutine per topic, so publishes share fsyncs
			go func(id spec.TopicID) {
				for i := 0; i < perTopic; i++ {
					if _, err := pub.Publish(id, []byte("durable")); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(tp.ID)
		}
		for range topics {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range c.Pairs {
		if len(p.Topics) == 0 {
			t.Fatalf("shard %d owns no topic: the test exercises one shard only", p.Index)
		}
	}
	// A fresh log syncs its first batch at once and holds every later one
	// for the rest of the 100 ms window. Let the first sync happen, so a
	// publish that returned unacknowledged is still unsynced when counted.
	publish(1)
	for _, p := range c.Pairs {
		waitFor(t, 2*time.Second, "the first sync", func() bool {
			return durableAcks(t, p.Primary.AdminAddr()) >= float64(len(p.Topics))
		})
	}
	const perTopic = 3
	publish(perTopic)
	for _, p := range c.Pairs {
		acks := durableAcks(t, p.Primary.AdminAddr())
		if want := float64((1 + perTopic) * len(p.Topics)); acks < want {
			t.Errorf("shard %d Primary: %v durable acks when the last Publish returned, want at least %v", p.Index, acks, want)
		}
	}
}

// durableAcks reads frame_durable_acks_total off a broker's /metrics.
func durableAcks(t *testing.T, adminAddr string) float64 {
	t.Helper()
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + adminAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obsv.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := obsv.Find(samples, "frame_durable_acks_total", "")
	if !ok {
		t.Fatal("frame_durable_acks_total not exposed")
	}
	return s.Value
}
