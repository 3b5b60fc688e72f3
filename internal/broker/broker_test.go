package broker

import (
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
	"repro/internal/wire"
)

// quietLogger suppresses expected warn/info noise in tests.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(discard{}, &slog.HandlerOptions{Level: slog.LevelError}))
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// testClock returns a shared timebase for one in-process deployment.
func testClock() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// fastDetector makes failover quick in tests.
func fastDetector() failover.Config {
	return failover.Config{Period: 2 * time.Millisecond, Timeout: 5 * time.Millisecond, Misses: 2}
}

// lanParams matches the in-process latency regime: everything is local, so
// edge and "cloud" ΔBS are both small, and the fail-over budget is set to
// cover the fast detector plus resend.
func lanParams() timing.Params {
	return timing.Params{
		DeltaBSEdge:  time.Millisecond,
		DeltaBSCloud: time.Millisecond,
		DeltaBB:      time.Millisecond,
		Failover:     50 * time.Millisecond,
	}
}

// lanTopic returns a generously-deadlined topic usable on loopback.
func lanTopic(id spec.TopicID, retention int) spec.Topic {
	return spec.Topic{
		ID:            id,
		Category:      -1,
		Period:        20 * time.Millisecond,
		Deadline:      time.Second,
		LossTolerance: 0,
		Retention:     retention,
		Destination:   spec.DestEdge,
		PayloadSize:   16,
	}
}

type cluster struct {
	primary, backup *Broker
	net             transport.Network
	clock           func() time.Duration
}

// startCluster brings up a Primary+Backup pair with the given topics.
func startCluster(t *testing.T, n transport.Network, primaryAddr, backupAddr string, topics []spec.Topic) *cluster {
	t.Helper()
	clock := testClock()
	cfg := core.FRAMEConfig(lanParams())
	// Tests publish in tight bursts (no Ti pacing), so size the Message
	// Buffer to hold a whole burst rather than relying on Ti-spaced arrivals.
	cfg.MessageBufferCap = 1024
	backup, err := New(Options{
		Engine:     cfg,
		Role:       RoleBackup,
		ListenAddr: backupAddr,
		PeerAddr:   primaryAddr,
		Network:    n,
		Clock:      clock,
		Detector:   fastDetector(),
		Topics:     topics,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	primary, err := New(Options{
		Engine:     cfg,
		Role:       RolePrimary,
		ListenAddr: primaryAddr,
		PeerAddr:   backup.Addr(),
		Network:    n,
		Clock:      clock,
		Detector:   fastDetector(),
		Topics:     topics,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	backup.opts.PeerAddr = primary.Addr() // resolve ephemeral TCP port
	backup.Start()
	primary.Start()
	t.Cleanup(func() {
		primary.Stop()
		backup.Stop()
	})
	return &cluster{primary: primary, backup: backup, net: n, clock: clock}
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

func TestPublishDispatchEndToEnd(t *testing.T) {
	topics := []spec.Topic{lanTopic(1, 3)}
	c := startCluster(t, transport.NewMem(), "primary", "backup", topics)

	var latMu sync.Mutex
	var lats []time.Duration
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name:        "sub1",
		Topics:      []spec.TopicID{1},
		BrokerAddrs: []string{"primary", "backup"},
		Network:     c.net,
		Clock:       c.clock,
		Logger:      quietLogger(),
		OnDeliver: func(d client.Delivery) {
			latMu.Lock()
			lats = append(lats, d.Latency)
			latMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	pub, err := client.NewPublisher(client.PublisherOptions{
		Name:        "pub1",
		Topics:      topics,
		PrimaryAddr: "primary",
		BackupAddr:  "backup",
		Network:     c.net,
		Clock:       c.clock,
		Logger:      quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const count = 50
	for i := 0; i < count; i++ {
		if _, err := pub.Publish(1, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, "all deliveries", func() bool {
		return sub.Received(1) == count
	})
	if loss := sub.MaxConsecutiveLoss(1, count); loss != 0 {
		t.Errorf("lost messages: max consecutive = %d", loss)
	}
	latMu.Lock()
	defer latMu.Unlock()
	for _, l := range lats {
		if l < 0 || l > time.Second {
			t.Errorf("implausible latency %v", l)
		}
	}
}

func TestSelectiveReplicationOverNetwork(t *testing.T) {
	// Topic A has a huge deadline relative to its loss budget → needs
	// replication; topic B has retention covering the failover window →
	// Proposition 1 suppresses replication.
	replTopic := spec.Topic{
		ID: 1, Category: -1, Period: 20 * time.Millisecond,
		Deadline: time.Second, LossTolerance: 0, Retention: 3,
		Destination: spec.DestEdge, PayloadSize: 16,
	}
	// (3+0)*20ms = 60ms ≥ x+ΔBB = 51ms → admissible; 51 + (-1) = 50ms
	// vs (Ni+Li)Ti − Di = 60ms − 1000ms < 0 → needs replication.
	suppressed := spec.Topic{
		ID: 2, Category: -1, Period: time.Second,
		Deadline: time.Second, LossTolerance: 0, Retention: 2,
		Destination: spec.DestEdge, PayloadSize: 16,
	}
	// (2+0)*1s − 1s = 1s ≥ x+ΔBB−ΔBS = 50ms → replication suppressed.
	topics := []spec.Topic{replTopic, suppressed}
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

	for i := 0; i < 10; i++ {
		if _, err := pub.Publish(1, []byte("payload-16-bytes")); err != nil {
			t.Fatal(err)
		}
		if _, err := pub.Publish(2, []byte("payload-16-bytes")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, "replicas at backup", func() bool {
		return c.backup.Stats().ReplicasStored >= 10
	})
	stats := c.primary.Stats()
	if stats.ReplicationJobs < 10 {
		t.Errorf("replication jobs = %d, want ≥ 10", stats.ReplicationJobs)
	}
	if got := c.primary.Stats().SuppressedTopics; got != 1 {
		t.Errorf("SuppressedTopics = %d, want 1", got)
	}
	// No subscriber: dispatches still complete (to nobody), and with
	// coordination on, prunes flow to the backup.
	waitFor(t, 2*time.Second, "prunes applied", func() bool {
		return c.backup.Stats().PrunesApplied > 0
	})
}

// TestFailoverPromotionAndZeroLoss kills the Primary mid-stream and checks
// that the Backup promotes, publishers re-send retained messages, and the
// subscriber observes zero loss for a retention-covered topic.
func TestFailoverPromotionAndZeroLoss(t *testing.T) {
	topics := []spec.Topic{lanTopic(1, 5)}
	c := startCluster(t, transport.NewMem(), "primary", "backup", topics)

	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "sub", Topics: []spec.TopicID{1},
		BrokerAddrs: []string{"primary", "backup"},
		Network:     c.net, Clock: c.clock,
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

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

	// Phase 1: steady traffic through the Primary.
	var published uint64
	for i := 0; i < 20; i++ {
		if _, err := pub.Publish(1, []byte("payload-16-bytes")); err != nil {
			t.Fatal(err)
		}
		published++
		time.Sleep(2 * time.Millisecond)
	}

	// Crash the Primary (fail-stop).
	c.primary.Stop()

	select {
	case <-pub.FailedOver():
	case <-time.After(2 * time.Second):
		t.Fatal("publisher never failed over")
	}
	select {
	case <-c.backup.Promoted():
	case <-time.After(2 * time.Second):
		t.Fatal("backup never promoted")
	}
	if c.backup.Role() != RolePrimary {
		t.Error("backup role not primary after promotion")
	}

	// Phase 2: traffic continues through the new Primary.
	for i := 0; i < 20; i++ {
		if _, err := pub.Publish(1, []byte("payload-16-bytes")); err != nil {
			t.Fatalf("publish after failover: %v", err)
		}
		published++
		time.Sleep(2 * time.Millisecond)
	}

	waitFor(t, 2*time.Second, "all messages delivered", func() bool {
		return sub.Received(1) >= published-0 // zero loss expected
	})
	if loss := sub.MaxConsecutiveLoss(1, published); loss != 0 {
		t.Errorf("max consecutive loss = %d, want 0 (retention 5 covers failover)", loss)
	}
}

func TestBrokerOptionValidation(t *testing.T) {
	n := transport.NewMem()
	clock := testClock()
	base := Options{
		Engine: core.FRAMEConfig(lanParams()), Role: RolePrimary,
		ListenAddr: "x", Network: n, Clock: clock, Logger: quietLogger(),
	}
	tests := []struct {
		name   string
		mutate func(*Options)
	}{
		{"nil network", func(o *Options) { o.Network = nil }},
		{"nil clock", func(o *Options) { o.Clock = nil }},
		{"bad role", func(o *Options) { o.Role = 0 }},
		{"negative workers", func(o *Options) { o.Workers = -1 }},
		{"negative lanes", func(o *Options) { o.Lanes = -1 }},
		{"negative intake depth", func(o *Options) { o.IntakeDepth = -1 }},
		{"negative flushers", func(o *Options) { o.Flushers = -1 }},
		{"inadmissible topic", func(o *Options) {
			bad := lanTopic(1, 0)
			bad.Deadline = time.Microsecond // < ΔBS
			o.Topics = []spec.Topic{bad}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			o := base
			tc.mutate(&o)
			if _, err := New(o); err == nil {
				t.Error("invalid options accepted")
			}
		})
	}
}

func TestRoleString(t *testing.T) {
	if RolePrimary.String() != "primary" || RoleBackup.String() != "backup" {
		t.Error("role labels wrong")
	}
	if Role(7).String() != "Role(7)" {
		t.Error("unknown role label wrong")
	}
}

func TestPublisherRejectsUnownedTopic(t *testing.T) {
	topics := []spec.Topic{lanTopic(1, 3)}
	c := startCluster(t, transport.NewMem(), "primary", "backup", topics)
	pub, err := client.NewPublisher(client.PublisherOptions{
		Name: "pub", Topics: topics,
		PrimaryAddr: "primary", BackupAddr: "backup",
		Network: c.net, Clock: c.clock, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if _, err := pub.Publish(99, nil); err == nil {
		t.Error("publish to unowned topic accepted")
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	n := &transport.TCP{DialTimeout: time.Second}
	topics := []spec.Topic{lanTopic(1, 3)}
	c := startCluster(t, n, "127.0.0.1:0", "127.0.0.1:0", topics)

	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "sub", Topics: []spec.TopicID{1},
		BrokerAddrs: []string{c.primary.Addr(), c.backup.Addr()},
		Network:     n, Clock: c.clock, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	pub, err := client.NewPublisher(client.PublisherOptions{
		Name: "pub", Topics: topics,
		PrimaryAddr: c.primary.Addr(), BackupAddr: c.backup.Addr(),
		Network: n, Clock: c.clock,
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const count = 100
	for i := 0; i < count; i++ {
		if _, err := pub.Publish(1, []byte("payload-16-bytes")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "TCP deliveries", func() bool {
		return sub.Received(1) == count
	})
	if d := sub.Duplicates(); d != 0 {
		t.Errorf("unexpected duplicates: %d", d)
	}
}

func TestSubscriberDisconnectCleanup(t *testing.T) {
	topics := []spec.Topic{lanTopic(1, 3)}
	c := startCluster(t, transport.NewMem(), "primary", "backup", topics)

	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "ephemeral", Topics: []spec.TopicID{1},
		BrokerAddrs: []string{"primary"},
		Network:     c.net, Clock: c.clock, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
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

	if _, err := pub.Publish(1, []byte("payload-16-bytes")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "first delivery", func() bool { return sub.Received(1) == 1 })
	sub.Close()
	waitFor(t, 2*time.Second, "fan-out cleanup", func() bool {
		return len(c.primary.subs.Rings(1, nil)) == 0
	})
	// Publishing into a topic with no subscribers must not wedge workers.
	for i := 0; i < 5; i++ {
		if _, err := pub.Publish(1, []byte("payload-16-bytes")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, "dispatch jobs drained", func() bool {
		return c.primary.Stats().DispatchJobs >= 6
	})
}

func TestBrokerAnswersTimeSync(t *testing.T) {
	topics := []spec.Topic{lanTopic(1, 3)}
	c := startCluster(t, transport.NewMem(), "primary", "backup", topics)
	nc, err := c.net.Dial("primary")
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(nc)
	defer conn.Close()
	sample, err := clocksync.Exchange(conn, c.clock, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !sample.Valid() {
		t.Fatalf("invalid sample %+v", sample)
	}
	// Client and broker share one clock here, so the measured offset must
	// be within the pipe's round-trip time.
	off := sample.Offset()
	if off < -time.Millisecond || off > time.Millisecond {
		t.Errorf("offset %v implausible for a shared clock", off)
	}
}

// TestConcurrentLoadManyClients soaks the broker with several publishers
// and subscribers under the race detector.
func TestConcurrentLoadManyClients(t *testing.T) {
	topics := []spec.Topic{lanTopic(1, 3), func() spec.Topic {
		tp := lanTopic(2, 3)
		return tp
	}()}
	c := startCluster(t, transport.NewMem(), "primary", "backup", topics)

	const nSubs, nPubs, perTopic = 3, 2, 60
	subs := make([]*client.Subscriber, nSubs)
	for i := range subs {
		s, err := client.NewSubscriber(client.SubscriberOptions{
			Name: fmt.Sprintf("sub%d", i), Topics: []spec.TopicID{1, 2},
			BrokerAddrs: []string{"primary", "backup"},
			Network:     c.net, Clock: c.clock, Logger: quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		subs[i] = s
	}
	var wg sync.WaitGroup
	for p := 0; p < nPubs; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			topic := topics[p%len(topics)]
			pub, err := client.NewPublisher(client.PublisherOptions{
				Name: fmt.Sprintf("pub%d", p), Topics: []spec.Topic{topic},
				PrimaryAddr: "primary", BackupAddr: "backup",
				Network: c.net, Clock: c.clock,
				Logger: quietLogger(),
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer pub.Close()
			for i := 0; i < perTopic; i++ {
				if _, err := pub.Publish(topic.ID, []byte("payload-16-bytes")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Each topic had one publisher; every subscriber sees every message.
	for _, s := range subs {
		waitFor(t, 5*time.Second, "soak deliveries", func() bool {
			return s.Received(1) == perTopic && s.Received(2) == perTopic
		})
	}
}

// TestPromoteIdempotent: double promotion must not panic or double-close
// the Promoted channel.
func TestPromoteIdempotent(t *testing.T) {
	topics := []spec.Topic{lanTopic(1, 3)}
	c := startCluster(t, transport.NewMem(), "primary", "backup", topics)
	c.backup.promote()
	c.backup.promote()
	select {
	case <-c.backup.Promoted():
	default:
		t.Error("Promoted channel not closed")
	}
	if c.backup.Role() != RolePrimary {
		t.Error("role not primary")
	}
}

// TestUnknownTopicPublishKeepsSession: a publish for an unconfigured topic
// is dropped without tearing down the connection.
func TestUnknownTopicPublishKeepsSession(t *testing.T) {
	topics := []spec.Topic{lanTopic(1, 3)}
	c := startCluster(t, transport.NewMem(), "primary", "backup", topics)
	nc, err := c.net.Dial("primary")
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(nc)
	defer conn.Close()
	// Unknown topic, then a poll: the poll must still be answered.
	if err := conn.Send(&wire.Frame{Type: wire.TypePublish, Msg: wire.Message{Topic: 999, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Frame{Type: wire.TypePoll, Nonce: 7}); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	f, err := conn.Recv()
	if err != nil {
		t.Fatalf("session died after bad publish: %v", err)
	}
	if f.Type != wire.TypePollReply || f.Nonce != 7 {
		t.Errorf("got %v nonce %d", f.Type, f.Nonce)
	}
}

// TestShardBrokerRedirectsUnknownTopic: a broker given a ShardEpoch hook
// answers publishes for topics outside its shard with a WrongShard redirect
// carrying its epoch, and the session stays usable.
func TestShardBrokerRedirectsUnknownTopic(t *testing.T) {
	n := transport.NewMem()
	clock := testClock()
	cfg := core.FRAMEConfig(lanParams())
	cfg.MessageBufferCap = 1024
	b, err := New(Options{
		Engine:     cfg,
		Role:       RolePrimary,
		ListenAddr: "shard0",
		Network:    n,
		Clock:      clock,
		Topics:     []spec.Topic{lanTopic(1, 3)},
		Logger:     quietLogger(),
		ShardEpoch: func() uint64 { return 42 },
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	t.Cleanup(b.Stop)
	nc, err := n.Dial("shard0")
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(nc)
	defer conn.Close()
	if err := conn.Send(&wire.Frame{Type: wire.TypePublish, Msg: wire.Message{Topic: 999, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	f, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypeWrongShard || f.Topic != 999 || f.Epoch != 42 {
		t.Errorf("got %v topic %d epoch %d, want WRONG_SHARD topic 999 epoch 42", f.Type, f.Topic, f.Epoch)
	}
	// An owned topic on the same session still publishes normally.
	if err := conn.Send(&wire.Frame{Type: wire.TypePublish, Msg: wire.Message{Topic: 1, Seq: 1, Created: clock()}}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Frame{Type: wire.TypePoll, Nonce: 8}); err != nil {
		t.Fatal(err)
	}
	f, err = conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypePollReply || f.Nonce != 8 {
		t.Errorf("got %v nonce %d", f.Type, f.Nonce)
	}
}
