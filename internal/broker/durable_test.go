package broker

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// startDurable brings up one durable Primary (no peer) on an in-process
// network, logging to dir.
func startDurable(t *testing.T, n transport.Network, dir string, topics []spec.Topic, tweak func(*Options)) *Broker {
	t.Helper()
	cfg := core.FRAMEConfig(lanParams())
	cfg.MessageBufferCap = 1024
	opts := Options{
		Engine:     cfg,
		Role:       RolePrimary,
		ListenAddr: "",
		Network:    n,
		Clock:      testClock(),
		Topics:     topics,
		Logger:     quietLogger(),
		Durable:    true,
		LogDir:     dir,
	}
	if tweak != nil {
		tweak(&opts)
	}
	b, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	return b
}

// TestDurablePublishAckRoundTrip proves the ACK = durable contract end to
// end: a DurableAcks publisher blocks until the broker's PubAck, every
// publish is acked, the messages still dispatch normally, and the durable
// counters move.
func TestDurablePublishAckRoundTrip(t *testing.T) {
	n := transport.NewMem()
	topics := []spec.Topic{lanTopic(1, 8)}
	b := startDurable(t, n, t.TempDir(), topics, nil)
	defer b.Stop()

	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "s", Topics: []spec.TopicID{1}, BrokerAddrs: []string{b.Addr()},
		Network: n, Clock: testClock(), Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	pub, err := client.NewPublisher(client.PublisherOptions{
		Name: "p", Topics: topics, PrimaryAddr: b.Addr(),
		Network: n, Clock: testClock(), Logger: quietLogger(),
		DurableAcks: true, AckTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const total = 32
	for i := 0; i < total; i++ {
		if _, err := pub.Publish(1, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if got := b.durableAcks.Load(); got != total {
		t.Fatalf("durable acks = %d, want %d", got, total)
	}
	waitFor(t, 2*time.Second, "dispatches", func() bool {
		return sub.Received(1) == total
	})

	var found bool
	for _, s := range b.scrapeGauges() {
		if s.Name == "frame_durable_acks_total" {
			found = true
			if s.Value != total {
				t.Fatalf("frame_durable_acks_total = %v, want %d", s.Value, total)
			}
		}
	}
	if !found {
		t.Fatal("frame_durable_acks_total missing from gauge scrape")
	}
}

// TestDurableRestartReplaysUnprunedOnly is the dual-crash recovery
// discipline in miniature: a log holding ten publishes and prune markers
// for the first five must, on restart, re-dispatch exactly the unpruned
// five — never a message a previous life already dispatched (Table 3), and
// with no gap in what survives.
func TestDurableRestartReplaysUnprunedOnly(t *testing.T) {
	dir := t.TempDir()
	clock := testClock()
	seg, _, err := diskstore.OpenSegmented(dir, diskstore.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if err := seg.Append(wire.Message{Topic: 1, Seq: seq, Created: clock(), Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := seg.AppendPrune(1, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	n := transport.NewMem()
	topics := []spec.Topic{lanTopic(1, 8)}
	b := startDurable(t, n, dir, topics, func(o *Options) { o.HoldRecovery = true })
	defer b.Stop()

	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "s", Topics: []spec.TopicID{1}, BrokerAddrs: []string{b.Addr()},
		Network: n, Clock: clock, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// NewSubscriber returned once the broker had registered the session, so
	// no recovery dispatch prunes with nobody listening.
	b.RecoverFromLog()
	waitFor(t, 2*time.Second, "recovery dispatches", func() bool {
		return sub.Received(1) == 5
	})
	// Settle, then confirm nothing pruned was re-dispatched.
	time.Sleep(20 * time.Millisecond)
	if got := sub.Received(1); got != 5 {
		t.Fatalf("recovered deliveries = %d, want exactly the 5 unpruned", got)
	}
	if loss := sub.MaxConsecutiveLoss(1, 10); loss != 5 {
		// Sequences 1–5 were dispatched before the crash; from this
		// subscriber's view they are one leading run of length 5.
		t.Fatalf("consecutive missing run = %d, want 5 (the pruned prefix)", loss)
	}
}

// TestDurableStopMarksDispatchedAndRestartIsQuiet runs a full life: publish
// through a durable broker, let everything dispatch, stop cleanly, restart
// on the same log — the prune markers written after each dispatch must keep
// the second life from re-dispatching anything.
func TestDurableStopMarksDispatchedAndRestartIsQuiet(t *testing.T) {
	dir := t.TempDir()
	n := transport.NewMem()
	topics := []spec.Topic{lanTopic(1, 8)}
	b := startDurable(t, n, dir, topics, nil)

	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "s1", Topics: []spec.TopicID{1}, BrokerAddrs: []string{b.Addr()},
		Network: n, Clock: testClock(), Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := client.NewPublisher(client.PublisherOptions{
		Name: "p", Topics: topics, PrimaryAddr: b.Addr(),
		Network: n, Clock: testClock(), Logger: quietLogger(),
		DurableAcks: true, AckTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 20
	for i := 0; i < total; i++ {
		if _, err := pub.Publish(1, []byte("d")); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	waitFor(t, 2*time.Second, "first-life dispatches", func() bool {
		return sub.Received(1) == total
	})
	pub.Close()
	sub.Close()
	b.Stop()

	b2 := startDurable(t, n, dir, topics, func(o *Options) { o.HoldRecovery = true })
	defer b2.Stop()
	if b2.recoveredMsgs != total {
		t.Fatalf("second life replayed %d messages, want %d", b2.recoveredMsgs, total)
	}
	sub2, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "s2", Topics: []spec.TopicID{1}, BrokerAddrs: []string{b2.Addr()},
		Network: n, Clock: testClock(), Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	b2.RecoverFromLog()
	time.Sleep(50 * time.Millisecond)
	if got := sub2.Received(1); got != 0 {
		t.Fatalf("clean restart re-dispatched %d messages; prune markers should cover all", got)
	}
}

// TestDurableConcurrentPublishers hammers the durable publish path from
// many sessions at once — run under -race this is the proof that the
// group-commit writer is the log's single owner and the broker-side
// enqueue/ack plumbing is sound under contention.
func TestDurableConcurrentPublishers(t *testing.T) {
	n := transport.NewMem()
	const pubs, perPub = 8, 25
	topics := make([]spec.Topic, pubs)
	ids := make([]spec.TopicID, pubs)
	for i := range topics {
		topics[i] = lanTopic(spec.TopicID(i+1), 8)
		ids[i] = spec.TopicID(i + 1)
	}
	b := startDurable(t, n, t.TempDir(), topics, func(o *Options) {
		o.FsyncInterval = time.Millisecond
	})
	defer b.Stop()

	pub, err := client.NewPublisher(client.PublisherOptions{
		Name: "p", Topics: topics, PrimaryAddr: b.Addr(),
		Network: n, Clock: testClock(), Logger: quietLogger(),
		DurableAcks: true, AckTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	var wg sync.WaitGroup
	errs := make(chan error, pubs*perPub)
	for _, id := range ids {
		wg.Add(1)
		go func(id spec.TopicID) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				if _, err := pub.Publish(id, []byte("c")); err != nil {
					errs <- err
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := b.durableAcks.Load(); got != pubs*perPub {
		t.Fatalf("durable acks = %d, want %d", got, pubs*perPub)
	}
}
