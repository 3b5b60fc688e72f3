package client

import (
	"bytes"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

func quiet() *slog.Logger {
	return slog.New(slog.NewTextHandler(discard{}, &slog.HandlerOptions{Level: slog.LevelError}))
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func clock() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

func topic(id spec.TopicID, retention int) spec.Topic {
	return spec.Topic{
		ID: id, Category: -1, Period: 20 * time.Millisecond, Deadline: time.Second,
		LossTolerance: 0, Retention: retention, Destination: spec.DestEdge, PayloadSize: 16,
	}
}

// fakeBroker accepts connections and records every frame, answering polls
// while answer is set, and dying on command (kill) — or, as a promoted
// Backup would, telling its publishers so (notify).
type fakeBroker struct {
	name string
	ln   interface{ Close() error }

	mu       sync.Mutex
	frames   []*wire.Frame
	conns    []*transport.Conn
	dead     bool // killed: a dial that raced the kill is dropped too
	answerMu sync.Mutex
	answer   bool
}

func newFakeBroker(t *testing.T, n transport.Network, addr string) *fakeBroker {
	t.Helper()
	ln, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	fb := &fakeBroker{name: addr, ln: ln, answer: true}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conn := transport.NewConn(nc)
			fb.mu.Lock()
			dead := fb.dead
			if !dead {
				fb.conns = append(fb.conns, conn)
			}
			fb.mu.Unlock()
			if dead {
				conn.Close()
				continue
			}
			go fb.serve(conn)
		}
	}()
	t.Cleanup(fb.kill)
	return fb
}

func (fb *fakeBroker) serve(conn *transport.Conn) {
	for {
		f, err := conn.Recv()
		if err != nil {
			return
		}
		fb.mu.Lock()
		fb.frames = append(fb.frames, f)
		fb.mu.Unlock()
		if f.Type == wire.TypePoll && fb.answering() {
			if err := conn.Send(&wire.Frame{Type: wire.TypePollReply, Nonce: f.Nonce}); err != nil {
				return
			}
		}
	}
}

func (fb *fakeBroker) answering() bool {
	fb.answerMu.Lock()
	defer fb.answerMu.Unlock()
	return fb.answer
}

func (fb *fakeBroker) kill() {
	fb.ln.Close()
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.dead = true
	for _, c := range fb.conns {
		c.Close()
	}
	fb.conns = nil
}

// notify sends f on every connection the broker has accepted.
func (fb *fakeBroker) notify(t *testing.T, f *wire.Frame) {
	t.Helper()
	fb.mu.Lock()
	defer fb.mu.Unlock()
	for _, c := range fb.conns {
		if err := c.Send(f); err != nil {
			t.Fatal(err)
		}
	}
}

// accepted reports how many connections the broker has accepted.
func (fb *fakeBroker) accepted() int {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return len(fb.conns)
}

// dispatch sends one dispatch of (topic, seq) on every accepted connection.
func (fb *fakeBroker) dispatch(topic spec.TopicID, seq uint64, created time.Duration) {
	fb.mu.Lock()
	conns := append([]*transport.Conn(nil), fb.conns...)
	fb.mu.Unlock()
	for _, c := range conns {
		c.Send(&wire.Frame{Type: wire.TypeDispatch, Msg: wire.Message{
			Topic: topic, Seq: seq, Created: created, Payload: []byte("payload"),
		}, Dispatched: created})
	}
}

func (fb *fakeBroker) framesOf(t wire.Type) []*wire.Frame {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	var out []*wire.Frame
	for _, f := range fb.frames {
		if f.Type == t {
			out = append(out, f)
		}
	}
	return out
}

func TestPublisherValidation(t *testing.T) {
	n := transport.NewMem()
	newFakeBroker(t, n, "primary")
	tests := []struct {
		name string
		opts PublisherOptions
	}{
		{"nil network", PublisherOptions{Clock: clock(), Topics: []spec.Topic{topic(1, 1)}}},
		{"nil clock", PublisherOptions{Network: n, Topics: []spec.Topic{topic(1, 1)}}},
		{"invalid topic", PublisherOptions{Network: n, Clock: clock(),
			Topics: []spec.Topic{{ID: 1}}, PrimaryAddr: "primary"}},
		{"bad primary addr", PublisherOptions{Network: n, Clock: clock(),
			Topics: []spec.Topic{topic(1, 1)}, PrimaryAddr: "nobody"}},
		{"bad backup addr", PublisherOptions{Network: n, Clock: clock(),
			Topics: []spec.Topic{topic(1, 1)}, PrimaryAddr: "primary", BackupAddr: "nobody"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Logger = quiet()
			if _, err := NewPublisher(tc.opts); err == nil {
				t.Error("invalid options accepted")
			}
		})
	}
	// Zero topics is a valid empty shell (cluster re-homing adopts into it).
	pub, err := NewPublisher(PublisherOptions{
		Network: n, Clock: clock(), PrimaryAddr: "primary", Logger: quiet(),
	})
	if err != nil {
		t.Fatalf("zero-topic publisher rejected: %v", err)
	}
	pub.Close()
}

func TestPublisherStampsSequencesAndRetains(t *testing.T) {
	n := transport.NewMem()
	primary := newFakeBroker(t, n, "primary")
	pub, err := NewPublisher(PublisherOptions{
		Name: "p", Topics: []spec.Topic{topic(1, 2), topic(2, 0)},
		PrimaryAddr: "primary", Network: n, Clock: clock(), Logger: quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 1; i <= 5; i++ {
		seq, err := pub.Publish(1, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Errorf("publish %d returned seq %d", i, seq)
		}
	}
	if _, err := pub.Publish(2, nil); err != nil {
		t.Fatal(err)
	}
	if pub.LastSeq(1) != 5 || pub.LastSeq(2) != 1 {
		t.Errorf("LastSeq = %d, %d", pub.LastSeq(1), pub.LastSeq(2))
	}
	deadline := time.Now().Add(time.Second)
	for len(primary.framesOf(wire.TypePublish)) < 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	pubs := primary.framesOf(wire.TypePublish)
	if len(pubs) != 6 {
		t.Fatalf("broker saw %d publishes, want 6", len(pubs))
	}
	// Creation timestamps must be monotone within a topic.
	var prev time.Duration
	for _, f := range pubs {
		if f.Msg.Topic != 1 {
			continue
		}
		if f.Msg.Created < prev {
			t.Error("creation timestamps not monotone")
		}
		prev = f.Msg.Created
	}
}

func TestPublisherFailoverResendsRetained(t *testing.T) {
	n := transport.NewMem()
	primary := newFakeBroker(t, n, "primary")
	backup := newFakeBroker(t, n, "backup")
	pub := pairPublisher(t, n)

	for i := 0; i < 7; i++ {
		if _, err := pub.Publish(1, []byte("retained-payload")); err != nil {
			t.Fatal(err)
		}
	}
	primary.kill() // the crash closes the publisher's link: it fails over at once
	select {
	case <-pub.FailedOver():
	case <-time.After(2 * time.Second):
		t.Fatal("publisher never failed over")
	}
	// Retention 3 → the backup received resends of seqs 5, 6, 7.
	deadline := time.Now().Add(time.Second)
	for len(backup.framesOf(wire.TypeResend)) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resends := backup.framesOf(wire.TypeResend)
	if len(resends) != 3 {
		t.Fatalf("backup saw %d resends, want 3", len(resends))
	}
	want := uint64(5)
	for _, f := range resends {
		if f.Msg.Seq != want {
			t.Errorf("resend seq %d, want %d", f.Msg.Seq, want)
		}
		want++
	}
	// Publishing continues against the backup.
	if _, err := pub.Publish(1, []byte("after-failover!!")); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(time.Second)
	for len(backup.framesOf(wire.TypePublish)) < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := backup.framesOf(wire.TypePublish); len(got) != 1 || got[0].Msg.Seq != 8 {
		t.Errorf("post-failover publish: %d frames", len(got))
	}
}

// pairPublisher opens a publisher of topic 1 (Ni = 3) on the fake brokers
// "primary" and "backup", closed when the test ends.
func pairPublisher(t *testing.T, n transport.Network) *Publisher {
	t.Helper()
	pub, err := NewPublisher(PublisherOptions{
		Name: "p", Topics: []spec.Topic{topic(1, 3)},
		PrimaryAddr: "primary", BackupAddr: "backup",
		Network: n, Clock: clock(), Logger: quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pub.Close)
	return pub
}

// TestPublisherFailsOverOnBackupNotice: a Primary that falls silent but
// keeps its connection open is never suspected by the publisher, which runs
// no detector; the promoted Backup's notice alone makes it fail over and
// re-send its retained messages there.
func TestPublisherFailsOverOnBackupNotice(t *testing.T) {
	n := transport.NewMem()
	primary := newFakeBroker(t, n, "primary")
	backup := newFakeBroker(t, n, "backup")
	pub := pairPublisher(t, n)
	for i := 0; i < 5; i++ {
		if _, err := pub.Publish(1, []byte("retained-payload")); err != nil {
			t.Fatal(err)
		}
	}
	primary.answerMu.Lock()
	primary.answer = false // silent from here on, never disconnected
	primary.answerMu.Unlock()
	select {
	case <-pub.FailedOver():
		t.Fatal("publisher failed over on a silent Primary it cannot see is dead")
	case <-time.After(100 * time.Millisecond):
	}
	// The Backup's session may still be opening: a dial and its Hello are
	// all the fake sees of a publisher until it fails over.
	deadline := time.Now().Add(time.Second)
	for backup.accepted() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	backup.notify(t, &wire.Frame{Type: wire.TypePromoted})
	select {
	case <-pub.FailedOver():
	case <-time.After(2 * time.Second):
		t.Fatal("publisher ignored the promoted Backup's notice")
	}
	deadline = time.Now().Add(time.Second)
	for len(backup.framesOf(wire.TypeResend)) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := backup.framesOf(wire.TypeResend); len(got) != 3 || got[0].Msg.Seq != 3 {
		t.Fatalf("backup saw %d resends, want seqs 3..5", len(got))
	}
}

// TestPublisherNoticeFromPrimaryLinkIgnored: only the standby link's notice
// means anything; a Primary that says it was promoted (a promoted Backup
// serving as this publisher's Primary) is already where traffic goes.
func TestPublisherNoticeFromPrimaryLinkIgnored(t *testing.T) {
	n := transport.NewMem()
	primary := newFakeBroker(t, n, "primary")
	newFakeBroker(t, n, "backup")
	pub := pairPublisher(t, n)
	primary.notify(t, &wire.Frame{Type: wire.TypePromoted})
	select {
	case <-pub.FailedOver():
		t.Fatal("publisher failed over on its Primary's notice")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestPublisherDialsPrimaryOnce: with a Backup configured the publisher
// still holds exactly one connection to its Primary and never polls it.
func TestPublisherDialsPrimaryOnce(t *testing.T) {
	n := transport.NewMem()
	primary := newFakeBroker(t, n, "primary")
	newFakeBroker(t, n, "backup")
	pub := pairPublisher(t, n)
	if _, err := pub.Publish(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // ten default detector periods
	if got := primary.accepted(); got != 1 {
		t.Errorf("publisher opened %d connections to the Primary, want 1", got)
	}
	if got := len(primary.framesOf(wire.TypePoll)); got != 0 {
		t.Errorf("publisher polled the Primary %d times, want 0", got)
	}
}

func TestPublisherRejectsUnownedTopic(t *testing.T) {
	n := transport.NewMem()
	newFakeBroker(t, n, "primary")
	pub, err := NewPublisher(PublisherOptions{
		Name: "p", Topics: []spec.Topic{topic(1, 1)},
		PrimaryAddr: "primary", Network: n, Clock: clock(), Logger: quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if _, err := pub.Publish(42, nil); err == nil {
		t.Error("unowned topic accepted")
	}
}

func TestPublisherWrongShardRedirectCallback(t *testing.T) {
	n := transport.NewMem()
	primary := newFakeBroker(t, n, "primary")
	type redirect struct {
		topic spec.TopicID
		epoch uint64
	}
	got := make(chan redirect, 1)
	pub, err := NewPublisher(PublisherOptions{
		Name: "p", Topics: []spec.Topic{topic(1, 0)},
		PrimaryAddr: "primary", Network: n, Clock: clock(), Logger: quiet(),
		OnWrongShard: func(id spec.TopicID, epoch uint64) { got <- redirect{id, epoch} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if _, err := pub.Publish(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Wait for the broker to see the publish, then redirect on the same link.
	deadline := time.Now().Add(time.Second)
	for len(primary.framesOf(wire.TypePublish)) < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	primary.mu.Lock()
	conn := primary.conns[0]
	primary.mu.Unlock()
	if err := conn.Send(&wire.Frame{Type: wire.TypeWrongShard, Topic: 1, Epoch: 9}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.topic != 1 || r.epoch != 9 {
			t.Errorf("redirect = %+v, want topic 1 epoch 9", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnWrongShard never invoked")
	}
}

func TestPublisherDropAndAdoptTopic(t *testing.T) {
	n := transport.NewMem()
	newFakeBroker(t, n, "a")
	b := newFakeBroker(t, n, "b")
	src, err := NewPublisher(PublisherOptions{
		Name: "src", Topics: []spec.Topic{topic(1, 3)},
		PrimaryAddr: "a", Network: n, Clock: clock(), Logger: quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := NewPublisher(PublisherOptions{
		Name: "dst", Topics: []spec.Topic{topic(2, 0)},
		PrimaryAddr: "b", Network: n, Clock: clock(), Logger: quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	for i := 0; i < 5; i++ {
		if _, err := src.Publish(1, []byte("retained-payload")); err != nil {
			t.Fatal(err)
		}
	}
	lastSeq, retained, err := src.DropTopic(1)
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != 5 || len(retained) != 3 {
		t.Fatalf("DropTopic = seq %d, %d retained; want 5, 3", lastSeq, len(retained))
	}
	if _, err := src.Publish(1, nil); err == nil {
		t.Error("publish to dropped topic accepted")
	}
	if _, _, err := src.DropTopic(1); err == nil {
		t.Error("double drop accepted")
	}

	if err := dst.AdoptTopic(topic(1, 3), lastSeq, retained, true); err != nil {
		t.Fatal(err)
	}
	if err := dst.AdoptTopic(topic(1, 3), lastSeq, retained, false); err == nil {
		t.Error("double adopt accepted")
	}
	// Sequence numbering continues gaplessly on the new shard.
	seq, err := dst.Publish(1, []byte("after-the-move!!"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Errorf("post-adopt seq = %d, want 6", seq)
	}
	// The retained window was re-sent to the new shard's broker (§III-B flow).
	deadline := time.Now().Add(time.Second)
	for len(b.framesOf(wire.TypeResend)) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resends := b.framesOf(wire.TypeResend)
	if len(resends) != 3 {
		t.Fatalf("new broker saw %d resends, want 3", len(resends))
	}
	want := uint64(3)
	for _, f := range resends {
		if f.Msg.Topic != 1 || f.Msg.Seq != want {
			t.Errorf("resend topic %d seq %d, want topic 1 seq %d", f.Msg.Topic, f.Msg.Seq, want)
		}
		want++
	}
}

func TestSubscriberValidation(t *testing.T) {
	n := transport.NewMem()
	newFakeBroker(t, n, "b1")
	tests := []struct {
		name string
		opts SubscriberOptions
	}{
		{"nil network", SubscriberOptions{Clock: clock(), Topics: []spec.TopicID{1}, BrokerAddrs: []string{"b1"}}},
		{"nil clock", SubscriberOptions{Network: n, Topics: []spec.TopicID{1}, BrokerAddrs: []string{"b1"}}},
		{"no topics", SubscriberOptions{Network: n, Clock: clock(), BrokerAddrs: []string{"b1"}}},
		{"no brokers", SubscriberOptions{Network: n, Clock: clock(), Topics: []spec.TopicID{1}}},
		{"bad addr", SubscriberOptions{Network: n, Clock: clock(), Topics: []spec.TopicID{1}, BrokerAddrs: []string{"nope"}}},
		{"empty addr", SubscriberOptions{Network: n, Clock: clock(), Topics: []spec.TopicID{1}, BrokerAddrs: []string{""}}},
		// A dead second address fails the whole subscriber, however the
		// first dial went: only a link that once came up is redialed.
		{"dead second addr", SubscriberOptions{Network: n, Clock: clock(), Topics: []spec.TopicID{1}, BrokerAddrs: []string{"b1", "nope"}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Logger = quiet()
			if _, err := NewSubscriber(tc.opts); err == nil {
				t.Error("invalid options accepted")
			}
		})
	}
}

func TestSubscriberSubscribesDedupsAndMeasures(t *testing.T) {
	n := transport.NewMem()
	b1 := newFakeBroker(t, n, "b1")
	b2 := newFakeBroker(t, n, "b2")
	clk := clock()
	var deliveries []Delivery
	var mu sync.Mutex
	sub, err := NewSubscriber(SubscriberOptions{
		Name: "s", Topics: []spec.TopicID{7},
		BrokerAddrs: []string{"b1", "b2"},
		Network:     n, Clock: clk, Logger: quiet(),
		OnDeliver: func(d Delivery) {
			mu.Lock()
			deliveries = append(deliveries, d)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Both brokers saw the subscription.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if len(b1.framesOf(wire.TypeSubscribe)) == 1 && len(b2.framesOf(wire.TypeSubscribe)) == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	subs := b1.framesOf(wire.TypeSubscribe)
	if len(subs) != 1 || len(subs[0].Topics) != 1 || subs[0].Topics[0] != 7 {
		t.Fatalf("b1 subscription frames: %+v", subs)
	}

	// Dispatch seq 1 and 2 from b1, and a duplicate of seq 1 from b2 (as
	// happens during recovery re-dispatch).
	b1.dispatch(7, 1, clk())
	b1.dispatch(7, 2, clk())
	b2.dispatch(7, 1, clk()) // duplicate

	deadline = time.Now().Add(time.Second)
	for sub.Received(7) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sub.Received(7); got != 2 {
		t.Fatalf("Received = %d, want 2", got)
	}
	for sub.Duplicates() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sub.Duplicates(); got != 1 {
		t.Errorf("Duplicates = %d, want 1", got)
	}
	// Latency rides on the deliveries OnDeliver saw: one sample each.
	mu.Lock()
	var lats []time.Duration
	for _, d := range deliveries {
		lats = append(lats, d.Latency)
	}
	mu.Unlock()
	if len(lats) != 2 {
		t.Fatalf("latency samples = %d", len(lats))
	}
	for _, l := range lats {
		if l < 0 || l > time.Second {
			t.Errorf("latency %v implausible", l)
		}
	}
	mu.Lock()
	if len(deliveries) != 2 {
		t.Errorf("OnDeliver calls = %d, want 2 (no callback for dup)", len(deliveries))
	}
	mu.Unlock()
	if got := sub.MaxConsecutiveLoss(7, 4); got != 2 {
		t.Errorf("MaxConsecutiveLoss(.,4) = %d, want 2 (seqs 3,4 missing)", got)
	}
}

func TestSubscriberIgnoresNonDispatchFrames(t *testing.T) {
	n := transport.NewMem()
	b1 := newFakeBroker(t, n, "b1")
	sub, err := NewSubscriber(SubscriberOptions{
		Name: "s", Topics: []spec.TopicID{1}, BrokerAddrs: []string{"b1"},
		Network: n, Clock: clock(), Logger: quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	deadline := time.Now().Add(time.Second)
	for len(b1.framesOf(wire.TypeSubscribe)) < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	b1.mu.Lock()
	conns := append([]*transport.Conn(nil), b1.conns...)
	b1.mu.Unlock()
	for _, c := range conns {
		c.Send(&wire.Frame{Type: wire.TypePollReply, Nonce: 1})
	}
	time.Sleep(20 * time.Millisecond)
	if sub.Received(1) != 0 {
		t.Error("non-dispatch frame counted as delivery")
	}
}

// waitUntil polls cond for up to watchdog and reports whether it held.
func waitUntil(cond func() bool) bool {
	for deadline := time.Now().Add(watchdog); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestSubscriberRedialsLostLink resets a live link and brings the listener
// back at the same address: the subscriber must redial and re-subscribe on
// its own, its delivery log must carry across the two sessions (a seq the
// new session re-sends is a duplicate), and Reconnects counts the one
// redial. Close during the backoff that follows a second loss returns at
// once.
func TestSubscriberRedialsLostLink(t *testing.T) {
	n := transport.NewMem()
	clk := clock()
	first := newFakeBroker(t, n, "b1")
	sub, err := NewSubscriber(SubscriberOptions{
		Name: "s", Topics: []spec.TopicID{7}, BrokerAddrs: []string{"b1"},
		Network: n, Clock: clk, Logger: quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			sub.Close()
		}
	}()
	if !waitUntil(func() bool { return len(first.framesOf(wire.TypeSubscribe)) == 1 }) {
		t.Fatal("first session never subscribed")
	}
	first.dispatch(7, 1, clk())
	first.dispatch(7, 2, clk())
	if !waitUntil(func() bool { return sub.Received(7) == 2 }) {
		t.Fatalf("received %d before the reset, want 2", sub.Received(7))
	}

	first.kill() // the link resets and nothing listens at b1 for a while
	time.Sleep(5 * reconnectDelay)
	if got := sub.Reconnects(); got != 0 {
		t.Fatalf("Reconnects = %d while nothing listens, want 0", got)
	}
	second := newFakeBroker(t, n, "b1")
	if !waitUntil(func() bool { return len(second.framesOf(wire.TypeSubscribe)) == 1 }) {
		t.Fatal("the subscriber never re-subscribed at the restarted listener")
	}
	if subs := second.framesOf(wire.TypeSubscribe); len(subs[0].Topics) != 1 || subs[0].Topics[0] != 7 {
		t.Fatalf("re-subscription %+v, want topic 7", subs[0])
	}
	second.dispatch(7, 2, clk()) // re-sent across the restart
	second.dispatch(7, 3, clk())
	if !waitUntil(func() bool { return sub.Received(7) == 3 && sub.Duplicates() == 1 }) {
		t.Fatalf("received %d distinct and %d duplicates across the restart, want 3 and 1",
			sub.Received(7), sub.Duplicates())
	}
	if got := sub.MaxConsecutiveLoss(7, 3); got != 0 {
		t.Errorf("max consecutive loss %d across the restart, want 0", got)
	}
	if got := sub.Reconnects(); got != 1 {
		t.Errorf("Reconnects = %d, want 1", got)
	}

	second.kill()
	time.Sleep(3 * reconnectDelay) // redialing a dead address
	start := time.Now()
	sub.Close()
	closed = true
	if took := time.Since(start); took > 10*reconnectDelay {
		t.Errorf("Close during the redial backoff took %v", took)
	}
}

// countingNetwork counts the dials to one address.
type countingNetwork struct {
	transport.Network
	addr  string
	dials atomic.Int64
}

func (n *countingNetwork) Dial(addr string) (net.Conn, error) {
	if addr == n.addr {
		n.dials.Add(1)
	}
	return n.Network.Dial(addr)
}

// TestSubscriberRedialSlowsOnDeadLink: a link whose broker is gone for
// good is redialed at the fast cadence for the first second only, then a
// few times a second, with one warning when it slows; Close in the slow
// phase still returns at once.
func TestSubscriberRedialSlowsOnDeadLink(t *testing.T) {
	n := &countingNetwork{Network: transport.NewMem(), addr: "b1"}
	b1 := newFakeBroker(t, n, "b1")
	var logs bytes.Buffer // read only after Close has waited for the links
	sub, err := NewSubscriber(SubscriberOptions{
		Name: "s", Topics: []spec.TopicID{7}, BrokerAddrs: []string{"b1"},
		Network: n, Clock: clock(),
		Logger: slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !waitUntil(func() bool { return len(b1.framesOf(wire.TypeSubscribe)) == 1 }) {
		sub.Close()
		t.Fatal("never subscribed")
	}
	b1.kill()
	n.dials.Store(0)
	time.Sleep(fastRedialFor / 2)
	fast := n.dials.Load()
	time.Sleep(fastRedialFor)
	dials := n.dials.Load()
	start := time.Now()
	sub.Close()
	took := time.Since(start)

	if fast < 10 {
		t.Errorf("%d redials in the first half second of the outage, want the %v cadence", fast, reconnectDelay)
	}
	if dials > 110 {
		t.Errorf("%d redials of a dead address in %v, want at most 110", dials, 3*fastRedialFor/2)
	}
	if warns := strings.Count(logs.String(), "redialing less often"); warns != 1 {
		t.Errorf("%d warnings that the redial slowed, want 1:\n%s", warns, logs.String())
	}
	if took > 100*time.Millisecond {
		t.Errorf("Close in the slow redial phase took %v", took)
	}
}

// TestSubscriberDedupAcrossRehome replays the stream shape a topic re-home
// between shards produces, on one subscriber holding links to both pairs:
// the new owner starts the topic's retained window again from a low
// sequence number that the old owner's link already delivered. The
// subscriber's one delivery log must absorb the overlap across the two
// sources (each source's stream is clean on its own), deliver each
// distinct message exactly once, and still reconstruct loss runs.
func TestSubscriberDedupAcrossRehome(t *testing.T) {
	s := &Subscriber{delivered: NewDeliveryLog()}
	var delivered []uint64
	var lats []time.Duration
	var frames, dupFrames int
	s.opts.Clock = func() time.Duration { return time.Second }
	s.opts.OnDeliver = func(d Delivery) {
		if d.Duplicate {
			t.Errorf("OnDeliver saw a duplicate (topic %d seq %d)", d.Msg.Topic, d.Msg.Seq)
		}
		delivered = append(delivered, d.Msg.Seq)
		lats = append(lats, d.Latency)
	}
	s.opts.OnFrame = func(d Delivery) {
		frames++
		if d.Duplicate {
			dupFrames++
		}
	}

	const topic = spec.TopicID(7)
	feed := func(source string, seqs ...uint64) {
		for _, q := range seqs {
			s.onDispatch(&wire.Frame{Type: wire.TypeDispatch, Msg: wire.Message{
				Topic: topic, Seq: q, Created: time.Duration(q) * time.Millisecond,
			}}, source)
		}
	}
	feed("old-pair", 1, 2, 3, 4, 5) // the topic's life on its first owner
	feed("new-pair", 3, 4, 5, 6)    // re-home: retained window re-sent, then new traffic

	if got := s.Received(topic); got != 6 {
		t.Errorf("received %d distinct, want 6", got)
	}
	if got := s.Duplicates(); got != 3 {
		t.Errorf("%d duplicates discarded, want 3 (the re-sent retained window)", got)
	}
	if frames != 9 || dupFrames != 3 {
		t.Errorf("OnFrame saw %d frames (%d marked duplicate), want all 9 with 3 marked", frames, dupFrames)
	}
	if len(delivered) != 6 {
		t.Errorf("OnDeliver ran %d times, want 6", len(delivered))
	}
	if len(lats) != 6 {
		t.Errorf("%d latency samples, want 6 (one per distinct delivery)", len(lats))
	}
	// Sequences 7 and 8 never arrived: the longest missing run is 2.
	if got := s.MaxConsecutiveLoss(topic, 8); got != 2 {
		t.Errorf("max consecutive loss = %d, want 2", got)
	}
	if got := s.MaxConsecutiveLoss(topic, 6); got != 0 {
		t.Errorf("max consecutive loss over the delivered prefix = %d, want 0", got)
	}
}
