package broker

import (
	"context"
	"log/slog"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

func goroutineDump() []byte {
	buf := make([]byte, 1<<20)
	return buf[:runtime.Stack(buf, true)]
}

// waitNoBrokerGoroutines fails unless every goroutine a broker or its
// egress stack started is gone. Stop has returned by then; the poll only
// covers the detached conn-closing helpers, which outlive it by design.
func waitNoBrokerGoroutines(t *testing.T) {
	t.Helper()
	var dump string
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		dump = string(goroutineDump())
		if !strings.Contains(dump, "internal/broker.(*Broker)") &&
			!strings.Contains(dump, "transport.(*flusher)") && !strings.Contains(dump, "transport.(*Egress)") {
			return
		}
	}
	t.Fatalf("broker goroutines still running after Stop:\n%s", dump)
}

// logEvents is a slog.Handler that turns each record's message into a
// channel event, so tests wait on what the broker reports instead of polling.
type logEvents chan string

func (h logEvents) Enabled(context.Context, slog.Level) bool { return true }
func (h logEvents) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h logEvents) WithGroup(string) slog.Handler            { return h }
func (h logEvents) Handle(_ context.Context, r slog.Record) error {
	select {
	case h <- r.Message:
	default: // nobody is waiting for this many; drop
	}
	return nil
}

func (h logEvents) await(t *testing.T, prefix string) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case msg := <-h:
			if strings.HasPrefix(msg, prefix) {
				return
			}
		case <-timeout:
			t.Fatalf("broker never logged %q", prefix)
		}
	}
}

// publishPolled sends one 16-byte message on a rawPublisher link with a Poll
// behind it. The session handles frames in order, so when the PollReply is
// back the publish is in its lane's intake and the lane has been unparked.
func publishPolled(t *testing.T, conn *transport.Conn, topic spec.TopicID, seq uint64) {
	t.Helper()
	publishStamped(t, conn, topic, seq, 16)
}

// pollRoundTrip sends a Poll and reads its reply: one trip through the
// session goroutine and back.
func pollRoundTrip(t *testing.T, conn *transport.Conn, nonce uint64) {
	t.Helper()
	if err := conn.Send(&wire.Frame{Type: wire.TypePoll, Nonce: nonce}); err != nil {
		t.Fatal(err)
	}
	f, err := conn.Recv()
	if err == nil && f.Type == wire.TypePromoted {
		f, err = conn.Recv() // a publisher on a promoted Backup is told so first
	}
	if err != nil || f.Type != wire.TypePollReply || f.Nonce != nonce {
		t.Fatalf("poll reply %d: %+v, %v", nonce, f, err)
	}
}

// deliveries subscribes to topics and returns each distinct delivery's
// (topic, seq) as an event.
func deliveries(t *testing.T, n transport.Network, clock func() time.Duration, addrs []string, topics ...spec.TopicID) <-chan wire.Message {
	t.Helper()
	ch := make(chan wire.Message, 4096) // more than any test publishes: OnDeliver never blocks the link
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "events-sub", Topics: topics, BrokerAddrs: addrs, Network: n, Clock: clock, Logger: quietLogger(),
		OnDeliver: func(d client.Delivery) { ch <- wire.Message{Topic: d.Msg.Topic, Seq: d.Msg.Seq} },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	return ch
}

func nextDelivery(t *testing.T, ch <-chan wire.Message) wire.Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
		return wire.Message{}
	}
}

// fifoChances is how many Poll round trips the FIFO test spends between
// publishing seq n+1 and releasing the dispatcher that holds seq n. Each one
// parks the test goroutine four times on a synchronous pipe, so a second
// popper of the lane — already made runnable by the publish's unpark — gets
// that many turns on the scheduler before the test concludes there is none.
// With three workers per lane (the parent of PR 16) the sibling overtook
// after a median of 2 and at most 553 round trips in 100 runs.
const fifoChances = 1024

// TestPerTopicFIFOWithHeldDispatcher holds the dispatcher that popped
// message n of a topic between its pop and its egress enqueue while message
// n+1 of the same topic is published. With default Options nothing may pop
// n+1 while n is held, and the subscriber must see n before n+1. With several
// workers per lane a free sibling pops n+1 and enqueues it first; with one
// dispatcher per lane nothing can.
//
// That no sibling will ever pop cannot be observed as an event, so the test
// gives one fifoChances scheduler hand-offs instead of a sleep. The topic and
// n come from a logged seed.
func TestPerTopicFIFOWithHeldDispatcher(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed=%d", seed)
	rng := rand.New(rand.NewSource(seed))
	var topics []spec.Topic
	for id := spec.TopicID(1); id <= 8; id++ {
		topics = append(topics, lanTopic(id, 3))
	}
	topic := topics[rng.Intn(len(topics))].ID
	n := uint64(1 + rng.Intn(6))

	netw, clock := transport.NewMem(), testClock()
	b, err := New(Options{
		Engine: core.FRAMEConfig(lanParams()), Role: RolePrimary, ListenAddr: "primary",
		Network: netw, Clock: clock, Topics: topics, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	held, release, overtaken := make(chan struct{}), make(chan struct{}), make(chan struct{})
	b.afterPop = func(w core.Work) {
		if w.Kind != core.WorkDispatch || w.Msg.Topic != topic {
			return
		}
		switch w.Msg.Seq {
		case n:
			close(held)
			<-release
		case n + 1:
			select {
			case <-release:
			default: // popped while seq n is still between its pop and its enqueue
				close(overtaken)
			}
		}
	}
	b.Start()
	defer b.Stop()
	var once sync.Once
	releaseHold := func() { once.Do(func() { close(release) }) }
	defer releaseHold() // before Stop, which waits for the held dispatcher
	got := deliveries(t, netw, clock, []string{"primary"}, topic)
	pub := rawPublisher(t, netw, "primary")
	defer pub.Close()

	for seq := uint64(1); seq < n; seq++ {
		publishPolled(t, pub, topic, seq)
		if m := nextDelivery(t, got); m.Seq != seq {
			t.Fatalf("warm-up delivery seq %d, want %d", m.Seq, seq)
		}
	}
	publishPolled(t, pub, topic, n)
	<-held
	publishPolled(t, pub, topic, n+1) // in the lane's intake, and the lane unparked, on return
	for i := uint64(0); i < fifoChances; i++ {
		select {
		case <-overtaken:
			t.Fatalf("topic %d: seq %d was popped while the dispatcher holding seq %d had not enqueued it: the lane has a second popper",
				topic, n+1, n)
		default:
			pollRoundTrip(t, pub, n+2+i)
		}
	}
	releaseHold()
	first, second := nextDelivery(t, got).Seq, nextDelivery(t, got).Seq
	if first != n || second != n+1 {
		t.Fatalf("topic %d delivered seq %d then %d, want %d then %d: per-topic FIFO broken", topic, first, second, n, n+1)
	}
}

// fakeBackup listens on addr for the Primary's replication link and records
// what arrives on it. With drain false it reads the Hello and then never
// reads again: a Backup that accepted the link and wedged.
type fakeBackup struct {
	frames chan wire.Frame // every frame after the Hello, until the link dies
	wedged chan net.Conn   // the link, once it has stopped reading
}

func startFakeBackup(t *testing.T, n transport.Network, addr string, drain bool) *fakeBackup {
	t.Helper()
	ln, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	fb := &fakeBackup{frames: make(chan wire.Frame, 4096), wedged: make(chan net.Conn, 1)}
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		conn := transport.NewConn(nc)
		if f, err := conn.Recv(); err != nil || f.Type != wire.TypeHello {
			t.Errorf("replication link opened with %+v, %v", f, err)
			return
		}
		if !drain {
			fb.wedged <- nc
			return
		}
		defer close(fb.frames)
		defer conn.Close()
		for {
			f, err := conn.Recv()
			if err != nil {
				return
			}
			fb.frames <- wire.Frame{Type: f.Type, Topic: f.Topic, Seq: f.Seq, Msg: wire.Message{Topic: f.Msg.Topic, Seq: f.Msg.Seq}}
		}
	}()
	return fb
}

func primaryWithPeer(t *testing.T, n transport.Network, topics []spec.Topic, log *slog.Logger, stall time.Duration) (*Broker, func() time.Duration) {
	t.Helper()
	clock := testClock()
	cfg := core.FRAMEConfig(lanParams())
	cfg.MessageBufferCap = 1024
	b, err := New(Options{
		Engine: cfg, Role: RolePrimary, ListenAddr: "primary", PeerAddr: "backup",
		Network: n, Clock: clock, Topics: topics, Logger: log, PeerWriteTimeout: stall,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	t.Cleanup(b.Stop)
	return b, clock
}

// TestPeerRingStalledBackupDropsLink: a Backup that accepts the replication
// link and stops reading costs the lanes nothing while the ring has room —
// subscribers keep receiving — and costs the link its life once a write has
// made no progress for PeerWriteTimeout: one peer stall, peer cleared, and
// nothing left running or referenced after Stop.
func TestPeerRingStalledBackupDropsLink(t *testing.T) {
	base := transport.FrameBufRefs()
	n := transport.NewMem()
	topics := []spec.Topic{lanTopic(1, 3), lanTopic(2, 3)}
	fb := startFakeBackup(t, n, "backup", false)
	events := make(logEvents, 64)
	b, clock := primaryWithPeer(t, n, topics, slog.New(events), 100*time.Millisecond)
	link := <-fb.wedged
	defer link.Close()
	got := deliveries(t, n, clock, []string{"primary"}, 1, 2)
	pub := rawPublisher(t, n, "primary")
	defer pub.Close()

	const count = 40
	for seq := uint64(1); seq <= count; seq++ {
		publishPolled(t, pub, 1, seq)
		publishPolled(t, pub, 2, seq)
	}
	for i := 0; i < 2*count; i++ {
		nextDelivery(t, got) // the lanes dispatched everything past the wedged link
	}
	events.await(t, "replication link dropped")
	if got := b.PeerStalls(); got != 1 {
		t.Errorf("peer stalls = %d, want 1", got)
	}
	if b.peer() != nil || b.Health().PeerConnected {
		t.Error("replication link still installed after its write stalled")
	}
	if ps := b.peerMeter.Snapshot(); ps.Enqueued == 0 || ps.Flushed != 0 {
		t.Errorf("peer ring enqueued %d, flushed %d; want frames queued and none written to a wedged Backup", ps.Enqueued, ps.Flushed)
	}
	// With the link gone replication is off and dispatch is unaffected.
	publishPolled(t, pub, 1, count+1)
	if m := nextDelivery(t, got); m.Seq != count+1 {
		t.Errorf("delivery after the drop has seq %d, want %d", m.Seq, count+1)
	}
	pub.Close()
	b.Stop()
	if refs := transport.FrameBufRefs(); refs != base {
		t.Errorf("leaked %d FrameBuf references", refs-base)
	}
	waitNoBrokerGoroutines(t)
}

// TestPeerRingKeepsPruneBehindReplicate: a Prune names a copy the Backup
// must already hold, so on the link it never overtakes its Replicate — both
// leave through one ring, in the order the topic's lane produced them.
func TestPeerRingKeepsPruneBehindReplicate(t *testing.T) {
	n := transport.NewMem()
	var topics []spec.Topic
	for id := spec.TopicID(1); id <= 6; id++ {
		topics = append(topics, lanTopic(id, 3))
	}
	fb := startFakeBackup(t, n, "backup", true)
	b, clock := primaryWithPeer(t, n, topics, quietLogger(), 0)
	got := deliveries(t, n, clock, []string{"primary"}, 1, 2, 3, 4, 5, 6)
	pub := rawPublisher(t, n, "primary")
	defer pub.Close()
	const perTopic = 50
	for seq := uint64(1); seq <= perTopic; seq++ {
		for _, tp := range topics {
			publishPolled(t, pub, tp.ID, seq)
		}
	}
	for i := 0; i < perTopic*len(topics); i++ {
		nextDelivery(t, got)
	}
	// Every dispatch has run its Table 3 steps (the Prune enqueue comes after
	// the subscriber's) and every frame handed to the ring has been written.
	total := uint64(perTopic * len(topics))
	waitFor(t, 2*time.Second, "the ring to drain", func() bool {
		return b.obs.Dispatches.Load() == total &&
			b.peerMeter.Flushed.Load() == b.obs.Replicates.Load()+b.obs.PrunesSent.Load()
	})
	pub.Close()
	b.Stop()

	type key struct {
		topic spec.TopicID
		seq   uint64
	}
	replicated := make(map[key]bool)
	prunes := 0
	for f := range fb.frames {
		switch f.Type {
		case wire.TypeReplicate:
			replicated[key{f.Msg.Topic, f.Msg.Seq}] = true
		case wire.TypePrune:
			prunes++
			if !replicated[key{f.Topic, f.Seq}] {
				t.Fatalf("Prune(topic %d, seq %d) reached the Backup before its Replicate", f.Topic, f.Seq)
			}
		}
	}
	if prunes == 0 || uint64(prunes) != b.obs.PrunesSent.Load() || uint64(len(replicated)) != b.obs.Replicates.Load() {
		t.Errorf("link carried %d replicas and %d prunes; the broker counted %d and %d",
			len(replicated), prunes, b.obs.Replicates.Load(), b.obs.PrunesSent.Load())
	}
}

// TestPeerRingRetiredBeforeFlusherPool: however the link ends — Stop, Kill,
// or the Backup going away under traffic — its ring is closed and waited
// before the flusher pool it drains through, so no frame reference and no
// goroutine survives the broker. The references shutdown itself must drop —
// Message and Backup Buffer entries, publishes parked in an intake ring, the
// buffer of a session caught pushing into a full one, a Work whose entry was
// evicted under it — are part of the same count.
func TestPeerRingRetiredBeforeFlusherPool(t *testing.T) {
	for _, how := range []string{"stop", "kill", "backup-exits"} {
		t.Run(how, func(t *testing.T) {
			base := transport.FrameBufRefs()
			topics := []spec.Topic{lanTopic(1, 3), lanTopic(2, 3)}
			c := startCluster(t, transport.NewMem(), "primary", "backup", topics)
			deliveries(t, c.net, c.clock, []string{"primary"}, 1, 2)
			pub := rawPublisher(t, c.net, "primary")
			defer pub.Close()
			for seq := uint64(1); seq <= 100; seq++ {
				publishPolled(t, pub, 1, seq)
				publishPolled(t, pub, 2, seq)
				if seq == 50 && how == "backup-exits" {
					c.backup.Stop()
				}
			}
			// Traffic is still in the rings when the broker goes down.
			pub.Close()
			if how == "kill" {
				c.primary.Kill()
			} else {
				c.primary.Stop()
			}
			c.backup.Stop()
			if refs := transport.FrameBufRefs(); refs != base {
				t.Errorf("leaked %d FrameBuf references", refs-base)
			}
			waitNoBrokerGoroutines(t)
		})
	}

	// The dispatcher is held with one Work out; behind it the two-slot intake
	// fills and the session spins on the next publish. Kill finds all three.
	t.Run("kill-with-intake-parked", func(t *testing.T) {
		base := transport.FrameBufRefs()
		n := transport.NewMem()
		held, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		b, _ := hookedPrimary(t, n, []spec.Topic{lanTopic(1, 3)}, func(o *Options) { o.IntakeDepth = 2 },
			func(core.Work) {
				once.Do(func() { close(held) })
				<-release
			})
		pub := rawPublisher(t, n, "primary")
		defer pub.Close()
		publishPolled(t, pub, 1, 1)
		<-held
		publishPolled(t, pub, 1, 2)
		publishPolled(t, pub, 1, 3)
		// No Poll behind this one: its session never gets back to the socket.
		m := wire.Message{Topic: 1, Seq: 4, Created: 4, Payload: []byte("0123456789abcdef")}
		if err := pub.Send(&wire.Frame{Type: wire.TypePublish, Msg: m}); err != nil {
			t.Fatal(err)
		}
		lane := b.lane(1)
		waitFor(t, 2*time.Second, "the session to stall on the full intake", func() bool { return lane.intakeStalls.Load() > 0 })
		if got := lane.intake.Len(); got != 2 {
			t.Fatalf("intake holds %d publishes, want 2", got)
		}
		killed := make(chan struct{})
		go func() {
			b.Kill()
			close(killed)
		}()
		waitFor(t, 2*time.Second, "shutdown to begin", b.stopping.Load)
		close(release) // the dispatcher finishes its Work and exits without draining
		<-killed
		if refs := transport.FrameBufRefs(); refs != base {
			t.Errorf("leaked %d FrameBuf references", refs-base)
		}
		waitNoBrokerGoroutines(t)
	})

	// After promotion a recovery Work is held while the old Primary's link
	// wraps the Backup Buffer, evicting the entry the Work came from.
	t.Run("evicted-while-work-out", func(t *testing.T) {
		base := transport.FrameBufRefs()
		n := transport.NewMem()
		const slots = 4
		held, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		b, peer, clock := standaloneBackup(t, n, slots, func(core.Work) {
			once.Do(func() { close(held) })
			<-release
		}, lanTopic(1, 3))
		got := checkedDeliveries(t, n, clock, "backup", 1)
		sendReplica(t, peer, 1, 1, 64)
		pollRoundTrip(t, peer, 1)
		b.promote()
		<-held
		for seq := uint64(2); seq < 2+2*slots; seq++ {
			sendReplica(t, peer, 1, seq, 64)
		}
		pollRoundTrip(t, peer, 2) // the Backup Buffer has wrapped twice
		close(release)
		if m := nextDelivery(t, got); m.Seq != 1 {
			t.Fatalf("recovery delivered seq %d, want 1", m.Seq)
		}
		peer.Close()
		b.Stop()
		if refs := transport.FrameBufRefs(); refs != base {
			t.Errorf("leaked %d FrameBuf references", refs-base)
		}
		waitNoBrokerGoroutines(t)
	})
}
