package client

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/racedetect"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ackingBroker is a peer for durable publishers: it acknowledges Publish
// and Resend frames with a PubAck while acking is on, answers polls, and
// allocates nothing per frame (so it can sit under testing.AllocsPerRun).
type ackingBroker struct {
	ln net.Listener

	mu     sync.Mutex
	conns  []*transport.Conn
	killed bool
	acking bool
	seen   chan wire.Type // one token per Publish/Resend received
}

func newAckingBroker(t *testing.T, n transport.Network, addr string, acking bool) *ackingBroker {
	t.Helper()
	ln, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	ab := &ackingBroker{ln: ln, acking: acking, seen: make(chan wire.Type, 1024)}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conn := transport.NewConn(nc)
			ab.mu.Lock()
			if ab.killed {
				// Accepted concurrently with kill: it must not survive it.
				ab.mu.Unlock()
				conn.Close()
				return
			}
			ab.conns = append(ab.conns, conn)
			ab.mu.Unlock()
			go ab.serve(conn)
		}
	}()
	t.Cleanup(ab.kill)
	return ab
}

func (ab *ackingBroker) serve(conn *transport.Conn) {
	f := transport.GetFrame()
	defer transport.PutFrame(f)
	var reply wire.Frame
	for {
		if err := conn.RecvInto(f); err != nil {
			return
		}
		switch f.Type {
		case wire.TypePoll:
			reply = wire.Frame{Type: wire.TypePollReply, Nonce: f.Nonce}
		case wire.TypePublish, wire.TypeResend:
			select {
			case ab.seen <- f.Type:
			default:
			}
			ab.mu.Lock()
			acking := ab.acking
			ab.mu.Unlock()
			if !acking {
				continue
			}
			reply = wire.Frame{Type: wire.TypePubAck, Topic: f.Msg.Topic, Seq: f.Msg.Seq}
		default:
			continue
		}
		if conn.Send(&reply) != nil {
			return
		}
	}
}

func (ab *ackingBroker) kill() {
	ab.ln.Close()
	ab.mu.Lock()
	defer ab.mu.Unlock()
	ab.killed = true
	for _, c := range ab.conns {
		c.Close()
	}
	ab.conns = nil
}

func durablePublisher(t *testing.T, n transport.Network, backupAddr string, timeout time.Duration) *Publisher {
	t.Helper()
	pub, err := NewPublisher(PublisherOptions{
		Name: "p", Topics: []spec.Topic{topic(1, 4)},
		PrimaryAddr: "primary", BackupAddr: backupAddr,
		Network: n, Clock: clock(), Logger: quiet(),
		DurableAcks: true, AckTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// parkPublishes starts k durable publishes and returns once the broker has
// received all of them; their outcomes arrive on the returned channel.
func parkPublishes(pub *Publisher, ab *ackingBroker, k int) <-chan error {
	outcomes := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			_, err := pub.Publish(1, []byte("parked"))
			outcomes <- err
		}()
	}
	for i := 0; i < k; i++ {
		<-ab.seen
	}
	return outcomes
}

// TestPublisherCloseReleasesParkedPublishes: Close returns every durable
// Publish still waiting for its PubAck at once, with an error that wraps
// net.ErrClosed — not after AckTimeout.
func TestPublisherCloseReleasesParkedPublishes(t *testing.T) {
	n := transport.NewMem()
	primary := newAckingBroker(t, n, "primary", false)
	pub := durablePublisher(t, n, "", time.Hour)
	outcomes := parkPublishes(pub, primary, 8)
	pub.Close()
	for i := 0; i < 8; i++ {
		if err := <-outcomes; !errors.Is(err, net.ErrClosed) {
			t.Fatalf("parked publish returned %v, want an error wrapping net.ErrClosed", err)
		}
	}
	if _, err := pub.Publish(1, nil); !errors.Is(err, net.ErrClosed) {
		t.Errorf("publish after Close returned %v", err)
	}
}

// TestPublisherCloseRacesPublish: publishes acked one after another keep
// starting while Close releases the ack table; every one must end, and
// under -race none may touch the table outside ackMu.
func TestPublisherCloseRacesPublish(t *testing.T) {
	n := transport.NewMem()
	newAckingBroker(t, n, "primary", true)
	pub := durablePublisher(t, n, "", time.Hour)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := pub.Publish(1, []byte("racing")); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	pub.Close()
	wg.Wait()
}

// TestPublisherDeadLinkWithoutBackupReleasesParkedPublishes: with no Backup
// to fail over to, losing the broker link releases the parked publishes.
func TestPublisherDeadLinkWithoutBackupReleasesParkedPublishes(t *testing.T) {
	n := transport.NewMem()
	primary := newAckingBroker(t, n, "primary", false)
	pub := durablePublisher(t, n, "", time.Hour)
	defer pub.Close()
	outcomes := parkPublishes(pub, primary, 8)
	primary.kill()
	for i := 0; i < 8; i++ {
		if err := <-outcomes; !errors.Is(err, net.ErrClosed) {
			t.Fatalf("parked publish returned %v, want an error wrapping net.ErrClosed", err)
		}
	}
}

// TestPublisherFailoverResendAcksParkedPublishes: with a Backup standing, a
// dead Primary link releases nothing; fail-over re-sends the retained
// messages and the durable Backup's PubAcks complete the parked publishes.
func TestPublisherFailoverResendAcksParkedPublishes(t *testing.T) {
	n := transport.NewMem()
	primary := newAckingBroker(t, n, "primary", false)
	newAckingBroker(t, n, "backup", true)
	// A fail-over that never fires fails the test instead of hanging it.
	pub := durablePublisher(t, n, "backup", 10*time.Second)
	defer pub.Close()
	outcomes := parkPublishes(pub, primary, 4) // retention 4: all four are re-sent
	primary.kill()
	for i := 0; i < 4; i++ {
		if err := <-outcomes; err != nil {
			t.Fatalf("publish parked across the fail-over returned %v, want the Backup's ack", err)
		}
	}
	if _, err := pub.Publish(1, []byte("after")); err != nil {
		t.Fatalf("publish after fail-over: %v", err)
	}
}

// TestPublisherAckTimeoutStillReported: the pooled waiter keeps the
// timeout outcome, and a waiter that timed out is clean for its next user.
func TestPublisherAckTimeoutStillReported(t *testing.T) {
	n := transport.NewMem()
	primary := newAckingBroker(t, n, "primary", false)
	pub := durablePublisher(t, n, "", 5*time.Millisecond)
	defer pub.Close()
	for i := 0; i < 3; i++ {
		if _, err := pub.Publish(1, nil); err == nil || errors.Is(err, net.ErrClosed) {
			t.Fatalf("unacknowledged publish returned %v, want a timeout", err)
		}
	}
	primary.mu.Lock()
	primary.acking = true
	primary.mu.Unlock()
	for i := 0; i < 3; i++ {
		if _, err := pub.Publish(1, nil); err != nil {
			t.Fatalf("acknowledged publish after timeouts returned %v", err)
		}
	}
}

// TestDurablePublishAllocatesAtMostOnce guards the client's share of the
// durable path: no channel and no timer per publish.
func TestDurablePublishAllocatesAtMostOnce(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("sync.Pool drops entries under -race, so the pooled waiter allocates")
	}
	n := transport.NewMem()
	newAckingBroker(t, n, "primary", true)
	pub := durablePublisher(t, n, "", time.Second)
	defer pub.Close()
	payload := make([]byte, 64)
	publish := func() {
		if _, err := pub.Publish(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		publish()
	}
	if avg := testing.AllocsPerRun(200, publish); avg > 1 {
		t.Errorf("%.1f allocations per durable Publish, want at most 1", avg)
	}
}

// TestSubscriberDeliveryPathDoesNotAllocate: once a topic's log exists and
// its latency ring is full, a delivery costs no allocation.
func TestSubscriberDeliveryPathDoesNotAllocate(t *testing.T) {
	delivered := 0
	s := &Subscriber{delivered: NewDeliveryLog()}
	s.opts.Clock = clock()
	s.opts.OnDeliver = func(Delivery) { delivered++ }
	f := &wire.Frame{Type: wire.TypeDispatch, Msg: wire.Message{Topic: 9, Payload: make([]byte, 64)}}
	deliver := func() {
		f.Msg.Seq++
		s.onDispatch(f, "broker")
	}
	for i := 0; i < LatencyKeep+1; i++ {
		deliver()
	}
	if avg := testing.AllocsPerRun(1000, deliver); avg != 0 {
		t.Errorf("%.2f allocations per delivery, want 0", avg)
	}
	if delivered != int(f.Msg.Seq) {
		t.Errorf("delivered %d of %d", delivered, f.Msg.Seq)
	}
}

// mapModel is the structure the delivery log replaced — a set of seen
// sequence numbers per topic — with the one rule the log adds: an arrival
// older than the dedup window is reported as a duplicate unseen.
type mapModel struct {
	seen     map[uint64]bool
	high     uint64
	received uint64
	dups     uint64
}

func (m *mapModel) record(seq uint64) (dup bool) {
	if (m.high >= DedupWindow && seq <= m.high-DedupWindow) || m.seen[seq] {
		m.dups++
		return true
	}
	m.seen[seq] = true
	m.received++
	if seq > m.high {
		m.high = seq
	}
	return false
}

func (m *mapModel) maxConsecutiveLoss(highest uint64) int {
	maxRun, run := 0, 0
	for q := uint64(1); q <= highest; q++ {
		if m.seen[q] {
			run = 0
			continue
		}
		run++
		if run > maxRun {
			maxRun = run
		}
	}
	return maxRun
}

// TestDeliveryLogMatchesMapModel drives the log and the old map with the
// same seeded streams — in-order runs, losses, duplicates, fail-over
// re-sends reaching back inside the window, stale arrivals from below it,
// and jumps longer than the window — and requires the same verdict on
// every arrival and the same counts and loss runs throughout.
func TestDeliveryLogMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		log := NewDeliveryLog()
		model := &mapModel{seen: map[uint64]bool{}}
		const topic = spec.TopicID(5)
		next := uint64(1)
		feed := func(seq uint64) {
			if got, want := log.Record(topic, seq, time.Duration(seq)), model.record(seq); got != want {
				t.Fatalf("seed %d: seq %d (high %d): log says dup=%v, model says %v", seed, seq, model.high, got, want)
			}
		}
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(100); {
			case r < 70: // the next message, in order
				feed(next)
				next++
			case r < 80: // lost in the network
				next += uint64(1 + rng.Intn(4))
			case r < 88: // a duplicate of something recent
				if next > 1 {
					feed(next - 1 - uint64(rng.Intn(int(min(next-1, 8)))))
				}
			case r < 94: // fail-over: the retained window again, oldest first
				back := uint64(rng.Intn(64))
				for seq := next - min(next-1, back); seq < next; seq++ {
					feed(seq)
				}
			case r < 99: // stale: from below the window
				if model.high > DedupWindow+10 {
					feed(1 + uint64(rng.Int63n(int64(model.high-DedupWindow))))
				}
			default: // the subscriber was away for longer than the window
				next += DedupWindow + uint64(rng.Intn(2*DedupWindow))
			}
			if step%97 != 0 {
				continue
			}
			if got, want := log.Received(topic), model.received; got != want {
				t.Fatalf("seed %d step %d: Received = %d, model %d", seed, step, got, want)
			}
			if got, want := log.Duplicates(), model.dups; got != want {
				t.Fatalf("seed %d step %d: Duplicates = %d, model %d", seed, step, got, want)
			}
			for _, highest := range []uint64{model.high, model.high + 3, next + 7} {
				if got, want := log.MaxConsecutiveLoss(topic, highest), model.maxConsecutiveLoss(highest); got != want {
					t.Fatalf("seed %d step %d: MaxConsecutiveLoss(%d) = %d, model %d", seed, step, highest, got, want)
				}
			}
		}
	}
}

// TestDeliveryLogEdges pins the window's edges and the latency ring.
func TestDeliveryLogEdges(t *testing.T) {
	log := NewDeliveryLog()
	if got := log.MaxConsecutiveLoss(1, 9); got != 9 {
		t.Errorf("unknown topic: MaxConsecutiveLoss = %d, want all 9 lost", got)
	}
	if log.Latencies(1) != nil || log.Received(1) != 0 {
		t.Error("unknown topic has deliveries")
	}
	total := uint64(DedupWindow + LatencyKeep + 10)
	for seq := uint64(1); seq <= total; seq++ {
		if log.Record(1, seq, time.Duration(seq)) {
			t.Fatalf("seq %d reported duplicate on first delivery", seq)
		}
	}
	lats := log.Latencies(1)
	if len(lats) != LatencyKeep {
		t.Fatalf("%d latency samples kept, want the %d most recent", len(lats), LatencyKeep)
	}
	for i, l := range lats {
		if want := time.Duration(total - LatencyKeep + 1 + uint64(i)); l != want {
			t.Fatalf("sample %d = %v, want %v (oldest first)", i, l, want)
		}
	}
	lowest := total - DedupWindow + 1
	if !log.Record(1, lowest, 0) {
		t.Error("the window's lowest sequence number was not recognised as a duplicate")
	}
	if !log.Record(1, lowest-1, 0) {
		t.Error("an arrival just below the window was delivered again")
	}
	if got := log.Duplicates(); got != 2 {
		t.Errorf("Duplicates = %d, want 2", got)
	}
	if got := log.MaxConsecutiveLoss(1, total); got != 0 {
		t.Errorf("MaxConsecutiveLoss = %d over a gapless stream", got)
	}
}
