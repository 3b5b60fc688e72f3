package broker

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// soloPrimary builds and starts a Primary with no Backup, so egress behavior
// is observable without replication traffic in the way.
func soloPrimary(t *testing.T, n transport.Network, topics []spec.Topic, mutate func(*Options)) (*Broker, func() time.Duration) {
	t.Helper()
	return hookedPrimary(t, n, topics, mutate, nil)
}

// hookedPrimary is soloPrimary with the afterPop seam installed before the
// dispatchers start.
func hookedPrimary(t *testing.T, n transport.Network, topics []spec.Topic, mutate func(*Options), afterPop func(core.Work)) (*Broker, func() time.Duration) {
	t.Helper()
	clock := testClock()
	cfg := core.FRAMEConfig(lanParams())
	cfg.MessageBufferCap = 1024
	opts := Options{
		Engine:     cfg,
		Role:       RolePrimary,
		ListenAddr: "primary",
		Network:    n,
		Clock:      clock,
		Topics:     topics,
		Logger:     quietLogger(),
	}
	if mutate != nil {
		mutate(&opts)
	}
	b, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	b.afterPop = afterPop
	b.Start()
	return b, clock
}

// rawPublish floods the broker with sequenced messages for one topic until
// stop flips, pacing lightly so the run spans the whole churn window.
func rawPublish(t *testing.T, n transport.Network, addr string, clock func() time.Duration, topic spec.TopicID, stop *atomic.Bool, published *atomic.Uint64) {
	t.Helper()
	nc, err := n.Dial(addr)
	if err != nil {
		t.Errorf("publisher dial: %v", err)
		return
	}
	conn := transport.NewConn(nc)
	defer conn.Close()
	if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RolePublisher, Name: "egress-pub"}); err != nil {
		t.Errorf("publisher hello: %v", err)
		return
	}
	payload := make([]byte, 32)
	for seq := uint64(1); !stop.Load(); seq++ {
		f := &wire.Frame{Type: wire.TypePublish, Msg: wire.Message{
			Topic: topic, Seq: seq, Created: clock(), Payload: payload,
		}}
		if err := conn.Send(f); err != nil {
			return // broker shutting down
		}
		published.Store(seq)
		time.Sleep(200 * time.Microsecond)
	}
}

// TestSubscriberChurnDuringFanout connects and disconnects subscribers while
// dispatch fan-out is running flat out: removeSubscriber races in-flight
// enqueues, egress writers race their conn's Close, and after everything
// stops no FrameBuf reference may be left behind. Run under -race this is
// the ownership proof for the enqueue path.
func TestSubscriberChurnDuringFanout(t *testing.T) {
	base := transport.FrameBufRefs()
	n := transport.NewMem()
	topics := []spec.Topic{lanTopic(1, 3)}
	b, clock := soloPrimary(t, n, topics, nil)

	var stop atomic.Bool
	var published atomic.Uint64
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		rawPublish(t, n, "primary", clock, 1, &stop, &published)
	}()

	for i := 0; i < 12; i++ {
		sub, err := client.NewSubscriber(client.SubscriberOptions{
			Name:        "churn-sub",
			Topics:      []spec.TopicID{1},
			BrokerAddrs: []string{"primary"},
			Network:     n,
			Clock:       clock,
			Logger:      quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Leave while frames are still streaming at us: sometimes right
		// away (disconnect racing the very first enqueues), sometimes after
		// traffic flowed.
		if i%3 != 0 {
			waitFor(t, 2*time.Second, "subscriber saw traffic", func() bool {
				return sub.Received(1) > 0
			})
		}
		sub.Close()
	}

	stop.Store(true)
	<-pubDone
	b.Stop()
	if refs := transport.FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references after churn", refs-base)
	}
	if b.EgressStats().Enqueued == 0 {
		t.Fatal("no frames ever took the egress path")
	}
}

// TestStalledSubscriberEvictedAndReleased runs a healthy subscriber alone
// behind a small egress ring, then wedges a second one (it subscribes and
// then never reads) while the healthy one keeps consuming. Alone, the
// healthy ring neither sheds nor evicts; once the wedged one joins, it must
// shed within the topic's Li and then be evicted — without the healthy
// subscriber losing anything in either regime, and without leaking a single
// buffer reference.
func TestStalledSubscriberEvictedAndReleased(t *testing.T) {
	base := transport.FrameBufRefs()
	n := transport.NewMem()
	tp := lanTopic(1, 3)
	tp.LossTolerance = 2
	b, clock := soloPrimary(t, n, []spec.Topic{tp}, func(o *Options) {
		o.EgressDepth = 8
	})

	healthy, err := client.NewSubscriber(client.SubscriberOptions{
		Name:        "healthy",
		Topics:      []spec.TopicID{1},
		BrokerAddrs: []string{"primary"},
		Network:     n,
		Clock:       clock,
		Logger:      quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	waitFor(t, 2*time.Second, "healthy subscription registered", func() bool {
		_, subs := b.egressQueued()
		return subs == 1
	})

	var stop atomic.Bool
	var published atomic.Uint64
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		rawPublish(t, n, "primary", clock, 1, &stop, &published)
	}()
	waitFor(t, 5*time.Second, "healthy regime traffic", func() bool {
		return healthy.Received(1) >= 50
	})
	if es := b.EgressStats(); es.Shed != 0 || es.Evictions != 0 {
		t.Errorf("healthy regime: Shed = %d, Evictions = %d, want 0/0", es.Shed, es.Evictions)
	}

	// Stalled subscriber: raw conn, subscribes, never reads. Mem conns are
	// synchronous pipes, so the broker's egress writer wedges on the first
	// flush and the ring must absorb, shed, and finally evict.
	nc, err := n.Dial("primary")
	if err != nil {
		t.Fatal(err)
	}
	stalled := transport.NewConn(nc)
	defer stalled.Close()
	if err := stalled.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RoleSubscriber, Name: "stalled"}); err != nil {
		t.Fatal(err)
	}
	if err := stalled.Send(&wire.Frame{Type: wire.TypeSubscribe, Topics: []spec.TopicID{1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "stalled subscriber evicted", func() bool {
		return b.EgressStats().Evictions >= 1
	})
	stop.Store(true)
	<-pubDone

	es := b.EgressStats()
	if es.Evictions != 1 {
		t.Errorf("Evictions = %d, want exactly 1 (only the stalled subscriber)", es.Evictions)
	}
	if es.Shed < uint64(tp.LossTolerance) {
		t.Errorf("Shed = %d, want >= Li = %d before eviction", es.Shed, tp.LossTolerance)
	}
	// The healthy subscriber must be completely unaffected: every message
	// published before the pump stopped eventually arrives, in order.
	last := published.Load()
	waitFor(t, 5*time.Second, "healthy subscriber caught up", func() bool {
		return healthy.Received(1) >= last
	})
	if loss := healthy.MaxConsecutiveLoss(1, last); loss != 0 {
		t.Errorf("healthy subscriber max consecutive loss = %d, want 0", loss)
	}

	b.Stop()
	if refs := transport.FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references after eviction", refs-base)
	}
}
