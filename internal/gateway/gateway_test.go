// Proof harness for the connection plane. The load-bearing property is
// equivalence: a thin client behind the gateway must see exactly what a
// direct broker subscription sees — same dedup, same FIFO-per-topic, loss
// within Li — even while other clients churn, a sibling client wedges, or
// the gateway itself restarts. Each test builds the real stack (broker or
// cluster, gateway, clients) over the in-process Mem transport, where
// backpressure is synchronous and nothing hides in kernel buffers.
package gateway_test

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/gateway"
	"repro/internal/obsv"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
	"repro/internal/wire"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

func testTopics(n, li int) ([]spec.Topic, []spec.TopicID) {
	topics := make([]spec.Topic, n)
	ids := make([]spec.TopicID, n)
	for i := range topics {
		topics[i] = spec.Topic{
			ID:            spec.TopicID(i + 1),
			Category:      -1,
			Period:        20 * time.Millisecond,
			Deadline:      time.Second,
			LossTolerance: li,
			Retention:     8,
			Destination:   spec.DestEdge,
			PayloadSize:   16,
		}
		ids[i] = topics[i].ID
	}
	return topics, ids
}

func testParams() timing.Params {
	return timing.Params{
		DeltaBSEdge:  time.Millisecond,
		DeltaBSCloud: time.Millisecond,
		DeltaBB:      time.Millisecond,
		Failover:     50 * time.Millisecond,
	}
}

// newSoloBroker brings up a solo Primary on the Mem address "primary".
func newSoloBroker(t *testing.T, net *transport.Mem, clock func() time.Duration, topics []spec.Topic) *broker.Broker {
	t.Helper()
	engineCfg := core.FRAMEConfig(testParams())
	engineCfg.MessageBufferCap = 4096
	b, err := broker.New(broker.Options{
		Engine:     engineCfg,
		Role:       broker.RolePrimary,
		ListenAddr: "primary",
		Network:    net,
		Clock:      clock,
		Topics:     topics,
		Logger:     quietLogger(),
	})
	if err != nil {
		t.Fatalf("broker: %v", err)
	}
	b.Start()
	t.Cleanup(b.Stop)
	return b
}

// rawConn opens a raw wire session for tests that need to act below the
// client helpers (publishers, wedged subscribers, protocol probes).
func rawConn(t *testing.T, net transport.Network, addr, name string, role wire.Role) *transport.Conn {
	t.Helper()
	nc, err := net.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	conn := transport.NewConn(nc)
	if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: role, Name: name}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return conn
}

func publishThrough(t *testing.T, conn *transport.Conn, clock func() time.Duration, ids []spec.TopicID, firstSeq, perTopic int, interval time.Duration) {
	t.Helper()
	payload := []byte("gateway-test-pay")
	for seq := firstSeq; seq < firstSeq+perTopic; seq++ {
		for _, id := range ids {
			f := &wire.Frame{Type: wire.TypePublish, Msg: wire.Message{
				Topic: id, Seq: uint64(seq), Created: clock(), Payload: payload,
			}}
			if err := conn.Send(f); err != nil {
				t.Fatalf("publish topic %d seq %d: %v", id, seq, err)
			}
			if interval > 0 {
				time.Sleep(interval)
			}
		}
	}
}

func waitFor(t *testing.T, what string, deadline time.Duration, cond func() bool) {
	t.Helper()
	limit := time.Now().Add(deadline)
	for !cond() {
		if time.Now().After(limit) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// rewindTracker counts per-topic sequence rewinds — the FIFO violation a
// re-dispatched or reordered stream would show.
type rewindTracker struct {
	mu      sync.Mutex
	maxSeq  map[spec.TopicID]uint64
	rewinds int
}

func newRewindTracker() *rewindTracker {
	return &rewindTracker{maxSeq: make(map[spec.TopicID]uint64)}
}

func (r *rewindTracker) note(d client.Delivery) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d.Msg.Seq < r.maxSeq[d.Msg.Topic] {
		r.rewinds++
	} else {
		r.maxSeq[d.Msg.Topic] = d.Msg.Seq
	}
}

func (r *rewindTracker) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rewinds
}

// TestGatewayEquivalentToDirectSubscription is the model-based equivalence
// proof: one subscriber connects straight to the broker, one thin client
// connects through the gateway, both subscribe to everything, and a seeded
// wave of churning clients connects/disconnects throughout. Publishing
// goes through the gateway's forward path. At the end both observers must
// have identical per-topic distinct delivery counts equal to the published
// count, zero duplicates, and zero per-topic sequence rewinds.
func TestGatewayEquivalentToDirectSubscription(t *testing.T) {
	const (
		nTopics  = 4
		perTopic = 120
		churners = 12
		seed     = 0x5eedfade
	)
	topics, ids := testTopics(nTopics, 64)
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	net := transport.NewMem()
	b := newSoloBroker(t, net, clock, topics)

	gw, err := gateway.New(gateway.Options{
		ListenAddr:  "gw",
		Topics:      topics,
		BrokerAddrs: []string{b.Addr()},
		Network:     net,
		Clock:       clock,
		ClientDepth: 256,
		Logger:      quietLogger(),
	})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	gw.Start()
	t.Cleanup(gw.Stop)

	directFIFO := newRewindTracker()
	direct, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "direct", Topics: ids, BrokerAddrs: []string{b.Addr()},
		Network: net, Clock: clock, OnFrame: directFIFO.note, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatalf("direct subscriber: %v", err)
	}
	t.Cleanup(direct.Close)

	thinFIFO := newRewindTracker()
	thin, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "thin", Topics: ids, BrokerAddrs: []string{"gw"},
		Network: net, Clock: clock, OnFrame: thinFIFO.note, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatalf("thin subscriber: %v", err)
	}
	t.Cleanup(thin.Close)

	// Seeded churn: clients connect, read briefly, disconnect — while the
	// publisher runs. Their connects/disconnects must not disturb the two
	// observers.
	rng := rand.New(rand.NewSource(seed))
	churnDone := make(chan struct{})
	churnHold := make([]time.Duration, churners)
	churnGap := make([]time.Duration, churners)
	for i := range churnHold {
		churnHold[i] = time.Duration(1+rng.Intn(10)) * time.Millisecond
		churnGap[i] = time.Duration(rng.Intn(4)) * time.Millisecond
	}
	go func() {
		defer close(churnDone)
		for i := 0; i < churners; i++ {
			c, err := client.NewSubscriber(client.SubscriberOptions{
				Name: fmt.Sprintf("churn-%d", i), Topics: ids, BrokerAddrs: []string{"gw"},
				Network: net, Clock: clock, Logger: quietLogger(),
			})
			if err != nil {
				continue // gateway mid-shutdown; the test's asserts decide
			}
			time.Sleep(churnHold[i])
			c.Close()
			time.Sleep(churnGap[i])
		}
	}()

	pub := rawConn(t, net, "gw", "pub", wire.RolePublisher)
	defer pub.Close()
	publishThrough(t, pub, clock, ids, 1, perTopic, 50*time.Microsecond)
	<-churnDone

	want := uint64(perTopic)
	waitFor(t, "all deliveries", 10*time.Second, func() bool {
		for _, id := range ids {
			if direct.Received(id) < want || thin.Received(id) < want {
				return false
			}
		}
		return true
	})

	for _, id := range ids {
		if d, th := direct.Received(id), thin.Received(id); d != th || d != want {
			t.Errorf("topic %d: direct=%d thin=%d want %d", id, d, th, want)
		}
		if loss := thin.MaxConsecutiveLoss(id, want); loss != 0 {
			t.Errorf("topic %d: thin client lost %d consecutive", id, loss)
		}
	}
	if d := direct.Duplicates(); d != 0 {
		t.Errorf("direct subscriber saw %d duplicates", d)
	}
	if d := thin.Duplicates(); d != 0 {
		t.Errorf("thin subscriber saw %d duplicates", d)
	}
	if r := directFIFO.count(); r != 0 {
		t.Errorf("direct subscriber saw %d FIFO rewinds", r)
	}
	if r := thinFIFO.count(); r != 0 {
		t.Errorf("thin subscriber saw %d FIFO rewinds", r)
	}
	if got := gw.Forwarded(); got != uint64(nTopics*perTopic) {
		t.Errorf("gateway forwarded %d publishes, want %d", got, nTopics*perTopic)
	}
	if errs := gw.ForwardErrs(); errs != 0 {
		t.Errorf("gateway dropped %d publishes", errs)
	}
}

// TestGatewayChurnSoak drives seeded connect/subscribe/disconnect waves
// against a live gateway while a publisher streams, asserting the session
// table drains back to steady state and a stable observer never misses a
// message. Run under -race this is the churn data-race soak.
func TestGatewayChurnSoak(t *testing.T) {
	const seed = 0xc4a05
	waves, perWave := 6, 8
	if testing.Short() {
		waves = 3
	}
	topics, ids := testTopics(4, spec.LossUnbounded)
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	net := transport.NewMem()
	b := newSoloBroker(t, net, clock, topics)

	gw, err := gateway.New(gateway.Options{
		ListenAddr:  "gw",
		Topics:      topics,
		BrokerAddrs: []string{b.Addr()},
		Network:     net,
		Clock:       clock,
		ClientDepth: 128,
		Logger:      quietLogger(),
	})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	gw.Start()
	t.Cleanup(gw.Stop)

	stable, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "stable", Topics: ids, BrokerAddrs: []string{"gw"},
		Network: net, Clock: clock, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatalf("stable subscriber: %v", err)
	}
	t.Cleanup(stable.Close)

	stop := make(chan struct{})
	var pubDone sync.WaitGroup
	pubDone.Add(1)
	seqHigh := uint64(0)
	go func() {
		defer pubDone.Done()
		pub := rawConn(t, net, "gw", "soak-pub", wire.RolePublisher)
		defer pub.Close()
		payload := []byte("soak")
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, id := range ids {
				if err := pub.Send(&wire.Frame{Type: wire.TypePublish, Msg: wire.Message{
					Topic: id, Seq: seq, Created: clock(), Payload: payload,
				}}); err != nil {
					return
				}
			}
			seqHigh = seq
			time.Sleep(200 * time.Microsecond)
		}
	}()

	rng := rand.New(rand.NewSource(seed))
	for w := 0; w < waves; w++ {
		var wave sync.WaitGroup
		for i := 0; i < perWave; i++ {
			hold := time.Duration(rng.Intn(8)) * time.Millisecond
			sub := ids[rng.Intn(len(ids)):len(ids)] // varying topic slices
			wave.Add(1)
			go func(i int, hold time.Duration, sub []spec.TopicID) {
				defer wave.Done()
				c, err := client.NewSubscriber(client.SubscriberOptions{
					Name: fmt.Sprintf("wave-%d", i), Topics: sub, BrokerAddrs: []string{"gw"},
					Network: net, Clock: clock, Logger: quietLogger(),
				})
				if err != nil {
					t.Errorf("wave subscriber: %v", err)
					return
				}
				time.Sleep(hold)
				c.Close()
			}(i, hold, sub)
		}
		wave.Wait()
	}
	close(stop)
	pubDone.Wait()

	// Every churned session must have unregistered: only the stable client
	// remains.
	waitFor(t, "session table drain", 2*time.Second, func() bool { return gw.Clients() == 1 })
	high := seqHigh
	waitFor(t, "stable catch-up", 5*time.Second, func() bool {
		for _, id := range ids {
			if stable.Received(id) < high {
				return false
			}
		}
		return true
	})
	if d := stable.Duplicates(); d != 0 {
		t.Errorf("stable subscriber saw %d duplicates", d)
	}
	if ev := gw.Evictions(); ev != 0 {
		t.Errorf("%d clients evicted during churn; rings sized to hold the stream", ev)
	}
}

// TestGatewaySlowClientIsolation wedges one client (never reads) while a
// healthy sibling subscribes to the same topics. The wedged client's ring
// must shed within Li and evict past it — at the gateway — while the
// broker-side egress stays untouched: the isolation contract that lets a
// broker session carry thousands of phones.
func TestGatewaySlowClientIsolation(t *testing.T) {
	const perTopic = 80
	topics, ids := testTopics(8, 8)
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	net := transport.NewMem()
	b := newSoloBroker(t, net, clock, topics)

	gw, err := gateway.New(gateway.Options{
		ListenAddr:         "gw",
		Topics:             topics,
		BrokerAddrs:        []string{b.Addr()},
		Network:            net,
		Clock:              clock,
		ClientDepth:        16,
		ClientWriteTimeout: 200 * time.Millisecond,
		Logger:             quietLogger(),
	})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	gw.Start()
	t.Cleanup(gw.Stop)

	healthy, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "healthy", Topics: ids, BrokerAddrs: []string{"gw"},
		Network: net, Clock: clock, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatalf("healthy subscriber: %v", err)
	}
	t.Cleanup(healthy.Close)

	// The wedged client subscribes and then never reads: over net.Pipe the
	// gateway's first flush to it blocks, its ring fills, and the Li-aware
	// policy takes over.
	wedged := rawConn(t, net, "gw", "wedged", wire.RoleSubscriber)
	defer wedged.Close()
	for _, f := range []*wire.Frame{{Type: wire.TypeSubscribe, Topics: ids}, {Type: wire.TypePoll, Nonce: 1}} {
		if err := wedged.Send(f); err != nil {
			t.Fatalf("wedged subscribe: %v", err)
		}
	}
	// The PollReply confirms the Subscribe; the client reads nothing after it.
	if f, err := wedged.Recv(); err != nil || f.Type != wire.TypePollReply || f.Nonce != 1 {
		t.Fatalf("wedged subscribe unconfirmed: %+v, %v", f, err)
	}

	pub := rawConn(t, net, "gw", "pub", wire.RolePublisher)
	defer pub.Close()
	publishThrough(t, pub, clock, ids, 1, perTopic, 100*time.Microsecond)

	waitFor(t, "healthy deliveries", 10*time.Second, func() bool {
		for _, id := range ids {
			if healthy.Received(id) < perTopic {
				return false
			}
		}
		return true
	})
	waitFor(t, "wedged eviction", 5*time.Second, func() bool { return gw.EgressStats().Evictions >= 1 })

	gwStats := gw.EgressStats()
	if gwStats.Shed == 0 {
		t.Error("gateway shed nothing; the wedged ring should have overflowed")
	}
	if d := healthy.Duplicates(); d != 0 {
		t.Errorf("healthy subscriber saw %d duplicates", d)
	}
	// The broker-side stall check: its egress (serving the gateway's one
	// upstream session) must show no shed, no evictions, no write errors.
	bStats := b.EgressStats()
	if bStats.Shed != 0 || bStats.Evictions != 0 || bStats.WriteErrs != 0 {
		t.Errorf("broker egress disturbed by wedged thin client: shed=%d evictions=%d writeErrs=%d",
			bStats.Shed, bStats.Evictions, bStats.WriteErrs)
	}
}

// TestGatewayRestartThinClientReconnects kills the gateway mid-stream and
// brings a new one up at the same address. Thin clients must redial and
// resubscribe on their own, and with publishing paused across the outage
// the stream resumes with no loss, no duplicates, and no rewinds — the
// brokers never notice beyond the gateway's sessions closing.
func TestGatewayRestartThinClientReconnects(t *testing.T) {
	const perTopic = 40
	topics, ids := testTopics(2, 256)
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	net := transport.NewMem()
	b := newSoloBroker(t, net, clock, topics)

	newGW := func() *gateway.Gateway {
		gw, err := gateway.New(gateway.Options{
			ListenAddr:  "gw",
			Topics:      topics,
			BrokerAddrs: []string{b.Addr()},
			Network:     net,
			Clock:       clock,
			Logger:      quietLogger(),
		})
		if err != nil {
			t.Fatalf("gateway: %v", err)
		}
		gw.Start()
		return gw
	}
	gw1 := newGW()

	thin, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "thin", Topics: ids, BrokerAddrs: []string{"gw"},
		Network: net, Clock: clock, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatalf("thin subscriber: %v", err)
	}
	t.Cleanup(thin.Close)

	pub := rawConn(t, net, "gw", "pub", wire.RolePublisher)
	publishThrough(t, pub, clock, ids, 1, perTopic, 100*time.Microsecond)
	waitFor(t, "first batch", 5*time.Second, func() bool {
		for _, id := range ids {
			if thin.Received(id) < perTopic {
				return false
			}
		}
		return true
	})

	gw1.Stop()
	pub.Close()

	gw2 := newGW()
	t.Cleanup(gw2.Stop)
	waitFor(t, "thin reconnect", 5*time.Second, func() bool {
		return thin.Reconnects() >= 1 && gw2.Subscribers() >= 1
	})

	pub2 := rawConn(t, net, "gw", "pub2", wire.RolePublisher)
	defer pub2.Close()
	publishThrough(t, pub2, clock, ids, perTopic+1, perTopic, 100*time.Microsecond)

	want := uint64(2 * perTopic)
	waitFor(t, "second batch", 5*time.Second, func() bool {
		for _, id := range ids {
			if thin.Received(id) < want {
				return false
			}
		}
		return true
	})
	for _, id := range ids {
		if loss := thin.MaxConsecutiveLoss(id, want); loss != 0 {
			t.Errorf("topic %d: lost %d consecutive across restart", id, loss)
		}
	}
	if d := thin.Duplicates(); d != 0 {
		t.Errorf("thin subscriber saw %d duplicates across restart", d)
	}
	// The broker's view: its subscriber count went 1 → 0 → 1 as gateways
	// swapped, with no egress damage.
	bStats := b.EgressStats()
	if bStats.Evictions != 0 {
		t.Errorf("broker evicted %d sessions across gateway restart", bStats.Evictions)
	}
}

// TestGatewayDirectoryMode runs the gateway against a 2-shard cluster: it
// must fetch routes from the Directory, hold one upstream subscriber per
// pair, and route each client publish to the owning shard.
func TestGatewayDirectoryMode(t *testing.T) {
	const perTopic = 20
	topics, ids := testTopics(8, 64)
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	net := transport.NewMem()

	engineCfg := core.FRAMEConfig(testParams())
	engineCfg.MessageBufferCap = 4096
	cl, err := cluster.New(cluster.Config{
		Shards: 2,
		Topics: topics,
		Broker: broker.Options{
			Engine:  engineCfg,
			Network: net,
			Clock:   clock,
			Detector: failover.Config{
				Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond, Misses: 3,
			},
			Logger: quietLogger(),
		},
		Mem: true,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(cl.Stop)

	gw, err := gateway.New(gateway.Options{
		ListenAddr:    "gw",
		Topics:        topics,
		DirectoryAddr: cl.Dir.Addr(),
		Network:       net,
		Clock:         clock,
		Logger:        quietLogger(),
	})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	gw.Start()
	t.Cleanup(gw.Stop)

	thin, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "thin", Topics: ids, BrokerAddrs: []string{"gw"},
		Network: net, Clock: clock, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatalf("thin subscriber: %v", err)
	}
	t.Cleanup(thin.Close)

	pub := rawConn(t, net, "gw", "pub", wire.RolePublisher)
	defer pub.Close()
	publishThrough(t, pub, clock, ids, 1, perTopic, 100*time.Microsecond)

	waitFor(t, "all shard deliveries", 10*time.Second, func() bool {
		for _, id := range ids {
			if thin.Received(id) < perTopic {
				return false
			}
		}
		return true
	})
	if d := thin.Duplicates(); d != 0 {
		t.Errorf("thin subscriber saw %d duplicates", d)
	}
	if got := gw.Forwarded(); got != uint64(len(ids)*perTopic) {
		t.Errorf("gateway forwarded %d, want %d", got, len(ids)*perTopic)
	}
	if errs := gw.ForwardErrs(); errs != 0 {
		t.Errorf("gateway dropped %d publishes", errs)
	}
	// Both shards served deliveries: every topic hashed to one of the two
	// pairs, and every topic arrived.
	part := cluster.Partition(topics, 2)
	if len(part[0]) == 0 || len(part[1]) == 0 {
		t.Fatalf("degenerate partition: %d/%d", len(part[0]), len(part[1]))
	}
}

// TestGatewayControlFrames exercises the client-facing protocol subset:
// Poll gets a correlated PollReply, TimeReq gets a clocksync TimeResp, and
// a broker-internal frame type kills the session.
func TestGatewayControlFrames(t *testing.T) {
	topics, _ := testTopics(1, 0)
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	net := transport.NewMem()
	b := newSoloBroker(t, net, clock, topics)

	gw, err := gateway.New(gateway.Options{
		ListenAddr:  "gw",
		Topics:      topics,
		BrokerAddrs: []string{b.Addr()},
		Network:     net,
		Clock:       clock,
		Logger:      quietLogger(),
	})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	gw.Start()
	t.Cleanup(gw.Stop)

	probe := rawConn(t, net, "gw", "probe", wire.RoleSubscriber)
	defer probe.Close()
	if err := probe.Send(&wire.Frame{Type: wire.TypePoll, Nonce: 42}); err != nil {
		t.Fatalf("poll: %v", err)
	}
	f, err := probe.Recv()
	if err != nil {
		t.Fatalf("poll reply: %v", err)
	}
	if f.Type != wire.TypePollReply || f.Nonce != 42 {
		t.Fatalf("got %v nonce %d, want POLL_REPLY nonce 42", f.Type, f.Nonce)
	}

	if err := probe.Send(&wire.Frame{Type: wire.TypeTimeReq, T1: 123}); err != nil {
		t.Fatalf("time req: %v", err)
	}
	f, err = probe.Recv()
	if err != nil {
		t.Fatalf("time resp: %v", err)
	}
	if f.Type != wire.TypeTimeResp || f.T1 != 123 {
		t.Fatalf("got %v T1=%v, want TIME_RESP T1=123", f.Type, f.T1)
	}

	// A replication frame on a client session is a protocol violation: the
	// gateway drops the session.
	if err := probe.Send(&wire.Frame{Type: wire.TypeReplicate, Msg: wire.Message{Topic: 1, Seq: 1}}); err != nil {
		t.Fatalf("send replicate: %v", err)
	}
	probe.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := probe.Recv(); err == nil {
		t.Fatal("session survived a broker-internal frame type")
	}
	waitFor(t, "session teardown", 2*time.Second, func() bool { return gw.Clients() == 0 })
}

// TestGatewayMetricsAndHealth scrapes the admin endpoint for the
// frame_gateway_* family and checks the health shape.
func TestGatewayMetricsAndHealth(t *testing.T) {
	topics, ids := testTopics(2, 8)
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	net := transport.NewMem()
	b := newSoloBroker(t, net, clock, topics)

	gw, err := gateway.New(gateway.Options{
		ListenAddr:  "gw",
		Topics:      topics,
		BrokerAddrs: []string{b.Addr()},
		Network:     net,
		Clock:       clock,
		AdminAddr:   "127.0.0.1:0",
		Logger:      quietLogger(),
	})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	gw.Start()
	t.Cleanup(gw.Stop)

	thin, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "thin", Topics: ids, BrokerAddrs: []string{"gw"},
		Network: net, Clock: clock, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatalf("thin subscriber: %v", err)
	}
	t.Cleanup(thin.Close)

	pub := rawConn(t, net, "gw", "pub", wire.RolePublisher)
	defer pub.Close()
	publishThrough(t, pub, clock, ids, 1, 5, 0)
	waitFor(t, "deliveries", 5*time.Second, func() bool {
		for _, id := range ids {
			if thin.Received(id) < 5 {
				return false
			}
		}
		return true
	})

	h := gw.Health()
	if h.Role != "gateway" {
		t.Errorf("health role %q, want gateway", h.Role)
	}
	if h.EgressSubs != 1 {
		t.Errorf("health egress subs %d, want 1", h.EgressSubs)
	}
	if h.PeerAddr != b.Addr() {
		t.Errorf("health peer %q, want %q", h.PeerAddr, b.Addr())
	}

	resp, err := http.Get("http://" + gw.AdminAddr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	samples, err := obsv.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parse metrics: %v", err)
	}
	byName := make(map[string]float64)
	for _, s := range samples {
		byName[s.Name] = s.Value
	}
	for _, name := range []string{
		"frame_gateway_clients",
		"frame_gateway_subscribers",
		"frame_gateway_delivered_total",
		"frame_gateway_forwarded_total",
		"frame_gateway_egress_enqueued_total",
		"frame_gateway_egress_flushed_total",
		"frame_gateway_egress_queued",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("metric %s missing from scrape", name)
		}
	}
	if got := byName["frame_gateway_clients"]; got < 2 { // thin + pub sessions
		t.Errorf("frame_gateway_clients = %v, want >= 2", got)
	}
	if got := byName["frame_gateway_forwarded_total"]; got != 10 {
		t.Errorf("frame_gateway_forwarded_total = %v, want 10", got)
	}
	if got := byName["frame_gateway_delivered_total"]; got != 10 {
		t.Errorf("frame_gateway_delivered_total = %v, want 10", got)
	}
}

// TestGatewayOptionValidation covers New's rejection paths.
func TestGatewayOptionValidation(t *testing.T) {
	topics, _ := testTopics(1, 0)
	net := transport.NewMem()
	cases := []struct {
		name string
		opts gateway.Options
		want string // a substring the error must carry; empty accepts any error
	}{
		{"nil network", gateway.Options{ListenAddr: "gw", Topics: topics, BrokerAddrs: []string{"x"}}, ""},
		{"no topics", gateway.Options{ListenAddr: "gw", Network: net, BrokerAddrs: []string{"x"}}, ""},
		{"no upstream", gateway.Options{ListenAddr: "gw", Topics: topics, Network: net}, ""},
		{"both upstreams", gateway.Options{ListenAddr: "gw", Topics: topics, Network: net,
			BrokerAddrs: []string{"x"}, DirectoryAddr: "y"}, ""},
		{"bad broker addr", gateway.Options{ListenAddr: "gw", Topics: topics, Network: net,
			BrokerAddrs: []string{"nowhere"}}, ""},
		{"negative flushers", gateway.Options{ListenAddr: "gw", Topics: topics, Network: net,
			BrokerAddrs: []string{"x"}, Flushers: -1}, "negative flushers"},
	}
	for _, tc := range cases {
		_, err := gateway.New(tc.opts)
		if err == nil {
			t.Errorf("%s: New accepted invalid options", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestThinSubscriberValidation covers the rejection paths of a thin
// client: a client.Subscriber whose only address is a gateway's. The
// gateway at "gw" is live, so each case fails on its own options, not on
// a missing listener; "dead gateway" names an address nobody serves.
func TestThinSubscriberValidation(t *testing.T) {
	topics, ids := testTopics(1, 0)
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	net := transport.NewMem()
	b := newSoloBroker(t, net, clock, topics)
	gw, err := gateway.New(gateway.Options{
		ListenAddr: "gw", Topics: topics, BrokerAddrs: []string{b.Addr()},
		Network: net, Clock: clock, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	gw.Start()
	t.Cleanup(gw.Stop)

	cases := []struct {
		name string
		opts client.SubscriberOptions
	}{
		{"nil network", client.SubscriberOptions{Topics: ids, BrokerAddrs: []string{"gw"}, Clock: clock}},
		{"nil clock", client.SubscriberOptions{Topics: ids, BrokerAddrs: []string{"gw"}, Network: net}},
		{"no topics", client.SubscriberOptions{BrokerAddrs: []string{"gw"}, Network: net, Clock: clock}},
		{"no gateway", client.SubscriberOptions{Topics: ids, Network: net, Clock: clock}},
		{"dead gateway", client.SubscriberOptions{Topics: ids, BrokerAddrs: []string{"nowhere"}, Network: net, Clock: clock}},
	}
	for _, tc := range cases {
		tc.opts.Logger = quietLogger()
		if s, err := client.NewSubscriber(tc.opts); err == nil {
			s.Close()
			t.Errorf("%s: thin subscriber accepted invalid options", tc.name)
		}
	}
}

// TestDecodeClientFrame pins the client-facing parser's accept/reject
// split: the thin-client subset decodes, broker-internal types and
// corrupt bytes are rejected.
func TestDecodeClientFrame(t *testing.T) {
	ok := []wire.Frame{
		{Type: wire.TypeHello, Role: wire.RoleSubscriber, Name: "c"},
		{Type: wire.TypeSubscribe, Topics: []spec.TopicID{1, 2}},
		{Type: wire.TypePublish, Msg: wire.Message{Topic: 1, Seq: 1, Payload: []byte("x")}},
		{Type: wire.TypeResend, Msg: wire.Message{Topic: 1, Seq: 1}},
		{Type: wire.TypePoll, Nonce: 7},
		{Type: wire.TypeTimeReq, T1: 1},
	}
	for _, f := range ok {
		buf, err := wire.Encode(nil, &f)
		if err != nil {
			t.Fatalf("encode %v: %v", f.Type, err)
		}
		var out wire.Frame
		if err := gateway.DecodeClientFrame(buf, &out); err != nil {
			t.Errorf("%v rejected: %v", f.Type, err)
		}
		if out.Type != f.Type {
			t.Errorf("decoded %v, want %v", out.Type, f.Type)
		}
	}
	rejected := []wire.Frame{
		{Type: wire.TypeDispatch, Msg: wire.Message{Topic: 1, Seq: 1}},
		{Type: wire.TypeReplicate, Msg: wire.Message{Topic: 1, Seq: 1}},
		{Type: wire.TypePrune, Topic: 1, Seq: 1},
		{Type: wire.TypeRouteReq, Nonce: 1},
	}
	for _, f := range rejected {
		buf, err := wire.Encode(nil, &f)
		if err != nil {
			t.Fatalf("encode %v: %v", f.Type, err)
		}
		var out wire.Frame
		if err := gateway.DecodeClientFrame(buf, &out); err == nil {
			t.Errorf("%v accepted on a client session", f.Type)
		}
	}
	var out wire.Frame
	if err := gateway.DecodeClientFrame([]byte{0xFF, 0x01, 0x02}, &out); err == nil {
		t.Error("garbage bytes decoded")
	}
	if err := gateway.DecodeClientFrame(nil, &out); err == nil {
		t.Error("empty buffer decoded")
	}
}

// TestGatewayFanoutCopiesBeforeTheNextDelivery: the gateway's upstream
// subscriber hands fanout a payload that lives in the upstream link's receive
// window and is overwritten by the next frame. Two different payloads
// published back to back must both reach a thin client intact — fanout
// encodes its own copy before it returns.
func TestGatewayFanoutCopiesBeforeTheNextDelivery(t *testing.T) {
	topics, ids := testTopics(1, 64)
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	net := transport.NewMem()
	b := newSoloBroker(t, net, clock, topics)
	gw, err := gateway.New(gateway.Options{
		ListenAddr: "gw", Topics: topics, BrokerAddrs: []string{b.Addr()},
		Network: net, Clock: clock, ClientDepth: 256, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	gw.Start()
	t.Cleanup(gw.Stop)
	type seen struct {
		seq     uint64
		payload string
	}
	got := make(chan seen, 4)
	thin, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "thin", Topics: ids, BrokerAddrs: []string{"gw"}, Network: net, Clock: clock, Logger: quietLogger(),
		OnDeliver: func(d client.Delivery) { got <- seen{d.Msg.Seq, string(d.Msg.Payload)} },
	})
	if err != nil {
		t.Fatalf("thin subscriber: %v", err)
	}
	t.Cleanup(thin.Close)

	pub := rawConn(t, net, "gw", "pub", wire.RolePublisher)
	defer pub.Close()
	want := []seen{{1, "first-payload-AAAAAAAAAAAAAAAA"}, {2, "second-payload-BBBBBBBBBBBBBBB"}}
	for _, w := range want {
		f := &wire.Frame{Type: wire.TypePublish, Msg: wire.Message{Topic: ids[0], Seq: w.seq, Created: clock(), Payload: []byte(w.payload)}}
		if err := pub.Send(f); err != nil {
			t.Fatalf("publish seq %d: %v", w.seq, err)
		}
	}
	for _, w := range want {
		select {
		case s := <-got:
			if s != w {
				t.Errorf("thin client got seq %d with %q, want seq %d with %q", s.seq, s.payload, w.seq, w.payload)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("seq %d never reached the thin client", w.seq)
		}
	}
}
