package gateway

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/clocksync"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DefaultReconnectDelay paces redial attempts after a lost gateway session.
const DefaultReconnectDelay = 10 * time.Millisecond

// ThinSubscriberOptions configures a ThinSubscriber.
type ThinSubscriberOptions struct {
	// Name identifies the client in its Hello frame.
	Name string
	// Topics to subscribe to.
	Topics []spec.TopicID
	// GatewayAddr is the gateway's client-facing address.
	GatewayAddr string
	// Network supplies dialing.
	Network transport.Network
	// Clock is the synchronized timebase used to stamp ts.
	Clock clocksync.Clock
	// Reconnect redials after a lost session (gateway crash/restart)
	// until Close; false makes a lost session terminal, like
	// client.Subscriber.
	Reconnect bool
	// ReconnectDelay paces redials (DefaultReconnectDelay when <= 0).
	ReconnectDelay time.Duration
	// OnDeliver, if non-nil, runs for every distinct delivery.
	OnDeliver func(client.Delivery)
	// OnFrame, if non-nil, runs for every dispatch frame received,
	// duplicates included (Duplicate set) — the chaos recorders' view.
	OnFrame func(client.Delivery)
	// Logger receives operational events; nil means slog.Default.
	Logger *slog.Logger
}

// ThinSubscriber is the end-client side of the connection plane: one
// session to one gateway, dedup and delivery records identical to
// client.Subscriber's, plus optional automatic reconnect — the property a
// phone-class client needs and a broker-owned session never had. Counters
// survive reconnects, so equivalence tests can compare a churned thin
// client against an uninterrupted direct subscription.
type ThinSubscriber struct {
	opts ThinSubscriberOptions
	log  *slog.Logger

	cancel context.CancelFunc
	wg     sync.WaitGroup

	reconnects atomic.Uint64

	mu   sync.Mutex
	conn *transport.Conn

	delivered *client.DeliveryLog
}

// NewThinSubscriber dials the gateway, subscribes, and starts the receive
// loop. The first session must succeed — a misconfigured address fails
// fast — but later losses follow the Reconnect policy.
func NewThinSubscriber(opts ThinSubscriberOptions) (*ThinSubscriber, error) {
	if opts.Network == nil || opts.Clock == nil {
		return nil, errors.New("gateway: thin subscriber needs network and clock")
	}
	if len(opts.Topics) == 0 || opts.GatewayAddr == "" {
		return nil, errors.New("gateway: thin subscriber needs topics and a gateway address")
	}
	if opts.ReconnectDelay <= 0 {
		opts.ReconnectDelay = DefaultReconnectDelay
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	t := &ThinSubscriber{
		opts:      opts,
		log:       opts.Logger.With("thin-subscriber", opts.Name),
		delivered: client.NewDeliveryLog(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	conn, err := t.dial()
	if err != nil {
		cancel()
		return nil, err
	}
	t.setConn(conn)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.run(ctx, conn)
	}()
	return t, nil
}

// dial opens one gateway session: connect, Hello, Subscribe.
func (t *ThinSubscriber) dial() (*transport.Conn, error) {
	nc, err := t.opts.Network.Dial(t.opts.GatewayAddr)
	if err != nil {
		return nil, fmt.Errorf("gateway: dial %s: %w", t.opts.GatewayAddr, err)
	}
	conn := transport.NewConn(nc)
	if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RoleSubscriber, Name: t.opts.Name}); err != nil {
		conn.Close()
		return nil, err
	}
	if err := conn.Send(&wire.Frame{Type: wire.TypeSubscribe, Topics: t.opts.Topics}); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

func (t *ThinSubscriber) setConn(conn *transport.Conn) {
	t.mu.Lock()
	t.conn = conn
	t.mu.Unlock()
}

// run drives the session lifecycle: read until the session dies, then —
// under the Reconnect policy — redial with backoff until Close. The
// delivery log carries across sessions, so a dispatch replayed
// around a gateway restart dedups exactly as it would on one unbroken
// session.
func (t *ThinSubscriber) run(ctx context.Context, conn *transport.Conn) {
	for {
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		t.readLoop(conn)
		stop()
		conn.Close()
		if !t.opts.Reconnect || ctx.Err() != nil {
			return
		}
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(t.opts.ReconnectDelay):
			}
			next, err := t.dial()
			if err == nil {
				conn = next
				t.setConn(conn)
				t.reconnects.Add(1)
				break
			}
		}
	}
}

// readLoop drains one session with a pooled, reused frame.
func (t *ThinSubscriber) readLoop(conn *transport.Conn) {
	f := transport.GetFrame()
	defer transport.PutFrame(f)
	for {
		if err := conn.RecvInto(f); err != nil {
			return
		}
		if f.Type != wire.TypeDispatch {
			continue
		}
		t.onDispatch(f)
	}
}

// onDispatch mirrors client.Subscriber.onDispatch: stamp ts, dedup on the
// delivery log, and run the callbacks.
func (t *ThinSubscriber) onDispatch(f *wire.Frame) {
	now := t.opts.Clock()
	latency := now - f.Msg.Created
	dup := t.delivered.Record(f.Msg.Topic, f.Msg.Seq, latency)
	d := client.Delivery{Msg: f.Msg, Latency: latency, Duplicate: dup, Source: t.opts.GatewayAddr}
	if t.opts.OnFrame != nil {
		t.opts.OnFrame(d)
	}
	if dup {
		return
	}
	if t.opts.OnDeliver != nil {
		d.Duplicate = false
		t.opts.OnDeliver(d)
	}
}

// Reconnects returns how many times the session was re-established.
func (t *ThinSubscriber) Reconnects() uint64 { return t.reconnects.Load() }

// Received returns how many distinct messages arrived for the topic.
func (t *ThinSubscriber) Received(topic spec.TopicID) uint64 { return t.delivered.Received(topic) }

// Duplicates returns how many duplicate deliveries were discarded.
func (t *ThinSubscriber) Duplicates() uint64 { return t.delivered.Duplicates() }

// Latencies returns a copy of the topic's most recent end-to-end latency
// samples (at most client.LatencyKeep, oldest first).
func (t *ThinSubscriber) Latencies(topic spec.TopicID) []time.Duration {
	return t.delivered.Latencies(topic)
}

// MaxConsecutiveLoss reconstructs the longest run of missing sequence
// numbers for the topic, given the highest sequence the publisher created.
func (t *ThinSubscriber) MaxConsecutiveLoss(topic spec.TopicID, highestCreated uint64) int {
	return t.delivered.MaxConsecutiveLoss(topic, highestCreated)
}

// Close tears the session down and waits for the receive loop.
func (t *ThinSubscriber) Close() {
	t.cancel()
	t.mu.Lock()
	conn := t.conn
	t.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	t.wg.Wait()
}
