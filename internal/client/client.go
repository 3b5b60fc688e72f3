// Package client implements FRAME's endpoint runtimes: Publishers, which
// act as proxies for collections of IIoT devices, retain their Ni latest
// messages per topic, and re-send them to the Backup on fail-over
// (§III-B); and Subscribers, which receive dispatches from whichever
// broker is Primary (or from a gateway), redial a lost link, discard
// duplicates, and record end-to-end latency and loss statistics (§VI).
//
// The Publish contract. Publish returns once the message is queued on the
// link's uplink ring, not once it is written: the payload was copied (into
// the frame and into the topic's retention slot), so the caller may reuse its
// buffer on return. Each link's ring has a one-flusher pool of its own,
// which drains it with one vectored write per batch, so whatever a burst
// queued while the flusher was waking or writing crosses the kernel
// together, and the publisher's lock is never held across a socket write. A full ring blocks Publish, as a full
// socket would. A failed write closes the ring: the next Publish on that link
// fails with an error wrapping net.ErrClosed, and durable publishes parked on
// a PubAck are released as for any lost link. A fail-over drops what was
// still queued for the dead Primary and queues each topic's retained
// messages on the Backup link ahead of any new publish. Close writes out what
// Publish accepted (waiting at most a second for a broker that has stopped
// reading) before it closes the links.
package client

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clocksync"
	"repro/internal/ringbuf"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// PublisherOptions configures a publisher proxy.
type PublisherOptions struct {
	// Name identifies the publisher in Hello frames and logs.
	Name string
	// Topics are the topics this proxy owns; Retention (Ni) is per topic.
	Topics []spec.Topic
	// PrimaryAddr and BackupAddr are the broker endpoints. BackupAddr may
	// be empty when no backup exists.
	PrimaryAddr, BackupAddr string
	// Network supplies dialing.
	Network transport.Network
	// Clock is the synchronized timebase used to stamp tc.
	Clock clocksync.Clock
	// OnWrongShard, if non-nil, runs whenever a broker answers a publish
	// with a WrongShard redirect, passing the rejected topic and the
	// broker's routing epoch, from a receiving goroutine. Cluster
	// publishers use it to refresh a stale cached routing table and
	// re-home the topic (package cluster).
	OnWrongShard func(topic spec.TopicID, epoch uint64)
	// DurableAcks makes Publish block until the broker answers with a
	// PubAck — the broker's durable mode certifying the message reached
	// stable storage. Only meaningful against a broker started with
	// -durable; against an in-memory broker every Publish times out.
	DurableAcks bool
	// AckTimeout bounds how long a durable Publish waits for its PubAck;
	// zero means DefaultAckTimeout.
	AckTimeout time.Duration
	// Logger receives operational events; nil means slog.Default.
	Logger *slog.Logger
}

// DefaultAckTimeout is the durable Publish ack wait when
// PublisherOptions.AckTimeout is zero: generous next to any plausible
// group-commit interval, small enough that a dead broker fails fast.
const DefaultAckTimeout = 5 * time.Second

// uplinkDepth is how many frames may wait on one link's ring ahead of the
// socket: several §VI proxy bursts (50 messages each), so a burst never
// blocks on the ring while the writer wakes, and few enough that a broker
// that stops reading is felt as backpressure within a few hundred frames,
// as it is with a full socket buffer.
const uplinkDepth = 256

// closeFlushWait bounds how long Close lets a link's writer finish what
// Publish accepted before the connection is closed under it.
const closeFlushWait = time.Second

// Publisher is a proxy for a set of topics. Publish stamps messages and
// queues them for the current Primary. It runs no failure detector of its
// own: it redirects to the Backup, first re-sending each topic's retained
// messages, when the Backup reports that it has promoted itself (the pair's
// one detector is the Backup's) or when the link to the Primary fails. One
// connection per broker carries everything. Publisher is safe for
// concurrent use.
type Publisher struct {
	opts PublisherOptions
	log  *slog.Logger

	cancel context.CancelFunc
	wg     sync.WaitGroup

	// primary and backup are the two broker links, each an uplink ring with
	// its own flusher (backup is nil without a Backup); fixed once
	// NewPublisher returns.
	primary, backup *transport.Egress

	mu     sync.Mutex
	link   *transport.Egress // where Publish queues: primary, or backup once failed over
	topics map[spec.TopicID]*pubTopic
	// acks holds durable Publish calls parked on their PubAck, keyed by
	// (topic, seq); whoever removes an entry owes its waiter exactly one
	// outcome. Nil unless DurableAcks. ackGone, once set, is the error every
	// parked and future durable Publish gets: the publisher is closed or
	// its last broker link is dead. Both guarded by ackMu, NOT mu: the
	// receive loop must be able to consume PubAcks while a Publish holds mu
	// waiting for room on a full ring, or the two directions of the broker
	// link deadlock against each other.
	ackMu   sync.Mutex
	acks    map[ackKey]*ackWaiter
	ackGone error

	failedOverCh chan struct{}
}

// pubTopic is everything Publish needs about one owned topic, behind one
// map lookup: DropTopic and AdoptTopic move it between publishers whole.
type pubTopic struct {
	spec spec.Topic
	seq  uint64                      // last sequence number created
	ring *ringbuf.Ring[wire.Message] // the Ni retained messages; nil when Ni = 0
}

func newPubTopic(t spec.Topic, lastSeq uint64) *pubTopic {
	pt := &pubTopic{spec: t, seq: lastSeq}
	if t.Retention > 0 {
		pt.ring = ringbuf.New[wire.Message](t.Retention)
	}
	return pt
}

// retain keeps m among the topic's Ni latest messages. The slot owns its
// payload bytes — copied into the storage of the message it evicts — because
// m.Payload is the caller's buffer, free to change once Publish returns.
func (pt *pubTopic) retain(m *wire.Message) {
	if pt.ring == nil {
		return
	}
	pt.ring.PushInPlace(func(slot *wire.Message) {
		own := append(slot.Payload[:0], m.Payload...)
		*slot = *m
		slot.Payload = own
	})
}

// ackKey identifies one durable publish awaiting its PubAck.
type ackKey struct {
	topic spec.TopicID
	seq   uint64
}

// ackWaiter is what one durable Publish parks on. Waiters are pooled: the
// outcome channel (capacity 1, so delivering never blocks) and the timeout
// timer are reused from publish to publish.
type ackWaiter struct {
	outcome chan error
	timer   *time.Timer
}

var ackWaiterPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &ackWaiter{outcome: make(chan error, 1), timer: t}
}}

// NewPublisher dials the brokers and returns a running publisher.
func NewPublisher(opts PublisherOptions) (*Publisher, error) {
	if opts.Network == nil || opts.Clock == nil {
		return nil, errors.New("client: publisher needs network and clock")
	}
	// Zero topics is allowed: a cluster publisher opens an empty shell per
	// shard and AdoptTopic populates it as the routing table assigns work.
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	p := &Publisher{
		opts:         opts,
		log:          opts.Logger.With("publisher", opts.Name),
		topics:       make(map[spec.TopicID]*pubTopic, len(opts.Topics)),
		failedOverCh: make(chan struct{}),
	}
	if opts.DurableAcks {
		p.acks = make(map[ackKey]*ackWaiter)
		if p.opts.AckTimeout <= 0 {
			p.opts.AckTimeout = DefaultAckTimeout
		}
	}
	for _, t := range opts.Topics {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		p.topics[t.ID] = newPubTopic(t, 0)
	}
	conn, err := dialHello(opts.Network, opts.PrimaryAddr, opts.Name, wire.RolePublisher)
	if err != nil {
		return nil, fmt.Errorf("client: dial primary: %w", err)
	}
	var backup *transport.Conn
	if opts.BackupAddr != "" {
		backup, err = dialHello(opts.Network, opts.BackupAddr, opts.Name, wire.RolePublisher)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("client: dial backup: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	p.primary = newUplink(conn)
	p.link = p.primary
	if backup != nil {
		p.backup = newUplink(backup)
		p.startRecvLoop(ctx, backup, true)
	}
	p.startRecvLoop(ctx, conn, false)
	return p, nil
}

// startRecvLoop drains broker→publisher frames on conn until it closes:
// WrongShard redirects, PubAcks, and on the standby (Backup) link the
// promotion notice. Every link gets a reader, which also keeps the broker's
// send path from backing up against an unread socket. The Primary link's
// reader is the publisher's failure detector: its read failing, with the
// publisher still open, means the Primary is gone (a crashed process's
// reset), and the publisher fails over.
func (p *Publisher) startRecvLoop(ctx context.Context, conn *transport.Conn, standby bool) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		defer stop()
		f := transport.GetFrame()
		defer transport.PutFrame(f)
		for {
			if err := conn.RecvInto(f); err != nil {
				if ctx.Err() == nil && !standby {
					p.failOver()
				}
				p.linkLost(conn)
				return
			}
			switch f.Type {
			case wire.TypeWrongShard:
				if p.opts.OnWrongShard != nil {
					p.opts.OnWrongShard(f.Topic, f.Epoch)
				}
			case wire.TypePubAck:
				p.ackDurable(f.Topic, f.Seq)
			case wire.TypePromoted:
				if standby {
					p.failOver()
				}
			}
		}
	}()
}

// newUplink puts conn behind its uplink ring. No shedding: a publisher never
// drops its own messages, so a full ring makes Publish wait. No shared
// flusher pool either, a client process owns none: the ring's private
// one-flusher pool drains it.
func newUplink(conn *transport.Conn) *transport.Egress {
	return transport.NewEgress(conn, transport.EgressConfig{Depth: uplinkDepth})
}

func dialHello(n transport.Network, addr, name string, role wire.Role) (*transport.Conn, error) {
	nc, err := n.Dial(addr)
	if err != nil {
		return nil, err
	}
	conn := transport.NewConn(nc)
	if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: role, Name: name}); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// Publish creates the next message of the topic: stamps tc and the next
// sequence number, retains a copy (evicting beyond Ni), and queues it for the
// current broker. It returns the assigned sequence number. The payload is
// copied before Publish returns; see the package comment for the contract.
//
// With DurableAcks set, Publish additionally blocks — outside the
// publisher's lock, so concurrent publishes keep flowing — until the broker
// answers with a PubAck certifying the message is on stable storage, or
// AckTimeout passes, or the publisher is closed or loses its last broker
// link (an error wrapping net.ErrClosed). An error after the message was
// queued leaves the sequence number valid: the message may well be durable
// and in flight; only the confirmation is missing.
func (p *Publisher) Publish(topic spec.TopicID, payload []byte) (uint64, error) {
	p.mu.Lock()
	pt := p.topics[topic]
	if pt == nil {
		p.mu.Unlock()
		return 0, fmt.Errorf("client: publisher does not own topic %d", topic)
	}
	pt.seq++
	m := wire.Message{
		Topic:   topic,
		Seq:     pt.seq,
		Created: p.opts.Clock(),
		Payload: payload,
	}
	pt.retain(&m)
	var ack *ackWaiter
	if p.opts.DurableAcks { // not p.acks: releaseAcks swaps it under ackMu alone
		// Register before the frame is queued so the receive loop cannot see
		// the PubAck before the waiter exists.
		p.ackMu.Lock()
		if err := p.ackGone; err != nil {
			p.ackMu.Unlock()
			p.mu.Unlock()
			return m.Seq, err
		}
		ack = ackWaiterPool.Get().(*ackWaiter)
		p.acks[ackKey{topic, m.Seq}] = ack
		p.ackMu.Unlock()
	}
	err := p.enqueueLocked(wire.TypePublish, &m)
	p.mu.Unlock()
	if err != nil {
		if ack != nil {
			if !p.dropAck(topic, m.Seq) {
				<-ack.outcome // a release raced the refused frame; take its token
			}
			ackWaiterPool.Put(ack)
		}
		return m.Seq, fmt.Errorf("client: publish: %w", err)
	}
	if ack == nil {
		return m.Seq, nil
	}
	ack.timer.Reset(p.opts.AckTimeout)
	select {
	case err = <-ack.outcome:
		if !ack.timer.Stop() {
			select { // the timer fired meanwhile: leave its channel empty
			case <-ack.timer.C:
			default:
			}
		}
	case <-ack.timer.C:
		if p.dropAck(topic, m.Seq) {
			err = fmt.Errorf("client: no durable ack for topic %d seq %d within %v", topic, m.Seq, p.opts.AckTimeout)
		} else {
			err = <-ack.outcome // decided at the very moment of the timeout
		}
	}
	ackWaiterPool.Put(ack)
	return m.Seq, err
}

// enqueueLocked encodes m once, as a Publish or a Resend frame, into a
// pooled buffer and queues it on the link in use. It waits while that ring
// is full and fails once it is closed — by a failed write, a fail-over or
// Close. Holding p.mu is what keeps ring order equal to sequence order.
func (p *Publisher) enqueueLocked(t wire.Type, m *wire.Message) error {
	fb := wire.GetFrameBuf(wire.MsgHeaderLen + len(m.Payload))
	fb.B = wire.AppendMessageBody(fb.B, t, m)
	if len(fb.B) > transport.MaxFrameSize {
		n := len(fb.B)
		fb.Release()
		return fmt.Errorf("%w: %d bytes", transport.ErrFrameTooLarge, n)
	}
	if p.link.Enqueue(fb, 0, 0) == transport.EnqueueClosed {
		return fmt.Errorf("broker link down: %w", net.ErrClosed)
	}
	return nil
}

// ackDurable releases the Publish call parked on (topic, seq), if any.
// Duplicate PubAcks — e.g. a fail-over resend re-acked by the Backup —
// find no waiter and are ignored. Runs on receive-loop goroutines and
// deliberately takes only ackMu (see the acks field).
func (p *Publisher) ackDurable(topic spec.TopicID, seq uint64) {
	p.ackMu.Lock()
	ack := p.acks[ackKey{topic, seq}]
	delete(p.acks, ackKey{topic, seq})
	p.ackMu.Unlock()
	if ack != nil {
		ack.outcome <- nil
	}
}

// dropAck deregisters the caller's own waiter and reports whether it was
// still registered; false means someone else removed it and an outcome is
// already on its way.
func (p *Publisher) dropAck(topic spec.TopicID, seq uint64) bool {
	p.ackMu.Lock()
	_, mine := p.acks[ackKey{topic, seq}]
	delete(p.acks, ackKey{topic, seq})
	p.ackMu.Unlock()
	return mine
}

// releaseAcks fails every parked durable Publish, and every later one,
// with err: no PubAck can reach this publisher any more.
func (p *Publisher) releaseAcks(err error) {
	p.ackMu.Lock()
	if p.acks == nil || p.ackGone != nil {
		p.ackMu.Unlock()
		return
	}
	p.ackGone = err
	parked := p.acks
	p.acks = make(map[ackKey]*ackWaiter)
	p.ackMu.Unlock()
	for _, ack := range parked {
		ack.outcome <- err
	}
}

// linkLost runs when conn's receive loop ends. If conn was the link in use
// and no standby can take over — there is no Backup, or the Backup is what
// just died — nothing can acknowledge the parked durable publishes, so they
// are released at once instead of waiting out AckTimeout. With a Backup
// still standing they stay parked: fail-over re-sends the retained messages
// and a durable Backup acknowledges them.
func (p *Publisher) linkLost(conn *transport.Conn) {
	p.mu.Lock()
	last := conn == p.link.Conn() && (p.backup == nil || p.link == p.backup)
	p.mu.Unlock()
	if last {
		p.releaseAcks(fmt.Errorf("client: broker link lost with no standby: %w", net.ErrClosed))
	}
}

// LastSeq returns the highest sequence number created for the topic.
func (p *Publisher) LastSeq(topic spec.TopicID) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pt := p.topics[topic]; pt != nil {
		return pt.seq
	}
	return 0
}

// FailedOver returns a channel closed once the publisher has redirected to
// the Backup.
func (p *Publisher) FailedOver() <-chan struct{} { return p.failedOverCh }

// DropTopic removes the topic from this publisher and returns its portable
// state for re-homing on the publisher of another shard: the last sequence
// number created and the retained messages, oldest first. Publishing to a
// dropped topic fails until it is adopted again.
func (p *Publisher) DropTopic(id spec.TopicID) (lastSeq uint64, retained []wire.Message, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pt := p.topics[id]
	if pt == nil {
		return 0, nil, fmt.Errorf("client: publisher does not own topic %d", id)
	}
	if pt.ring != nil {
		pt.ring.Do(func(_ uint64, m wire.Message) { retained = append(retained, m) })
	}
	delete(p.topics, id)
	return pt.seq, retained, nil
}

// AdoptTopic registers a topic previously owned elsewhere, seeding its
// sequence counter and retained ring from DropTopic's output so sequence
// numbers stay gapless across the move. When resend is true the retained
// messages are also re-sent to the current broker as Resend frames — the
// §III-B fail-over flow reused for shard re-homing; subscriber duplicate
// discard absorbs any overlap with messages the old shard already
// dispatched.
func (p *Publisher) AdoptTopic(t spec.Topic, lastSeq uint64, retained []wire.Message, resend bool) error {
	if err := t.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.topics[t.ID]; ok {
		return fmt.Errorf("client: publisher already owns topic %d", t.ID)
	}
	pt := newPubTopic(t, lastSeq)
	p.topics[t.ID] = pt
	for i := range retained {
		m := &retained[i]
		pt.retain(m)
		if resend {
			if err := p.enqueueLocked(wire.TypeResend, m); err != nil {
				return fmt.Errorf("client: adopt resend topic %d seq %d: %w", t.ID, m.Seq, err)
			}
		}
	}
	return nil
}

// failOver redirects to the Backup and re-sends the retained messages of
// every topic, oldest first. It runs on a receive loop — the Backup's
// promotion notice, or the Primary link's failure — and is idempotent. The
// resends are queued under the same hold of p.mu that switches the link, so
// on the Backup link they precede every new publish. What was still queued
// for the Primary is dropped with its ring; each topic's Ni latest of those
// are among the resends.
func (p *Publisher) failOver() {
	if p.backup == nil {
		return
	}
	// Close the dead link's ring before taking the lock: a Publish waiting
	// for room on it holds p.mu, and the closed ring is what releases it.
	p.primary.Close()
	p.mu.Lock()
	if p.link == p.backup {
		p.mu.Unlock()
		return
	}
	p.link = p.backup
	resent := 0
	for id, pt := range p.topics {
		if pt.ring == nil {
			continue
		}
		pt.ring.Do(func(_ uint64, m wire.Message) {
			if err := p.enqueueLocked(wire.TypeResend, &m); err != nil {
				p.log.Warn("resend failed", "topic", id, "seq", m.Seq, "err", err)
				return
			}
			resent++
		})
	}
	close(p.failedOverCh)
	p.mu.Unlock()
	p.log.Info("failed over to backup", "resent", resent)
	// Only now close the connection, which unsticks the dead link's writer,
	// and wait for that writer: a connection that lingers on close over
	// frames it could not deliver must not hold up the switch.
	transport.Retire(p.primary)
}

// Close shuts the publisher down. Messages Publish accepted are written
// out first, for at most closeFlushWait per link; durable Publish calls still
// parked on a PubAck return at once with an error wrapping net.ErrClosed,
// and a Publish racing Close fails the same way.
func (p *Publisher) Close() {
	p.releaseAcks(fmt.Errorf("client: publisher closed: %w", net.ErrClosed))
	p.mu.Lock()
	link := p.link
	p.mu.Unlock()
	link.Drain(closeFlushWait)
	p.cancel()
	p.wg.Wait()
	transport.Retire(p.primary, p.backup)
}

// Delivery is one received message with measurement context.
//
// Ownership: Msg.Payload is backed by the receive path's reused buffers and
// is valid only for the duration of the OnDeliver callback; a consumer that
// retains the payload beyond the callback must copy it.
type Delivery struct {
	Msg wire.Message
	// Latency is ts − tc in the synchronized timebase.
	Latency time.Duration
	// Duplicate marks re-deliveries (already counted once).
	Duplicate bool
	// Source is the broker address this copy arrived from, as dialed.
	Source string
}

// SubscriberOptions configures a subscriber.
type SubscriberOptions struct {
	// Name identifies the subscriber.
	Name string
	// Topics to subscribe to.
	Topics []spec.TopicID
	// BrokerAddrs lists every broker to connect to (Primary and Backup;
	// the paper's subscribers hold connections to both).
	BrokerAddrs []string
	// Network supplies dialing.
	Network transport.Network
	// Clock is the synchronized timebase used to stamp ts.
	Clock clocksync.Clock
	// OnDeliver, if non-nil, runs for every distinct delivery (not for
	// duplicates) from the receiving goroutine. The subscriber keeps no
	// latency samples: a caller that reports latency records
	// Delivery.Latency here.
	OnDeliver func(Delivery)
	// OnFrame, if non-nil, runs for every dispatch frame received —
	// including duplicates (Duplicate set) — from the receiving goroutine.
	// Chaos invariant checkers use it to see the raw per-link arrival
	// stream that OnDeliver's dedup hides.
	OnFrame func(Delivery)
	// Logger receives operational events; nil means slog.Default.
	Logger *slog.Logger
}

// Redial schedule of a lost broker link: every reconnectDelay for the
// first fastRedialFor of the outage, which covers a restart or a
// fail-over, then every slowReconnectDelay until Close, so a broker that
// is gone for good costs a few dials a second, not a hundred.
const (
	reconnectDelay     = 10 * time.Millisecond
	fastRedialFor      = time.Second
	slowReconnectDelay = 250 * time.Millisecond
)

// Subscriber receives dispatches from all configured brokers, discarding
// duplicate sequence numbers (§VI-C), and keeps per-topic delivery records
// in a DeliveryLog — constant memory per topic; see its window semantics.
// A lost link is redialed at the same address, every reconnectDelay and
// after the first second of the outage every slowReconnectDelay, and the
// Subscribe re-sent, until Close; the DeliveryLog carries across
// sessions, so a dispatch replayed around a broker or gateway restart is
// discarded exactly as on one unbroken link.
type Subscriber struct {
	opts SubscriberOptions
	log  *slog.Logger

	cancel context.CancelFunc
	wg     sync.WaitGroup

	reconnects atomic.Uint64
	delivered  *DeliveryLog
}

// NewSubscriber dials every broker, subscribes, and starts receive loops.
// Every first dial must succeed — a misconfigured address fails fast —
// while later losses are redialed.
func NewSubscriber(opts SubscriberOptions) (*Subscriber, error) {
	if opts.Network == nil || opts.Clock == nil {
		return nil, errors.New("client: subscriber needs network and clock")
	}
	if len(opts.Topics) == 0 || len(opts.BrokerAddrs) == 0 {
		return nil, errors.New("client: subscriber needs topics and brokers")
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	s := &Subscriber{
		opts:      opts,
		log:       opts.Logger.With("subscriber", opts.Name),
		delivered: NewDeliveryLog(),
	}
	var conns []*transport.Conn
	for _, addr := range opts.BrokerAddrs {
		conn, err := s.dial(addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("client: dial broker %s: %w", addr, err)
		}
		conns = append(conns, conn)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i, conn := range conns {
		s.wg.Add(1)
		go s.run(ctx, conn, opts.BrokerAddrs[i])
	}
	return s, nil
}

// dial opens one session to addr: connect, Hello, Subscribe.
func (s *Subscriber) dial(addr string) (*transport.Conn, error) {
	conn, err := dialHello(s.opts.Network, addr, s.opts.Name, wire.RoleSubscriber)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(&wire.Frame{Type: wire.TypeSubscribe, Topics: s.opts.Topics}); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// run drives one broker link until Close: drain the session, and once it
// is lost redial source on the redial schedule until a new session is up.
func (s *Subscriber) run(ctx context.Context, conn *transport.Conn, source string) {
	defer s.wg.Done()
	for {
		session := conn // the closure must not see conn move on to the next session
		stop := context.AfterFunc(ctx, func() { session.Close() })
		s.receiveLoop(session, source)
		stop()
		session.Close()
		lost, delay := time.Now(), reconnectDelay
		for conn = nil; conn == nil; {
			if down := time.Since(lost); delay == reconnectDelay && down >= fastRedialFor {
				delay = slowReconnectDelay
				s.log.Warn("broker link still down; redialing less often",
					"broker", source, "down", down.Round(time.Millisecond), "every", delay)
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(delay):
			}
			conn, _ = s.dial(source)
		}
		s.reconnects.Add(1)
		s.log.Info("re-subscribed after a lost link", "broker", source)
	}
}

// receiveLoop drains one broker link with a pooled, reused frame whose
// payload is decoded in place, in the link's receive window: each dispatch
// is fully handled (logged for dedup, OnDeliver invoked) before the next
// receive may overwrite it — the Delivery contract.
func (s *Subscriber) receiveLoop(conn *transport.Conn, source string) {
	conn.SetZeroCopy(true)
	f := transport.GetFrame()
	defer transport.PutFrame(f)
	for {
		if err := conn.RecvInto(f); err != nil {
			return
		}
		if f.Type != wire.TypeDispatch {
			continue
		}
		s.onDispatch(f, source)
	}
}

func (s *Subscriber) onDispatch(f *wire.Frame, source string) {
	now := s.opts.Clock()
	latency := now - f.Msg.Created
	dup := s.delivered.Record(f.Msg.Topic, f.Msg.Seq)
	if cb := s.opts.OnFrame; cb != nil {
		cb(Delivery{Msg: f.Msg, Latency: latency, Duplicate: dup, Source: source})
	}
	if dup {
		return
	}
	if cb := s.opts.OnDeliver; cb != nil {
		cb(Delivery{Msg: f.Msg, Latency: latency, Source: source})
	}
}

// Received returns how many distinct messages arrived for the topic.
func (s *Subscriber) Received(topic spec.TopicID) uint64 { return s.delivered.Received(topic) }

// Duplicates returns how many duplicate deliveries were discarded.
func (s *Subscriber) Duplicates() uint64 { return s.delivered.Duplicates() }

// Reconnects returns how many lost links were redialed and re-subscribed.
func (s *Subscriber) Reconnects() uint64 { return s.reconnects.Load() }

// MaxConsecutiveLoss reconstructs the longest run of missing sequence
// numbers for the topic, given the highest sequence the publisher created.
func (s *Subscriber) MaxConsecutiveLoss(topic spec.TopicID, highestCreated uint64) int {
	return s.delivered.MaxConsecutiveLoss(topic, highestCreated)
}

// Close tears down all broker connections, stops any redial, and waits for
// the receive loops.
func (s *Subscriber) Close() {
	s.cancel()
	s.wg.Wait()
}
