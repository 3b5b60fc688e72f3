package broker

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/racedetect"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Tests for the payload's one journey through the broker: the buffer a
// session fills is the frame the subscribers are sent. Every payload here is
// a function of (topic, seq, offset), so a frame that carries another
// message's bytes — a buffer recycled while still queued — cannot pass.

func stamped(topic spec.TopicID, seq uint64, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(uint64(topic)*131 + seq*31 + uint64(i)*7)
	}
	return p
}

func intact(m wire.Message) bool {
	return bytes.Equal(m.Payload, stamped(m.Topic, m.Seq, len(m.Payload)))
}

// publishStamped sends one message with a stamped payload of the given size
// and a Poll behind it (see publishPolled).
func publishStamped(t *testing.T, conn *transport.Conn, topic spec.TopicID, seq uint64, size int) {
	t.Helper()
	m := wire.Message{Topic: topic, Seq: seq, Created: time.Duration(seq), Payload: stamped(topic, seq, size)}
	if err := conn.Send(&wire.Frame{Type: wire.TypePublish, Msg: m}); err != nil {
		t.Fatal(err)
	}
	pollRoundTrip(t, conn, seq)
}

// rawSubscriber subscribes on a bare connection, so a test decides itself
// when — and whether — dispatches are read. While it does not read, the
// flusher serving its ring sits in a blocked write (the Mem pipe is
// synchronous) and every later frame stays queued behind it.
func rawSubscriber(t *testing.T, n transport.Network, addr string, topics ...spec.TopicID) *transport.Conn {
	t.Helper()
	nc, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(nc)
	t.Cleanup(func() { conn.Close() })
	if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RoleSubscriber, Name: "raw-sub"}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Frame{Type: wire.TypeSubscribe, Topics: topics}); err != nil {
		t.Fatal(err)
	}
	pollRoundTrip(t, conn, 1) // confirms the Subscribe, as client.Subscriber does
	return conn
}

// recvMessage reads the next frame, which must be of type want.
func recvMessage(t *testing.T, conn *transport.Conn, want wire.Type) *wire.Frame {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := conn.Recv()
	if err != nil || f.Type != want {
		t.Fatalf("next frame: %+v, %v; want a %v frame", f, err, want)
	}
	return f
}

// checkedDeliveries is deliveries with the payload verified where the
// Delivery contract says it is valid: inside the callback, in place in the
// link's receive window.
func checkedDeliveries(t *testing.T, n transport.Network, clock func() time.Duration, addr string, topics ...spec.TopicID) <-chan wire.Message {
	t.Helper()
	ch := make(chan wire.Message, 16384) // more than any test publishes: OnDeliver never blocks the link
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "checked-sub", Topics: topics, BrokerAddrs: []string{addr}, Network: n, Clock: clock, Logger: quietLogger(),
		OnDeliver: func(d client.Delivery) {
			if !intact(d.Msg) {
				t.Errorf("topic %d seq %d delivered with another message's bytes", d.Msg.Topic, d.Msg.Seq)
			}
			ch <- wire.Message{Topic: d.Msg.Topic, Seq: d.Msg.Seq}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	return ch
}

// TestQueuedFramesOutliveTheirRingEntries: one subscriber's flusher is held
// inside a blocked write while a 4-slot Message Buffer wraps sixteen times.
// The entries of all those messages are long gone — released at dispatch,
// overwritten by later publishes — and the pool has recycled whatever was
// returned to it, yet every frame the held subscriber reads afterwards
// carries its own bytes: a queued frame owns its buffer.
func TestQueuedFramesOutliveTheirRingEntries(t *testing.T) {
	base := transport.FrameBufRefs()
	n := transport.NewMem()
	b, clock := soloPrimary(t, n, []spec.Topic{lanTopic(1, 3)}, func(o *Options) {
		o.Engine.MessageBufferCap = 4
		o.EgressNoShed = true
	})
	defer b.Stop()
	held := rawSubscriber(t, n, "primary", 1)
	got := checkedDeliveries(t, n, clock, "primary", 1)
	pub := rawPublisher(t, n, "primary")
	defer pub.Close()

	// In step with a second, reading subscriber: a message is published once
	// its predecessor has been dispatched (to both rings — the lane finishes
	// one job before the next), so the small Message Buffer wraps without
	// ever evicting a message that is still waiting for its dispatch.
	const count, size = 64, 512
	for seq := uint64(1); seq <= count; seq++ {
		publishStamped(t, pub, 1, seq, size)
		if m := nextDelivery(t, got); m.Seq != seq {
			t.Fatalf("reading subscriber got seq %d, want %d", m.Seq, seq)
		}
	}
	if ev := b.Stats().EvictedMessages; ev < 3*4 {
		t.Fatalf("Message Buffer evicted %d entries, want it wrapped at least three times", ev)
	}
	for seq := uint64(1); seq <= count; seq++ {
		f := recvMessage(t, held, wire.TypeDispatch)
		if f.Msg.Seq != seq || len(f.Msg.Payload) != size || !intact(f.Msg) {
			t.Fatalf("held subscriber's frame %d: seq %d, %d bytes, intact %v", seq, f.Msg.Seq, len(f.Msg.Payload), intact(f.Msg))
		}
	}
	pub.Close()
	held.Close()
	b.Stop()
	if refs := transport.FrameBufRefs(); refs != base {
		t.Errorf("leaked %d FrameBuf references", refs-base)
	}
}

// gatedBackup accepts the Primary's replication link, reads the Hello and
// then nothing until open is closed: meanwhile the first Replicate frame
// sits in its flusher's blocked write and the rest stay queued on the ring.
// Afterwards every frame is forwarded, payload and trailer included.
type gatedBackup struct {
	open   chan struct{}
	frames chan *wire.Frame
}

func startGatedBackup(t *testing.T, n transport.Network, addr string) *gatedBackup {
	t.Helper()
	ln, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	gb := &gatedBackup{open: make(chan struct{}), frames: make(chan *wire.Frame, 4096)}
	go func() {
		defer close(gb.frames)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		conn := transport.NewConn(nc)
		defer conn.Close()
		if f, err := conn.Recv(); err != nil || f.Type != wire.TypeHello {
			t.Errorf("replication link opened with %+v, %v", f, err)
			return
		}
		<-gb.open
		for {
			f, err := conn.Recv()
			if err != nil {
				return
			}
			gb.frames <- f
		}
	}()
	return gb
}

func (gb *gatedBackup) next(t *testing.T) *wire.Frame {
	t.Helper()
	select {
	case f, ok := <-gb.frames:
		if !ok {
			t.Fatal("replication link closed")
		}
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no frame on the replication link")
		return nil
	}
}

// TestSecondJobEncodesWhileFirstFrameIsQueued runs a replicating topic
// through both job orders with the first job's frame still queued when the
// second job is popped. The first frame was built in the message's own
// buffer; the second must be a copy, or the queued frame's type byte and
// trailer would be rewritten under its flusher. What reaches the wire is
// checked on both links, and Table 3's counters are what they always were.
func TestSecondJobEncodesWhileFirstFrameIsQueued(t *testing.T) {
	type popped struct {
		kind    core.WorkKind
		seq     uint64
		inPlace bool
		arrived time.Duration
	}
	const count, size = 8, 256
	for _, tc := range []struct {
		name       string
		engine     core.Config
		first      core.WorkKind
		wantPrunes uint64
	}{
		{"replicate-first", core.FRAMEConfig(lanParams()), core.WorkReplicate, count},
		{"dispatch-first", func() core.Config {
			c := core.FCFSMinusConfig(lanParams())
			c.ReplicateFirst = false
			return c
		}(), core.WorkDispatch, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := transport.FrameBufRefs()
			n := transport.NewMem()
			gb := startGatedBackup(t, n, "backup")
			clock := testClock()
			b, err := New(Options{
				Engine: tc.engine, Role: RolePrimary, ListenAddr: "primary", PeerAddr: "backup",
				Network: n, Clock: clock, Topics: []spec.Topic{lanTopic(1, 3)}, Logger: quietLogger(),
				PeerWriteTimeout: -1, EgressNoShed: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			pops := make(chan popped, 4*count)
			b.afterPop = func(w core.Work) {
				pops <- popped{w.Kind, w.Msg.Seq, w.InPlace, w.ArrivedPrimary}
			}
			b.Start()
			defer b.Stop()
			sub := rawSubscriber(t, n, "primary", 1)
			pub := rawPublisher(t, n, "primary")
			defer pub.Close()

			// Whichever link carries the first job's frames is not read yet.
			if tc.first == core.WorkDispatch {
				close(gb.open)
			}
			for seq := uint64(1); seq <= count; seq++ {
				publishStamped(t, pub, 1, seq, size)
			}
			arrived := make(map[uint64]time.Duration)
			seen := make(map[uint64]core.WorkKind)
			for i := 0; i < 2*count; i++ {
				var p popped
				select {
				case p = <-pops:
				case <-time.After(5 * time.Second):
					t.Fatalf("only %d of %d jobs were popped", i, 2*count)
				}
				arrived[p.seq] = p.arrived
				if prev, second := seen[p.seq]; !second {
					seen[p.seq] = p.kind
					if p.kind != tc.first || !p.inPlace {
						t.Errorf("seq %d: first job kind %d in place %v, want kind %d in place", p.seq, p.kind, p.inPlace, tc.first)
					}
				} else if p.kind == prev || p.inPlace {
					t.Errorf("seq %d: second job kind %d in place %v, want the other kind, encoded afresh", p.seq, p.kind, p.inPlace)
				}
			}
			checkReplicates := func() {
				t.Helper()
				for seq := uint64(1); seq <= count; seq++ {
					f := gb.next(t)
					for f.Type == wire.TypePrune {
						f = gb.next(t)
					}
					if f.Type != wire.TypeReplicate || f.Msg.Seq != seq || !intact(f.Msg) || f.ArrivedPrimary != arrived[seq] {
						t.Fatalf("replication link frame %d: %v seq %d intact %v tp %v, want Replicate with tp %v",
							seq, f.Type, f.Msg.Seq, intact(f.Msg), f.ArrivedPrimary, arrived[seq])
					}
				}
			}
			checkDispatches := func() {
				t.Helper()
				for seq := uint64(1); seq <= count; seq++ {
					f := recvMessage(t, sub, wire.TypeDispatch)
					if f.Msg.Seq != seq || !intact(f.Msg) || f.Dispatched < arrived[seq] || f.Dispatched > clock() {
						t.Fatalf("subscriber frame %d: seq %d intact %v dispatched %v (arrived %v)",
							seq, f.Msg.Seq, intact(f.Msg), f.Dispatched, arrived[seq])
					}
				}
			}
			// The second job's frames first, while the first job's are still
			// queued; then those, which must have gone through untouched.
			if tc.first == core.WorkReplicate {
				checkDispatches()
				close(gb.open)
				checkReplicates()
			} else {
				checkReplicates()
				checkDispatches()
			}
			st := b.Stats()
			if st.PrunesSent != tc.wantPrunes || st.AbortedReplicas != 0 || st.ReplicationJobs != count || st.DispatchJobs != count {
				t.Errorf("stats %+v: want %d prunes, no aborted replicas, %d jobs of each kind", st, tc.wantPrunes, count)
			}
			pub.Close()
			sub.Close()
			b.Stop()
			if refs := transport.FrameBufRefs(); refs != base {
				t.Errorf("leaked %d FrameBuf references", refs-base)
			}
		})
	}
}

// standaloneBackup starts a Backup with no Primary to watch, fed by the
// returned raw replication link; the test promotes it by hand.
func standaloneBackup(t *testing.T, n transport.Network, backupCap int, afterPop func(core.Work), topics ...spec.Topic) (*Broker, *transport.Conn, func() time.Duration) {
	t.Helper()
	clock := testClock()
	cfg := core.FRAMEConfig(lanParams())
	cfg.BackupBufferCap = backupCap
	b, err := New(Options{
		Engine: cfg, Role: RoleBackup, ListenAddr: "backup", Network: n, Clock: clock,
		Topics: topics, Logger: quietLogger(), EgressNoShed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.afterPop = afterPop
	b.Start()
	t.Cleanup(b.Stop)
	nc, err := n.Dial("backup")
	if err != nil {
		t.Fatal(err)
	}
	peer := transport.NewConn(nc)
	t.Cleanup(func() { peer.Close() })
	if err := peer.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RoleBrokerPeer, Name: "old-primary"}); err != nil {
		t.Fatal(err)
	}
	return b, peer, clock
}

func sendReplica(t *testing.T, peer *transport.Conn, topic spec.TopicID, seq uint64, size int) {
	t.Helper()
	m := wire.Message{Topic: topic, Seq: seq, Created: time.Duration(seq), Payload: stamped(topic, seq, size)}
	if err := peer.Send(&wire.Frame{Type: wire.TypeReplicate, Msg: m, ArrivedPrimary: time.Duration(seq)}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryDispatchSendsReplicasInPlace: after promotion the Backup
// Buffer's copies go out in the buffers they arrived in, intact, and a copy
// the Primary pruned — before or after it arrived — is never dispatched.
func TestRecoveryDispatchSendsReplicasInPlace(t *testing.T) {
	base := transport.FrameBufRefs()
	n := transport.NewMem()
	const count, size = 24, 300
	var encoded atomic.Int32
	b, peer, clock := standaloneBackup(t, n, 32, func(w core.Work) {
		if !w.Job.Recovery || !w.InPlace {
			encoded.Add(1)
		}
	}, lanTopic(1, 3))
	pruned := func(seq uint64) bool { return seq%3 == 0 }
	for seq := uint64(1); seq <= count; seq++ {
		if pruned(seq) && seq%2 == 0 { // this prune outruns its replica
			if err := peer.Send(&wire.Frame{Type: wire.TypePrune, Topic: 1, Seq: seq}); err != nil {
				t.Fatal(err)
			}
		}
		sendReplica(t, peer, 1, seq, size)
		if pruned(seq) && seq%2 == 1 {
			if err := peer.Send(&wire.Frame{Type: wire.TypePrune, Topic: 1, Seq: seq}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pollRoundTrip(t, peer, 1) // the session has stored and pruned everything
	got := checkedDeliveries(t, n, clock, "backup", 1)

	b.promote()
	for seq := uint64(1); seq <= count; seq++ {
		if pruned(seq) {
			continue
		}
		if m := nextDelivery(t, got); m.Seq != seq {
			t.Fatalf("recovery delivered seq %d, want %d (pruned copies skipped, the rest in order)", m.Seq, seq)
		}
	}
	// A fresh publish behind the backlog proves nothing else was delivered.
	pub := rawPublisher(t, n, "backup")
	defer pub.Close()
	publishStamped(t, pub, 1, count+1, size)
	if m := nextDelivery(t, got); m.Seq != count+1 {
		t.Fatalf("delivery after the backlog has seq %d, want %d", m.Seq, count+1)
	}
	if st := b.Stats(); st.RecoveryJobs != count-count/3 || st.RecoverySkipped != count/3 {
		t.Errorf("recovery jobs %d skipped %d, want %d and %d", st.RecoveryJobs, st.RecoverySkipped, count-count/3, count/3)
	}
	if n := encoded.Load(); n != 1 { // the fresh publish, in place but not a recovery job
		t.Errorf("%d jobs besides the fresh publish were not in-place recovery dispatches", n-1)
	}
	pub.Close()
	peer.Close()
	b.Stop()
	if refs := transport.FrameBufRefs(); refs != base {
		t.Errorf("leaked %d FrameBuf references", refs-base)
	}
}

// TestPublishToDispatchDoesNotAllocate: at 16 B and at 16 KiB a message goes
// from the publisher's socket to the subscriber's without one allocation —
// the session's copy lands in a pooled buffer and that buffer is the frame.
func TestPublishToDispatchDoesNotAllocate(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("sync.Pool drops entries under -race, so the pooled buffers allocate")
	}
	for _, size := range []int{16, 16 << 10} {
		n := transport.NewMem()
		topic := lanTopic(1, 3)
		topic.LossTolerance = spec.LossUnbounded
		b, clock := soloPrimary(t, n, []spec.Topic{topic}, nil)
		sub := rawSubscriber(t, n, "primary", 1)
		sub.SetZeroCopy(true)
		pub := rawPublisher(t, n, "primary")
		out := &wire.Frame{Type: wire.TypePublish, Msg: wire.Message{Topic: 1, Payload: stamped(1, 0, size)}}
		in := transport.GetFrame()
		round := func() {
			out.Msg.Seq++
			out.Msg.Created = clock()
			if err := pub.Send(out); err != nil {
				t.Fatal(err)
			}
			if err := sub.RecvInto(in); err != nil || in.Type != wire.TypeDispatch || in.Msg.Seq != out.Msg.Seq {
				t.Fatalf("dispatch: %v seq %d, %v", in.Type, in.Msg.Seq, err)
			}
		}
		for i := 0; i < 64; i++ {
			round() // size the receive windows and fill the pools
		}
		if avg := testing.AllocsPerRun(200, round); avg != 0 {
			t.Errorf("%d-byte payload: %.2f allocations per publish → dispatch, want 0", size, avg)
		}
		transport.PutFrame(in)
		pub.Close()
		sub.Close()
		b.Stop()
	}
}

// TestSmallMessagesNeverSitInJumboStorage: after relaying 64 × 16 KiB a
// broker relays 10 000 × 16 B. No small message is ever held — in the
// intake, behind a 16-slot Message Buffer, on a ring — in one of the 16 KiB
// arrays the large ones left in the pool: the pool's one capacity rule.
func TestSmallMessagesNeverSitInJumboStorage(t *testing.T) {
	n := transport.NewMem()
	var jumbo atomic.Int32
	b, clock := hookedPrimary(t, n, []spec.Topic{lanTopic(1, 3)}, func(o *Options) {
		o.Engine.MessageBufferCap = 16
		o.EgressNoShed = true
	}, func(w core.Work) {
		if len(w.Msg.Payload) <= 16 && cap(w.Buf.B) > 4<<10 {
			jumbo.Add(1)
		}
	})
	defer b.Stop()
	got := checkedDeliveries(t, n, clock, "primary", 1)
	pub := rawPublisher(t, n, "primary")
	defer pub.Close()
	seq := uint64(0)
	relay := func(count, size int) {
		t.Helper()
		for i := 0; i < count; i++ { // in step, so the small ring never evicts an undispatched message
			seq++
			publishStamped(t, pub, 1, seq, size)
			if m := nextDelivery(t, got); m.Seq != seq {
				t.Fatalf("delivered seq %d, want %d", m.Seq, seq)
			}
		}
	}
	relay(64, 16<<10)
	relay(10000, 16)
	if n := jumbo.Load(); n != 0 {
		t.Errorf("%d small messages were stored in arrays larger than 4 KiB", n)
	}
}
