package broker

import (
	"context"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/racedetect"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// rawPublisher dials the broker as a bare connection, so a test decides
// itself when — and whether — PubAcks are read.
func rawPublisher(t *testing.T, n transport.Network, addr string) *transport.Conn {
	t.Helper()
	nc, err := n.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(nc)
	if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RolePublisher, Name: "raw"}); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestDurableManyInFlightOnOneConnection: a connection may have any number
// of publishes in flight — the session never parks on the fsync, so all K
// are accepted before a single PubAck has been read — and every one is
// acknowledged exactly once, per topic in order, several to a write.
func TestDurableManyInFlightOnOneConnection(t *testing.T) {
	n := transport.NewMem()
	topics := []spec.Topic{lanTopic(1, 8), lanTopic(2, 8), lanTopic(3, 8)}
	b := startDurable(t, n, t.TempDir(), topics, nil)
	defer b.Stop()
	conn := rawPublisher(t, n, b.Addr())
	defer conn.Close()

	// Mem connections are synchronous pipes: each Send returns only once
	// the session has read the frame, so a session parked on a commit (or
	// on writing an ack nobody reads) would stop this loop dead.
	const k = 48
	clock := testClock()
	next := map[spec.TopicID]uint64{}
	for i := 0; i < k; i++ {
		id := spec.TopicID(1 + i%3)
		next[id]++
		m := wire.Message{Topic: id, Seq: next[id], Created: clock(), Payload: []byte("in flight")}
		if err := conn.Send(&wire.Frame{Type: wire.TypePublish, Msg: m}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	last := map[spec.TopicID]uint64{}
	for i := 0; i < k; i++ {
		f, err := conn.Recv()
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if f.Type != wire.TypePubAck {
			t.Fatalf("frame %d is %v, want PubAck", i, f.Type)
		}
		if f.Seq != last[f.Topic]+1 {
			t.Fatalf("topic %d: ack for seq %d after seq %d", f.Topic, f.Seq, last[f.Topic])
		}
		last[f.Topic] = f.Seq
	}
	for id, want := range next {
		if last[id] != want {
			t.Errorf("topic %d acknowledged through %d, published through %d", id, last[id], want)
		}
	}
	if got := b.durableAcks.Load(); got != k {
		t.Errorf("durable acks = %d, want %d", got, k)
	}
	waitFor(t, 2*time.Second, "ack writes settled", func() bool {
		return b.ackMeter.Snapshot().Flushed == k
	})
	if as := b.ackMeter.Snapshot(); as.Batches > k/2 {
		t.Errorf("%d acks left in %d writes: not coalesced", k, as.Batches)
	}
}

// TestDurableWedgedPublisherEvictedAlone: a publisher that never reads its
// PubAcks fills its own ack ring and is evicted; a sibling publisher keeps
// being acknowledged, and none of it shows up in the subscriber-side
// health figures.
func TestDurableWedgedPublisherEvictedAlone(t *testing.T) {
	base := transport.FrameBufRefs()
	n := transport.NewMem()
	topics := []spec.Topic{lanTopic(1, 8), lanTopic(2, 8)}
	for i := range topics {
		topics[i].LossTolerance = spec.LossUnbounded
	}
	b := startDurable(t, n, t.TempDir(), topics, func(o *Options) {
		o.FsyncInterval = 200 * time.Microsecond
	})
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "s", Topics: []spec.TopicID{2}, BrokerAddrs: []string{b.Addr()},
		Network: n, Clock: testClock(), Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	wedged := rawPublisher(t, n, b.Addr())
	defer wedged.Close()
	wedgedDone := make(chan uint64)
	go func() { // publishes flat out, never reads: until the broker hangs up
		clock := testClock()
		seq := uint64(0)
		for {
			m := wire.Message{Topic: 1, Seq: seq + 1, Created: clock(), Payload: []byte("deaf")}
			if wedged.Send(&wire.Frame{Type: wire.TypePublish, Msg: m}) != nil {
				wedgedDone <- seq
				return
			}
			seq++
		}
	}()

	pub, err := client.NewPublisher(client.PublisherOptions{
		Name: "sibling", Topics: topics[1:], PrimaryAddr: b.Addr(),
		Network: n, Clock: testClock(), Logger: quietLogger(),
		DurableAcks: true, AckTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	var evicted atomic.Bool
	siblingAcked := 0
	for !evicted.Load() || siblingAcked < 50 {
		if _, err := pub.Publish(2, []byte("sibling")); err != nil {
			t.Fatalf("sibling publish %d: %v", siblingAcked, err)
		}
		siblingAcked++
		evicted.Store(b.ackMeter.Snapshot().Evictions > 0)
	}
	sent := <-wedgedDone
	if sent < ackRingDepth {
		t.Errorf("wedged publisher was cut off after %d publishes, before its ring could fill", sent)
	}
	if got := b.ackMeter.Snapshot().Evictions; got != 1 {
		t.Errorf("ack-ring evictions = %d, want exactly the wedged publisher", got)
	}
	h := b.Health()
	if h.EgressEvictions != 0 || h.EgressSubs != 1 {
		t.Errorf("subscriber health moved: evictions=%d subs=%d, want 0 and 1", h.EgressEvictions, h.EgressSubs)
	}
	waitFor(t, 5*time.Second, "sibling's messages delivered", func() bool {
		return sub.Received(2) == uint64(siblingAcked)
	})
	pub.Close()
	sub.Close()
	b.Stop()
	if refs := transport.FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
}

// TestDurableSyncAlwaysAcksAfterPerRecordFsync: a negative FsyncInterval
// still means one fsync per record, acks included.
func TestDurableSyncAlwaysAcksAfterPerRecordFsync(t *testing.T) {
	n := transport.NewMem()
	topics := []spec.Topic{lanTopic(1, 8)}
	b := startDurable(t, n, t.TempDir(), topics, func(o *Options) { o.FsyncInterval = -1 })
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
	for i := 0; i < 10; i++ {
		if _, err := pub.Publish(1, []byte("always")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, "prune markers committed", func() bool {
		return b.committer.Stats().Pending == 0 && b.committer.Stats().Records == 20
	})
	if st := b.committer.Stats(); st.Fsyncs != st.Records {
		t.Errorf("Fsyncs = %d for %d records, want one each", st.Fsyncs, st.Records)
	}
}

// countingHandler counts log records whose message contains a marker.
type countingHandler struct {
	slog.Handler
	marker string
	hits   *atomic.Int64
}

func (h countingHandler) Handle(ctx context.Context, r slog.Record) error {
	if strings.Contains(r.Message, h.marker) {
		h.hits.Add(1)
	}
	return nil
}
func (h countingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h countingHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }

// TestDurableCommitFailureLoggedOnceAndCounted: a failed log is reported
// once, on the transition; after that every publish is counted, not logged,
// its ack withheld, and the in-memory plane keeps delivering.
func TestDurableCommitFailureLoggedOnceAndCounted(t *testing.T) {
	n := transport.NewMem()
	dir := t.TempDir()
	topics := []spec.Topic{lanTopic(1, 8)}
	var warned atomic.Int64
	b := startDurable(t, n, dir, topics, func(o *Options) {
		o.LogSegmentBytes = 256 // the log must roll — and cannot, below
		o.Logger = slog.New(countingHandler{
			Handler: quietLogger().Handler(), marker: "durable commit failed", hits: &warned,
		})
	})
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
		DurableAcks: true, AckTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if _, err := pub.Publish(1, []byte("while the disk works")); err != nil {
		t.Fatal(err)
	}

	// With its directory gone the log cannot create its next segment.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	const after = 12
	unacked := 0
	for i := 0; i < after; i++ {
		if _, err := pub.Publish(1, []byte("after the disk failed, forty bytes of it")); err != nil {
			unacked++
		}
	}
	if unacked == 0 {
		t.Fatal("every publish was acknowledged although the log directory is gone")
	}
	if got := b.commitFailures.Load(); got < uint64(unacked) {
		t.Errorf("commit failures counted = %d, want at least the %d unacknowledged publishes", got, unacked)
	}
	if got := warned.Load(); got != 1 {
		t.Errorf("\"durable commit failed\" logged %d times, want once", got)
	}
	if got := b.durableAcks.Load(); got != uint64(1+after-unacked) {
		t.Errorf("durable acks = %d with %d unacknowledged of %d", got, unacked, 1+after)
	}
	waitFor(t, 2*time.Second, "in-memory delivery of every publish", func() bool {
		return sub.Received(1) == 1+after
	})
}

// TestDurablePublishToAckDoesNotAllocate guards the broker's and the
// committer's share of the durable path end to end: session read, staging,
// intake, dispatch, prune marker, commit, ack encode, ack write.
func TestDurablePublishToAckDoesNotAllocate(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("sync.Pool drops entries under -race, so the pooled frames allocate")
	}
	n := transport.NewMem()
	topics := []spec.Topic{lanTopic(1, 8)}
	topics[0].LossTolerance = spec.LossUnbounded
	b := startDurable(t, n, t.TempDir(), topics, func(o *Options) {
		o.FsyncInterval = 100 * time.Microsecond
		o.IntakeDepth = 64
		o.Engine.MessageBufferCap = 64
	})
	defer b.Stop()
	conn := rawPublisher(t, n, b.Addr())
	defer conn.Close()
	clock := testClock()
	out := &wire.Frame{Type: wire.TypePublish, Msg: wire.Message{Topic: 1, Payload: make([]byte, 256)}}
	in := transport.GetFrame()
	defer transport.PutFrame(in)
	const burst = 16
	round := func() {
		// All sixteen go out before the first ack is read: the flusher may
		// sit in its write meanwhile, the session may not.
		for i := 0; i < burst; i++ {
			out.Msg.Seq++
			out.Msg.Created = clock()
			if err := conn.Send(out); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < burst; i++ {
			if err := conn.RecvInto(in); err != nil || in.Type != wire.TypePubAck {
				t.Fatalf("ack: %v %v", in.Type, err)
			}
		}
	}
	for i := 0; i < 32; i++ {
		round() // grow the staging buffers, rings and pools
	}
	if avg := testing.AllocsPerRun(30, round); avg != 0 {
		t.Errorf("%.1f allocations per %d durable publishes and their acks, want 0", avg, burst)
	}
}
