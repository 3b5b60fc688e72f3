package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/racedetect"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The uplink tests replace the broker with a scripted connection: it records
// what the publisher writes and how many Write calls that took (below a conn
// that is not a TCP socket a ring batch is one Write, so a call is a kernel
// crossing), can park the writer inside a Write, and can fail it. Every wait
// is on an event the connection or the publisher reports; the timers are
// watchdogs that turn a hang into a failure.

const watchdog = 5 * time.Second

// wireNet hands out wireConns and remembers them per address, in dial order
// (a publisher dials each broker once). The scripted conns say nothing and
// fail no read until closed, so nothing triggers a fail-over: tests call
// failOver.
type wireNet struct {
	mu    sync.Mutex
	conns map[string][]*wireConn
}

func newWireNet() *wireNet { return &wireNet{conns: make(map[string][]*wireConn)} }

func (n *wireNet) Listen(addr string) (net.Listener, error) {
	return nil, errors.New("wireNet: dial only")
}

func (n *wireNet) Dial(addr string) (net.Conn, error) {
	c := &wireConn{}
	c.cond = sync.NewCond(&c.mu)
	n.mu.Lock()
	n.conns[addr] = append(n.conns[addr], c)
	n.mu.Unlock()
	return c, nil
}

// link returns the publish link dialed to addr.
func (n *wireNet) link(addr string) *wireConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.conns[addr][0]
}

type wireConn struct {
	mu     sync.Mutex
	cond   *sync.Cond
	stream []byte // everything written, in order
	writes int    // Write calls that delivered
	mute   bool   // count Writes without recording them
	hold   bool   // Writes park until release or Close
	parked bool   // a Write is parked right now
	fail   error  // Writes fail with this
	shut   bool
	late   bool // a watchdog expired
}

func (c *wireConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.hold && !c.shut {
		c.parked = true
		c.cond.Broadcast()
		c.cond.Wait()
	}
	c.parked = false
	switch {
	case c.shut:
		return 0, net.ErrClosed
	case c.fail != nil:
		return 0, c.fail
	}
	c.writes++
	if !c.mute {
		c.stream = append(c.stream, p...)
	}
	c.cond.Broadcast()
	return len(p), nil
}

// Read never delivers: the scripted broker says nothing, until Close.
func (c *wireConn) Read([]byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.shut {
		c.cond.Wait()
	}
	return 0, io.EOF
}

func (c *wireConn) Close() error {
	c.mu.Lock()
	c.shut = true
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

func (c *wireConn) LocalAddr() net.Addr              { return wireAddr{} }
func (c *wireConn) RemoteAddr() net.Addr             { return wireAddr{} }
func (c *wireConn) SetDeadline(time.Time) error      { return nil }
func (c *wireConn) SetReadDeadline(time.Time) error  { return nil }
func (c *wireConn) SetWriteDeadline(time.Time) error { return nil }

type wireAddr struct{}

func (wireAddr) Network() string { return "wire" }
func (wireAddr) String() string  { return "scripted" }

// count reports the Write calls that delivered so far.
func (c *wireConn) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// set changes the script under the lock.
func (c *wireConn) set(change func(c *wireConn)) {
	c.mu.Lock()
	change(c)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// await blocks until pred (called with the lock held) holds.
func (c *wireConn) await(t *testing.T, what string, pred func(c *wireConn) bool) {
	t.Helper()
	dog := time.AfterFunc(watchdog, func() { c.set(func(c *wireConn) { c.late = true }) })
	defer dog.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !pred(c) {
		if c.late {
			t.Fatalf("timed out waiting for %s", what)
		}
		c.cond.Wait()
	}
}

// frames decodes what has been written so far, minus the Hello.
func (c *wireConn) frames(t *testing.T) []*wire.Frame {
	t.Helper()
	c.mu.Lock()
	stream := append([]byte(nil), c.stream...)
	c.mu.Unlock()
	var out []*wire.Frame
	for len(stream) > 0 {
		if len(stream) < 4 || len(stream) < 4+int(binary.LittleEndian.Uint32(stream)) {
			t.Fatalf("stream ends inside a frame (%d bytes left)", len(stream))
		}
		n := int(binary.LittleEndian.Uint32(stream))
		f, err := wire.Decode(stream[4 : 4+n])
		if err != nil {
			t.Fatalf("undecodable frame on the wire: %v", err)
		}
		if f.Type != wire.TypeHello {
			out = append(out, f)
		}
		stream = stream[4+n:]
	}
	return out
}

// written reports how many frames past the Hello have been written; callable
// from an await predicate (lock held), so it counts prefixes only.
func (c *wireConn) written() int {
	n := -1
	for s := c.stream; len(s) >= 4; n++ {
		s = s[4+int(binary.LittleEndian.Uint32(s)):]
	}
	return n
}

func uplinkPublisher(t *testing.T, n *wireNet, backup string, topics ...spec.Topic) *Publisher {
	t.Helper()
	pub, err := NewPublisher(PublisherOptions{
		Name: "p", Topics: topics, PrimaryAddr: "primary", BackupAddr: backup,
		Network: n, Clock: clock(), Logger: quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// leakCheck snapshots the process-wide frame-buffer and goroutine counts and
// returns the check to run after Close: both must be back. Close has waited
// for every goroutine it owns; the poll covers only their last instructions.
func leakCheck(t *testing.T) func() {
	t.Helper()
	bufs, gos := transport.FrameBufRefs(), runtime.NumGoroutine()
	return func() {
		t.Helper()
		if got := transport.FrameBufRefs(); got != bufs {
			t.Errorf("FrameBufRefs = %d after Close, %d before the publisher existed", got, bufs)
		}
		for deadline := time.Now().Add(watchdog); runtime.NumGoroutine() > gos; runtime.Gosched() {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), gos, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}

// awaitParkedPublish blocks until some goroutine is parked inside the ring's
// Enqueue, waiting for room: the one state of a full ring no return value
// reports.
func awaitParkedPublish(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(watchdog); time.Now().Before(deadline); runtime.Gosched() {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "transport.(*Egress).Enqueue") && strings.Contains(g, "sync.(*Cond).Wait") {
				return
			}
		}
	}
	t.Fatal("no Publish ever parked on the full ring")
}

// publishSeqs publishes seqs from..to on the topic and reports the first
// error or unexpected sequence number.
func publishSeqs(pub *Publisher, id spec.TopicID, from, to uint64) error {
	for seq := from; seq <= to; seq++ {
		got, err := pub.Publish(id, []byte(fmt.Sprintf("%d/%d", id, seq)))
		if err != nil || got != seq {
			return fmt.Errorf("Publish topic %d = seq %d, %v; want seq %d", id, got, err, seq)
		}
	}
	return nil
}

// publishRun is publishSeqs on the test's own goroutine.
func publishRun(t *testing.T, pub *Publisher, id spec.TopicID, from, to uint64) {
	t.Helper()
	if err := publishSeqs(pub, id, from, to); err != nil {
		t.Fatal(err)
	}
}

// publishAside runs publishSeqs on its own goroutine and fails the test if
// it has not returned, cleanly, by the time the watchdog expires.
func publishAside(t *testing.T, stuck string, pub *Publisher, id spec.TopicID, from, to uint64) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- publishSeqs(pub, id, from, to) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(watchdog):
		t.Fatal(stuck)
	}
}

func seqsOf(frames []*wire.Frame, typ wire.Type, id spec.TopicID) []uint64 {
	var out []uint64
	for _, f := range frames {
		if f.Type == typ && f.Msg.Topic == id {
			out = append(out, f.Msg.Seq)
		}
	}
	return out
}

func wantSeqs(t *testing.T, what string, got []uint64, from, to uint64) {
	t.Helper()
	var want []uint64
	for s := from; s <= to; s++ {
		want = append(want, s)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: seqs %v, want %d..%d in order", what, got, from, to)
	}
}

// TestPublishBurstLeavesInOneWrite is the tentpole: while the writer is
// inside a Write, a §VI proxy burst of 50 publishes queues without waiting
// for the socket, and leaves in one write once the writer is back.
func TestPublishBurstLeavesInOneWrite(t *testing.T) {
	check := leakCheck(t)
	n := newWireNet()
	pub := uplinkPublisher(t, n, "", topic(1, 0))
	conn := n.link("primary")

	conn.set(func(c *wireConn) { c.hold = true })
	publishAside(t, "Publish waited for the socket write", pub, 1, 1, 1)
	conn.await(t, "the writer to enter Write", func(c *wireConn) bool { return c.parked })
	publishAside(t, "a burst of 50 blocked behind the write in flight", pub, 1, 2, 51)
	before := conn.count() // the writer is parked: nothing moves
	conn.set(func(c *wireConn) { c.hold = false })
	conn.await(t, "51 frames", func(c *wireConn) bool { return c.written() == 51 })
	if writes := conn.count() - before; writes > 2 {
		t.Errorf("the held frame and the burst of 50 took %d writes, want at most 2", writes)
	}
	wantSeqs(t, "wire", seqsOf(conn.frames(t), wire.TypePublish, 1), 1, 51)
	pub.Close()
	check()
}

// TestPublishBlocksOnFullRingAndResumes: the ring is the bound. With the
// writer parked holding one frame, uplinkDepth more fill the ring, the next
// Publish waits, and once the writer drains nothing is lost or reordered.
func TestPublishBlocksOnFullRingAndResumes(t *testing.T) {
	check := leakCheck(t)
	n := newWireNet()
	pub := uplinkPublisher(t, n, "", topic(1, 0))
	conn := n.link("primary")

	conn.set(func(c *wireConn) { c.hold = true })
	publishRun(t, pub, 1, 1, 1)
	conn.await(t, "the writer to enter Write", func(c *wireConn) bool { return c.parked })
	publishRun(t, pub, 1, 2, 1+uplinkDepth) // fills the ring exactly

	over := make(chan error, 1)
	go func() { over <- publishSeqs(pub, 1, 2+uplinkDepth, 2+uplinkDepth) }()
	awaitParkedPublish(t)
	select {
	case <-over:
		t.Fatal("Publish returned with the ring full and the writer parked")
	default:
	}
	conn.set(func(c *wireConn) { c.hold = false })
	select {
	case err := <-over:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(watchdog):
		t.Fatal("Publish never resumed after the ring drained")
	}
	pub.Close() // flushes
	wantSeqs(t, "wire", seqsOf(conn.frames(t), wire.TypePublish, 1), 1, 2+uplinkDepth)
	check()
}

// TestConcurrentPublishersKeepTopicOrder: four goroutines, one topic each,
// share the link; each topic's sequence numbers reach the wire in order, and
// Close delivers every message Publish accepted.
func TestConcurrentPublishersKeepTopicOrder(t *testing.T) {
	check := leakCheck(t)
	n := newWireNet()
	pub := uplinkPublisher(t, n, "", topic(1, 0), topic(2, 0), topic(3, 0), topic(4, 0))
	const each = 500
	var wg sync.WaitGroup
	for id := spec.TopicID(1); id <= 4; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); seq <= each; seq++ {
				if got, err := pub.Publish(id, []byte{byte(id)}); err != nil || got != seq {
					t.Errorf("Publish topic %d = seq %d, %v; want seq %d", id, got, err, seq)
					return
				}
			}
		}()
	}
	wg.Wait()
	pub.Close()
	frames := n.link("primary").frames(t)
	if len(frames) != 4*each {
		t.Fatalf("%d frames on the wire after Close, want %d", len(frames), 4*each)
	}
	for id := spec.TopicID(1); id <= 4; id++ {
		wantSeqs(t, fmt.Sprintf("topic %d", id), seqsOf(frames, wire.TypePublish, id), 1, each)
	}
	check()
}

// TestWriteFailureSurfacesOnNextPublish: Publish no longer sees the socket,
// so a failed write closes the ring and the next Publish reports it.
func TestWriteFailureSurfacesOnNextPublish(t *testing.T) {
	check := leakCheck(t)
	n := newWireNet()
	pub := uplinkPublisher(t, n, "", topic(1, 0))
	conn := n.link("primary")
	conn.set(func(c *wireConn) { c.fail = errors.New("scripted write failure") })
	if _, err := pub.Publish(1, []byte("lost")); err != nil {
		t.Fatalf("the Publish that was queued reported %v", err)
	}
	conn.await(t, "the writer to give the link up", func(c *wireConn) bool { return c.shut })
	// The ring closes before its connection does.
	if _, err := pub.Publish(1, []byte("refused")); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Publish on a failed link: err = %v, want one wrapping net.ErrClosed", err)
	}
	pub.Close()
	check()
}

// TestDurableWriteFailureReleasesParkedPublish: in durable mode the Publish
// whose frame the failed write carried is parked on its PubAck; the dead
// link must release it at once, not after AckTimeout.
func TestDurableWriteFailureReleasesParkedPublish(t *testing.T) {
	check := leakCheck(t)
	n := newWireNet()
	pub, err := NewPublisher(PublisherOptions{
		Name: "p", Topics: []spec.Topic{topic(1, 0)}, PrimaryAddr: "primary",
		Network: n, Clock: clock(), Logger: quiet(), DurableAcks: true, AckTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.link("primary").set(func(c *wireConn) { c.fail = errors.New("scripted write failure") })
	done := make(chan error, 1)
	go func() {
		_, err := pub.Publish(1, []byte("never acknowledged"))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("parked Publish released with %v, want an error wrapping net.ErrClosed", err)
		}
	case <-time.After(watchdog):
		t.Fatal("parked durable Publish not released by the failed write")
	}
	pub.Close()
	check()
}

// TestFailoverWithFramesQueued kills the Primary link while its writer is
// inside a Write and more frames wait in the ring. Those frames are gone
// with the link, as bytes in a dead socket's buffer were; retention resends
// each topic's Ni latest ahead of any new publish. Judged by a subscriber's
// DeliveryLog over what reached either broker: no run of losses beyond Li,
// nothing delivered twice.
func TestFailoverWithFramesQueued(t *testing.T) {
	for _, tc := range []struct {
		name      string
		retention int
		wantLoss  int    // seqs 4 (in the failed write) and 5 (queued) unless retained
		resent    uint64 // first resent seq
		wantDups  uint64 // resends of what the Primary had already taken
	}{
		{"retention inside the queue", 3, 2, 6, 0},
		{"retention beyond the queue", 6, 0, 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := leakCheck(t)
			n := newWireNet()
			tp := topic(1, tc.retention)
			tp.LossTolerance = 2
			pub := uplinkPublisher(t, n, "backup", tp)
			primary, backup := n.link("primary"), n.link("backup")

			publishRun(t, pub, 1, 1, 3)
			primary.await(t, "seqs 1..3 on the Primary", func(c *wireConn) bool { return c.written() == 3 })
			primary.set(func(c *wireConn) { c.hold = true })
			publishRun(t, pub, 1, 4, 4)
			primary.await(t, "the writer to enter Write", func(c *wireConn) bool { return c.parked })
			publishRun(t, pub, 1, 5, 8) // queued behind the write in flight

			pub.failOver()
			select {
			case <-pub.FailedOver():
			default:
				t.Fatal("failOver returned without failing over")
			}
			publishRun(t, pub, 1, 9, 10)
			pub.Close()

			wantSeqs(t, "Primary", seqsOf(primary.frames(t), wire.TypePublish, 1), 1, 3)
			onBackup := backup.frames(t)
			wantSeqs(t, "resends", seqsOf(onBackup, wire.TypeResend, 1), tc.resent, 8)
			wantSeqs(t, "new publishes", seqsOf(onBackup, wire.TypePublish, 1), 9, 10)
			for i, f := range onBackup {
				if f.Type == wire.TypeResend && i > 0 && onBackup[i-1].Type == wire.TypePublish {
					t.Errorf("resend of seq %d follows a new publish on the Backup link", f.Msg.Seq)
				}
			}

			dl := NewDeliveryLog()
			for _, f := range append(primary.frames(t), onBackup...) {
				dl.Record(f.Msg.Topic, f.Msg.Seq, 0)
			}
			if got := dl.MaxConsecutiveLoss(1, 10); got != tc.wantLoss || got > tp.LossTolerance {
				t.Errorf("longest loss run = %d, want %d (Li = %d)", got, tc.wantLoss, tp.LossTolerance)
			}
			if got := dl.Received(1); got != uint64(10-tc.wantLoss) {
				t.Errorf("distinct deliveries = %d, want %d", got, 10-tc.wantLoss)
			}
			if got := dl.Duplicates(); got != tc.wantDups {
				t.Errorf("duplicates absorbed = %d, want %d", got, tc.wantDups)
			}
			check()
		})
	}
}

// TestFailoverReleasesPublishParkedOnDeadLink: a Primary that stops reading
// fills the ring and parks a Publish, which holds the publisher's lock. The
// fail-over must not queue up behind it: closing the dead ring is what lets
// that Publish go.
func TestFailoverReleasesPublishParkedOnDeadLink(t *testing.T) {
	check := leakCheck(t)
	n := newWireNet()
	pub := uplinkPublisher(t, n, "backup", topic(1, 2))
	primary := n.link("primary")
	primary.set(func(c *wireConn) { c.hold = true })
	publishRun(t, pub, 1, 1, 1)
	primary.await(t, "the writer to enter Write", func(c *wireConn) bool { return c.parked })
	publishRun(t, pub, 1, 2, 1+uplinkDepth)
	parked := make(chan error, 1)
	go func() {
		_, err := pub.Publish(1, []byte("parked"))
		parked <- err
	}()
	awaitParkedPublish(t)

	failed := make(chan struct{})
	go func() {
		defer close(failed)
		pub.failOver()
	}()
	select {
	case <-failed:
	case <-time.After(watchdog):
		t.Fatal("failOver stuck behind a Publish parked on the dead link's ring")
	}
	if err := <-parked; !errors.Is(err, net.ErrClosed) {
		t.Errorf("the parked Publish returned %v, want an error wrapping net.ErrClosed", err)
	}
	pub.Close()
	// Retention covers the parked message too: it was created and retained.
	wantSeqs(t, "resends", seqsOf(n.link("backup").frames(t), wire.TypeResend, 1), 1+uplinkDepth, 2+uplinkDepth)
	check()
}

// TestPublisherRetentionOwnsPayload: a caller may reuse its buffer as soon
// as Publish returns, so what retention resends after a fail-over must be
// the bytes each message was published with, not whatever the buffer holds
// by then.
func TestPublisherRetentionOwnsPayload(t *testing.T) {
	check := leakCheck(t)
	n := newWireNet()
	pub := uplinkPublisher(t, n, "backup", topic(1, 3))
	buf := make([]byte, 16)
	for seq := byte(1); seq <= 3; seq++ {
		for i := range buf {
			buf[i] = seq
		}
		if _, err := pub.Publish(1, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := range buf {
		buf[i] = 0xee // the caller moves on
	}
	pub.failOver()
	pub.Close()
	var resends []*wire.Frame
	for _, f := range n.link("backup").frames(t) {
		if f.Type == wire.TypeResend {
			resends = append(resends, f)
		}
	}
	if len(resends) != 3 {
		t.Fatalf("%d resends, want 3", len(resends))
	}
	for i, f := range resends {
		if want := bytes.Repeat([]byte{byte(i + 1)}, 16); f.Msg.Seq != uint64(i+1) || !bytes.Equal(f.Msg.Payload, want) {
			t.Errorf("resend %d: seq %d payload % x, want seq %d payload % x", i, f.Msg.Seq, f.Msg.Payload, i+1, want)
		}
	}
	check()
}

// TestPublishDoesNotAllocate: once the retention slots and the pooled frame
// buffers exist, a Publish — stamp, retain, encode, enqueue — allocates
// nothing, whatever the payload size.
func TestPublishDoesNotAllocate(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("sync.Pool drops entries under -race, so the pooled frame buffer allocates")
	}
	n := newWireNet()
	pub := uplinkPublisher(t, n, "", topic(1, 4))
	defer pub.Close()
	conn := n.link("primary")
	conn.set(func(c *wireConn) { c.mute = true })
	payload := make([]byte, 64)
	sent := conn.count()
	publish := func() {
		if _, err := pub.Publish(1, payload); err != nil {
			t.Fatal(err)
		}
		// One at a time, so the frame buffer is back in the pool for the
		// next; the writer is counted too (AllocsPerRun sees every goroutine).
		// Waited for by hand: await's watchdog allocates.
		sent++
		conn.mu.Lock()
		for conn.writes != sent {
			conn.cond.Wait()
		}
		conn.mu.Unlock()
	}
	for i := 0; i < 16; i++ {
		publish()
	}
	if avg := testing.AllocsPerRun(200, publish); avg > 0 {
		t.Errorf("%.1f allocations per Publish, want 0", avg)
	}
}
