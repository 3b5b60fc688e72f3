package transport

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/wire"
)

// sendRecv pushes one frame through a net.Pipe pair and returns what the
// receiver decoded.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

// TestSendEncodedMatchesSend: a frame sent as pre-encoded bytes must arrive
// exactly as the same frame sent through Send — receivers cannot tell which
// path the broker took.
func TestSendEncodedMatchesSend(t *testing.T) {
	msg := wire.Message{Topic: 5, Seq: 77, Created: 3 * time.Millisecond, Payload: []byte("payload-bytes")}
	frame := &wire.Frame{Type: wire.TypeDispatch, Msg: msg, Dispatched: 9 * time.Millisecond}

	viaSend := make(chan *wire.Frame, 1)
	{
		ca, cb := pipePair(t)
		go func() { ca.Send(frame) }()
		f, err := cb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		viaSend <- f
	}

	ca, cb := pipePair(t)
	body := wire.AppendDispatchBody(nil, &msg, 9*time.Millisecond)
	errc := make(chan error, 1)
	go func() { errc <- ca.SendEncoded(body) }()
	got, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	want := <-viaSend
	ge, _ := wire.Encode(nil, got)
	we, _ := wire.Encode(nil, want)
	if !bytes.Equal(ge, we) {
		t.Errorf("SendEncoded delivered a different frame:\n got  %+v\n want %+v", got, want)
	}
}

// TestSendEncodedDoesNotRetainBody: the caller may scribble over the body
// buffer the moment SendEncoded returns, even on a batching connection where
// the bytes leave much later.
func TestSendEncodedDoesNotRetainBody(t *testing.T) {
	sender, cc, frames := batchPair(t, time.Hour, 0)
	_ = cc
	msg := wire.Message{Topic: 1, Seq: 1, Payload: []byte("original")}
	body := wire.AppendDispatchBody(nil, &msg, 0)
	if err := sender.SendEncoded(body); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xFF // reuse the buffer before the batch flushes
	}
	if err := sender.Flush(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, frames, 1)
	if string(got[0].Msg.Payload) != "original" {
		t.Errorf("payload = %q: SendEncoded aliased the caller's buffer into the batch", got[0].Msg.Payload)
	}
}

// TestSendEncodedBatchesAndKeepsOrder: pre-encoded dispatch frames ride the
// same coalescing path as Send, interleaved with it, in order.
func TestSendEncodedBatchesAndKeepsOrder(t *testing.T) {
	sender, cc, frames := batchPair(t, 2*time.Millisecond, 0)
	const n = 100
	var body []byte
	for i := uint64(1); i <= n; i++ {
		m := wire.Message{Topic: 7, Seq: i, Created: time.Duration(i), Payload: []byte("0123456789abcdef")}
		if i%2 == 0 {
			if err := sender.Send(&wire.Frame{Type: wire.TypeDispatch, Msg: m}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		body = wire.AppendDispatchBody(body[:0], &m, 0)
		if err := sender.SendEncoded(body); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, frames, n)
	for i, f := range got {
		if f.Msg.Seq != uint64(i+1) {
			t.Fatalf("frame %d has seq %d: SendEncoded broke per-conn order", i, f.Msg.Seq)
		}
	}
	if w := cc.writes.Load(); w >= n/2 {
		t.Errorf("%d frames took %d writes; SendEncoded should coalesce", n, w)
	}
}

func TestSendEncodedRejectsEmptyAndOversized(t *testing.T) {
	ca, _ := pipePair(t)
	if err := ca.SendEncoded(nil); err == nil {
		t.Error("empty body accepted")
	}
	huge := make([]byte, MaxFrameSize+1)
	huge[0] = byte(wire.TypeDispatch)
	if err := ca.SendEncoded(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

// feedFrames starts a goroutine sending payloads of the given sizes and
// returns the receiving conn.
func feedFrames(t *testing.T, sizes []int) *Conn {
	t.Helper()
	a, b := net.Pipe()
	sender, receiver := NewConn(a), NewConn(b)
	t.Cleanup(func() { sender.Close(); receiver.Close() })
	go func() {
		for i, n := range sizes {
			f := &wire.Frame{Type: wire.TypePublish, Msg: wire.Message{
				Topic: 1, Seq: uint64(i), Payload: make([]byte, n),
			}}
			if sender.Send(f) != nil {
				return
			}
		}
	}()
	return receiver
}

// TestRbufShrinksAfterJumbo: one jumbo frame grows the receive window past
// RbufSoftCap; once rbufShrinkAfter consecutive small frames have been
// handed out, the next visit to the socket must release it — and one fewer
// must not (hysteresis).
func TestRbufShrinksAfterJumbo(t *testing.T) {
	const jumbo = 2 * RbufSoftCap
	sizes := []int{jumbo}
	for i := 0; i < rbufShrinkAfter+1; i++ {
		sizes = append(sizes, 64)
	}
	receiver := feedFrames(t, sizes)
	var f wire.Frame
	if err := receiver.RecvInto(&f); err != nil {
		t.Fatal(err)
	}
	if len(receiver.rbuf) <= RbufSoftCap {
		t.Fatalf("window %d after %d-byte frame, want > RbufSoftCap", len(receiver.rbuf), jumbo)
	}
	// The pipe delivers one frame per socket visit, so the visit for frame
	// rbufShrinkAfter has seen only rbufShrinkAfter-1 sub-cap frames.
	for i := 0; i < rbufShrinkAfter; i++ {
		if err := receiver.RecvInto(&f); err != nil {
			t.Fatal(err)
		}
	}
	if len(receiver.rbuf) <= RbufSoftCap {
		t.Fatalf("window shrank on the visit after only %d sub-cap frames; hysteresis broken", rbufShrinkAfter-1)
	}
	if err := receiver.RecvInto(&f); err != nil {
		t.Fatal(err)
	}
	if got := len(receiver.rbuf); got != RbufSoftCap {
		t.Errorf("window = %d after %d sub-cap frames, want RbufSoftCap (%d)", got, rbufShrinkAfter, RbufSoftCap)
	}
}

// TestRbufStaysPutUnderCap: a workload that never exceeds the cap keeps one
// stable buffer — no churn.
func TestRbufStaysPutUnderCap(t *testing.T) {
	sizes := make([]int, 50)
	for i := range sizes {
		sizes[i] = 512
	}
	receiver := feedFrames(t, sizes)
	var f wire.Frame
	if err := receiver.RecvInto(&f); err != nil {
		t.Fatal(err)
	}
	stable := len(receiver.rbuf)
	for i := 1; i < len(sizes); i++ {
		if err := receiver.RecvInto(&f); err != nil {
			t.Fatal(err)
		}
	}
	if len(receiver.rbuf) != stable {
		t.Errorf("window churned %d -> %d on a steady workload", stable, len(receiver.rbuf))
	}
}

// TestRecvIntoZeroCopyAliasesRbuf: with SetZeroCopy the decoded payload
// points into the connection's receive buffer and is overwritten by the next
// read; in the default copy mode it survives.
func TestRecvIntoZeroCopyAliasesRbuf(t *testing.T) {
	a, b := net.Pipe()
	sender, receiver := NewConn(a), NewConn(b)
	t.Cleanup(func() { sender.Close(); receiver.Close() })
	receiver.SetZeroCopy(true)
	go func() {
		sender.Send(&wire.Frame{Type: wire.TypePublish, Msg: wire.Message{Topic: 1, Seq: 1, Payload: []byte("first-payload")}})
		sender.Send(&wire.Frame{Type: wire.TypePublish, Msg: wire.Message{Topic: 1, Seq: 2, Payload: []byte("secnd-payload")}})
	}()
	var f wire.Frame
	if err := receiver.RecvInto(&f); err != nil {
		t.Fatal(err)
	}
	first := f.Msg.Payload // aliases rbuf
	if string(first) != "first-payload" {
		t.Fatalf("payload = %q", first)
	}
	var f2 wire.Frame
	if err := receiver.RecvInto(&f2); err != nil {
		t.Fatal(err)
	}
	if string(first) != "secnd-payload" {
		t.Errorf("zero-copy payload = %q after next read, want it overwritten (aliasing rbuf)", first)
	}
}

func TestRecvIntoCopySurvivesNextRead(t *testing.T) {
	a, b := net.Pipe()
	sender, receiver := NewConn(a), NewConn(b)
	t.Cleanup(func() { sender.Close(); receiver.Close() })
	go func() {
		sender.Send(&wire.Frame{Type: wire.TypePublish, Msg: wire.Message{Topic: 1, Seq: 1, Payload: []byte("first-payload")}})
		sender.Send(&wire.Frame{Type: wire.TypePublish, Msg: wire.Message{Topic: 1, Seq: 2, Payload: []byte("secnd-payload")}})
	}()
	var f, f2 wire.Frame
	if err := receiver.RecvInto(&f); err != nil {
		t.Fatal(err)
	}
	if err := receiver.RecvInto(&f2); err != nil {
		t.Fatal(err)
	}
	if string(f.Msg.Payload) != "first-payload" {
		t.Errorf("copy-mode payload = %q after next read, want preserved", f.Msg.Payload)
	}
}

// TestPutFrameCapsRetainedCapacity: PutFrame keeps workload-sized buffers
// for reuse but drops jumbo ones so the pool cannot pin megabytes.
func TestPutFrameCapsRetainedCapacity(t *testing.T) {
	f := GetFrame()
	f.Type = wire.TypeDispatch
	f.Msg.Payload = append(f.Msg.Payload[:0], make([]byte, 1024)...)
	f.Topics = append(f.Topics[:0], 1, 2, 3)
	PutFrame(f)
	if f.Type != 0 || f.Msg.Seq != 0 || len(f.Msg.Payload) != 0 || len(f.Topics) != 0 {
		t.Errorf("PutFrame did not reset the frame: %+v", f)
	}
	if cap(f.Msg.Payload) < 1024 {
		t.Errorf("PutFrame dropped a workload-sized payload buffer (cap %d)", cap(f.Msg.Payload))
	}

	g := GetFrame()
	g.Msg.Payload = make([]byte, pooledPayloadCap+1)
	g.Topics = make([]spec.TopicID, pooledTopicsCap+1)
	PutFrame(g)
	if cap(g.Msg.Payload) != 0 {
		t.Errorf("PutFrame retained an oversized payload buffer (cap %d > %d)", cap(g.Msg.Payload), pooledPayloadCap)
	}
	if cap(g.Topics) != 0 {
		t.Errorf("PutFrame retained an oversized topic list (cap %d > %d)", cap(g.Topics), pooledTopicsCap)
	}
}

// blockableConn wedges Write until released, simulating a peer that has
// stopped reading — the scenario where Close used to silently drop a
// pending batch because TryLock failed against the stuck writer.
type blockableConn struct {
	net.Conn
	gate chan struct{} // closed to release writes
}

func (c *blockableConn) Write(p []byte) (int, error) {
	<-c.gate
	return c.Conn.Write(p)
}

// TestCloseWaitsForWriterThenFailsLaterSends provokes the Close/Send race:
// a Send wedged inside Write holds the write lock while Close runs. Close
// must not hang forever, and every Send after Close must fail instead of
// silently enqueueing.
func TestCloseWaitsForWriterThenFailsLaterSends(t *testing.T) {
	a, b := net.Pipe()
	bc := &blockableConn{Conn: a, gate: make(chan struct{})}
	sender := NewConn(bc)
	go func() { // drain so the pipe itself never blocks once the gate opens
		rc := NewConn(b)
		for {
			if _, err := rc.Recv(); err != nil {
				return
			}
		}
	}()

	sendErr := make(chan error, 1)
	go func() { sendErr <- sender.Send(dispatchFrame(1, 1)) }()
	// Wait until the sender is provably wedged inside Write holding writeMu.
	deadline := time.After(2 * time.Second)
	for sender.writeMu.TryLock() {
		sender.writeMu.Unlock()
		select {
		case <-deadline:
			t.Fatal("sender never took the write lock")
		case <-time.After(time.Millisecond):
		}
	}

	closed := make(chan error, 1)
	go func() { closed <- sender.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a wedged writer")
	}
	close(bc.gate) // release the wedged Write; it fails against the closed pipe
	select {
	case <-sendErr: // wedged send finished either way; what matters is below
	case <-time.After(5 * time.Second):
		t.Fatal("wedged Send never returned after Close")
	}
	if err := sender.Send(dispatchFrame(1, 2)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Send after Close = %v, want net.ErrClosed", err)
	}
	if err := sender.SendEncoded(wire.AppendPruneBody(nil, 1, 1)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("SendEncoded after Close = %v, want net.ErrClosed", err)
	}
}

// TestCloseFlushesBatchHeldByConcurrentSender provokes the exact bug the
// bounded lock wait fixes: Close arrives while another goroutine holds the
// write lock (as a mid-enqueue Send does). The old TryLock-only Close gave
// up immediately and the pending batch died with the conn; now Close waits
// for the lock and flushes.
func TestCloseFlushesBatchHeldByConcurrentSender(t *testing.T) {
	sender, _, frames := batchPair(t, time.Hour, 0)
	const n = 5
	for i := uint64(1); i <= n; i++ {
		if err := sender.Send(dispatchFrame(3, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Hold the write lock exactly as a concurrent Send would, long enough
	// that Close's TryLock fast path must fail.
	sender.writeMu.Lock()
	closed := make(chan error, 1)
	go func() { closed <- sender.Close() }()
	time.Sleep(10 * time.Millisecond) // let Close hit the contended path
	sender.writeMu.Unlock()
	got := collect(t, frames, n)
	if got[n-1].Msg.Seq != n {
		t.Fatalf("last flushed seq %d, want %d", got[n-1].Msg.Seq, n)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
}
