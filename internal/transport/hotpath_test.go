package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
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
// stopped reading while a writer holds the connection's write lock.
type blockableConn struct {
	net.Conn
	gate chan struct{} // closed to release writes
}

func (c *blockableConn) Write(p []byte) (int, error) {
	<-c.gate
	return c.Conn.Write(p)
}

// TestCloseWaitsForWriterThenFailsLaterSends provokes the Close/write race:
// a Send or a ring's WriteBuffers is wedged inside Write holding the write
// lock while Close runs. Close must return at once, without waiting for the
// lock or leaving a goroutine behind; the wedged write, once released, and
// every later Send and WriteBuffers must fail with net.ErrClosed.
func TestCloseWaitsForWriterThenFailsLaterSends(t *testing.T) {
	frame := &wire.Frame{Type: wire.TypeDispatch, Msg: wire.Message{Topic: 1, Seq: 1, Payload: []byte("0123456789abcdef")}}
	body, err := wire.Encode(nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	batch := net.Buffers{binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body}
	writers := map[string]func(*Conn) error{
		"Send":         func(c *Conn) error { return c.Send(frame) },
		"WriteBuffers": func(c *Conn) error { return c.WriteBuffers(batch, 1, 4+len(body)) },
	}
	for name, write := range writers {
		t.Run(name, func(t *testing.T) {
			watchdog := time.NewTimer(5 * time.Second)
			defer watchdog.Stop()
			baseline := runtime.NumGoroutine()

			a, b := net.Pipe()
			bc := &blockableConn{Conn: a, gate: make(chan struct{})}
			sender := NewConn(bc)
			go func() { // drain so the pipe never blocks; exits when a closes
				rc := NewConn(b)
				defer rc.Close()
				for {
					if _, err := rc.Recv(); err != nil {
						return
					}
				}
			}()
			wedged := make(chan error, 1)
			go func() { wedged <- write(sender) }()
			// Wait until the writer is provably wedged inside Write holding writeMu.
			for sender.writeMu.TryLock() {
				sender.writeMu.Unlock()
				select {
				case <-watchdog.C:
					t.Fatal("writer never took the write lock")
				default:
					runtime.Gosched()
				}
			}

			if err := sender.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if sender.writeMu.TryLock() {
				t.Fatal("the wedged writer released the lock before it was let go: Close must not have waited for it")
			}
			close(bc.gate) // release the wedged Write; it fails against the closed pipe
			select {
			case err := <-wedged:
				if !errors.Is(err, net.ErrClosed) {
					t.Errorf("wedged %s = %v, want net.ErrClosed", name, err)
				}
			case <-watchdog.C:
				t.Fatalf("wedged %s never returned after Close", name)
			}
			for later, w := range writers {
				if err := w(sender); !errors.Is(err, net.ErrClosed) {
					t.Errorf("%s after Close = %v, want net.ErrClosed", later, err)
				}
			}
			for runtime.NumGoroutine() > baseline {
				select {
				case <-watchdog.C:
					t.Fatalf("%d goroutines after the write was released, want the %d before the test", runtime.NumGoroutine(), baseline)
				default:
					runtime.Gosched()
				}
			}
		})
	}
}
