package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// scriptConn is a net.Conn that only records: every Write call and its
// bytes, failing from the failAt-th call on (0 = never). One Write here is
// one kernel crossing on a socket.
type scriptConn struct {
	net.Conn // nil: any method the send path should not touch panics
	writes   [][]byte
	failAt   int
}

var errScripted = errors.New("scripted write failure")

func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), p...))
	if c.failAt > 0 && len(c.writes) >= c.failAt {
		return 0, errScripted
	}
	return len(p), nil
}

func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }
func (c *scriptConn) Close() error                     { return nil }

// framed is what one frame looks like on the wire: len‖body.
func framed(t *testing.T, f *wire.Frame) []byte {
	t.Helper()
	body, err := wire.Encode(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

var sendCases = []*wire.Frame{
	{Type: wire.TypeHello, Role: wire.RolePublisher, Name: "proxy-7"},
	{Type: wire.TypePoll, Nonce: 42},
	{Type: wire.TypeWrongShard, Topic: 3, Epoch: 9},
	{Type: wire.TypePublish, Msg: wire.Message{Topic: 1, Seq: 2, Created: 3, Payload: bytes.Repeat([]byte{0xab}, 16)}},
	{Type: wire.TypePublish, Msg: wire.Message{Topic: 1, Seq: 3, Created: 4, Payload: bytes.Repeat([]byte{0xcd}, 16<<10)}},
}

// TestSendIsOneWrite: a frame sent directly leaves in exactly one Write
// whose bytes are len‖body — it was two, the prefix and then the body.
func TestSendIsOneWrite(t *testing.T) {
	sc := &scriptConn{}
	c := NewConn(sc)
	for i, f := range sendCases {
		if err := c.Send(f); err != nil {
			t.Fatalf("Send %v: %v", f.Type, err)
		}
		if len(sc.writes) != i+1 {
			t.Fatalf("after %d sends: %d writes, want one per frame", i+1, len(sc.writes))
		}
		if want := framed(t, f); !bytes.Equal(sc.writes[i], want) {
			t.Errorf("Send %v wrote %d bytes, want len‖body (%d bytes)", f.Type, len(sc.writes[i]), len(want))
		}
	}
}

// TestOversizedFrameWritesNothing: a frame above MaxFrameSize is refused
// before any byte reaches the connection, which stays usable.
func TestOversizedFrameWritesNothing(t *testing.T) {
	sc := &scriptConn{}
	c := NewConn(sc)
	huge := &wire.Frame{Type: wire.TypePublish, Msg: wire.Message{Topic: 1, Seq: 1, Payload: make([]byte, MaxFrameSize)}}
	if err := c.Send(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("Send: err = %v, want ErrFrameTooLarge", err)
	}
	if len(sc.writes) != 0 {
		t.Fatalf("%d writes for a refused frame, want none", len(sc.writes))
	}
	if err := c.Send(sendCases[1]); err != nil || len(sc.writes) != 1 {
		t.Errorf("Send after a refusal: err = %v, %d writes; the connection must stay usable", err, len(sc.writes))
	}
}

// TestFailedWriteIsSticky: once a write fails the framing is unknown, so
// every later send fails with the same error without touching the conn.
func TestFailedWriteIsSticky(t *testing.T) {
	poll := framed(t, sendCases[1])
	writeBuffers := func(c *Conn) error { return c.WriteBuffers(net.Buffers{poll[:4], poll[4:]}, 1, len(poll)) }
	for name, send := range map[string]func(*Conn) error{
		"Send":         func(c *Conn) error { return c.Send(sendCases[1]) },
		"WriteBuffers": writeBuffers,
	} {
		sc := &scriptConn{failAt: 2}
		c := NewConn(sc)
		if err := send(c); err != nil {
			t.Fatalf("%s: first send: %v", name, err)
		}
		first := send(c)
		if !errors.Is(first, errScripted) {
			t.Fatalf("%s: err = %v, want the write failure", name, first)
		}
		if err := c.Send(sendCases[0]); !errors.Is(err, errScripted) {
			t.Errorf("%s: send after failure: err = %v, want the sticky failure", name, err)
		}
		if err := writeBuffers(c); !errors.Is(err, errScripted) {
			t.Errorf("%s: WriteBuffers after failure: err = %v, want the sticky failure", name, err)
		}
		if len(sc.writes) != 2 {
			t.Errorf("%s: %d writes, want 2: nothing is written after a failure", name, len(sc.writes))
		}
	}
}

// TestWriteBuffersGathersBelowPlainConn: a ring's batch crosses a conn that
// cannot writev in one Write, not one per buffer.
func TestWriteBuffersGathersBelowPlainConn(t *testing.T) {
	sc := &scriptConn{}
	c := NewConn(sc)
	var bufs net.Buffers
	var want []byte
	for _, f := range sendCases[:4] {
		w := framed(t, f)
		bufs = append(bufs, w[:4], w[4:])
		want = append(want, w...)
	}
	if err := c.WriteBuffers(bufs, 4, len(want)); err != nil {
		t.Fatal(err)
	}
	if len(sc.writes) != 1 || !bytes.Equal(sc.writes[0], want) {
		t.Fatalf("%d writes, want the whole batch in one", len(sc.writes))
	}
	if len(bufs) != 8 || len(bufs[0]) != 4 {
		t.Error("WriteBuffers consumed the caller's slice")
	}

	// Past the gather window the batch is split, in order, at buffer
	// boundaries; a buffer larger than the window is written uncopied.
	jumbo := bytes.Repeat([]byte{7}, RbufSoftCap+1)
	half := bytes.Repeat([]byte{9}, RbufSoftCap/2+1)
	sc.writes = nil
	split := net.Buffers{half, half, jumbo, half}
	if err := c.WriteBuffers(split, 4, 0); err != nil {
		t.Fatal(err)
	}
	if len(sc.writes) != 4 || !bytes.Equal(bytes.Join(sc.writes, nil), bytes.Join(split, nil)) {
		t.Errorf("%d writes for two half-window buffers, a jumbo and a half; want 4 carrying the same bytes in order", len(sc.writes))
	}
	if cap(c.wbuf) > 2*RbufSoftCap { // the allocator may round a growth step up
		t.Errorf("gather buffer grew to %d bytes, want about the %d-byte window", cap(c.wbuf), RbufSoftCap)
	}
}

func TestWriteBuffersStickyAfterError(t *testing.T) {
	sender, receiver := pipePair(t)
	receiver.Close() // the peer is gone: the first write must fail
	bufs := net.Buffers{[]byte{1, 2, 3, 4}}
	err := sender.WriteBuffers(bufs, 1, 4)
	if err == nil {
		t.Fatal("WriteBuffers to a closed peer succeeded")
	}
	// The failure is sticky: later writes fail fast without touching the
	// socket — a partial vectored write leaves the framing unknown.
	if err2 := sender.WriteBuffers(net.Buffers{[]byte{5}}, 1, 1); err2 == nil {
		t.Fatal("WriteBuffers after sticky error succeeded")
	}
	if err3 := sender.Send(&wire.Frame{Type: wire.TypePrune, Topic: 1, Seq: 1}); err3 == nil {
		t.Fatal("Send after sticky error succeeded")
	}
}

func TestWriteBuffersAfterCloseFailsFast(t *testing.T) {
	sender, _ := pipePair(t)
	sender.Close()
	if err := sender.WriteBuffers(net.Buffers{[]byte{1}}, 1, 1); err == nil {
		t.Fatal("WriteBuffers on a closed conn succeeded")
	}
}
