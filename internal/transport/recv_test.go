package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/wire"
)

// chunkConn is a net.Conn whose read side replays a fixed byte stream in
// scripted pieces — one piece stands for what one write(2) of the sender
// made available — and counts the Read calls it serves. A Read never returns
// more than the current piece, like a socket that has nothing else queued.
type chunkConn struct {
	net.Conn // nil: the receive path touches only Read and the methods below

	stream []byte
	cuts   []int // successive piece sizes; once exhausted the rest is one piece
	piece  int   // bytes left in the current piece
	reads  int
	// failAt, when > 0, makes Read call number failAt (1-based) return
	// failErr instead of data, once; the stream is not advanced.
	failAt  int
	failErr error
	// loop replays the stream forever instead of ending in io.EOF.
	loop bool
	off  int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	c.reads++
	if c.reads == c.failAt {
		return 0, c.failErr
	}
	if c.off == len(c.stream) {
		if !c.loop || len(c.stream) == 0 {
			return 0, io.EOF
		}
		c.off = 0
	}
	if c.piece == 0 {
		c.piece = len(c.stream) - c.off
		if len(c.cuts) > 0 {
			if c.cuts[0] < c.piece {
				c.piece = c.cuts[0]
			}
			c.cuts = c.cuts[1:]
		}
	}
	n := copy(p, c.stream[c.off:c.off+c.piece])
	c.off += n
	c.piece -= n
	return n, nil
}

func (c *chunkConn) Close() error                     { return nil }
func (c *chunkConn) SetReadDeadline(time.Time) error  { return nil }
func (c *chunkConn) SetWriteDeadline(time.Time) error { return nil }

// appendFrame appends one length-prefixed frame to stream and returns it
// with the frame's encoded body.
func appendFrame(t testing.TB, stream []byte, f *wire.Frame) ([]byte, []byte) {
	t.Helper()
	body, err := wire.Encode(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	stream = binary.LittleEndian.AppendUint32(stream, uint32(len(body)))
	return append(stream, body...), body
}

func dispatchStream(t testing.TB, frames, payload int) (stream []byte, bodies [][]byte) {
	for i := 0; i < frames; i++ {
		var body []byte
		stream, body = appendFrame(t, stream, &wire.Frame{Type: wire.TypeDispatch, Msg: wire.Message{
			Topic: 7, Seq: uint64(i + 1), Created: time.Duration(i), Payload: bytes.Repeat([]byte{byte(i)}, payload),
		}})
		bodies = append(bodies, body)
	}
	return stream, bodies
}

// TestRecvBatchedReadCount: K frames that one write delivered must cost a
// warmed-up connection at most 2 Read calls, not 2K — and a cold one only
// the few it takes the window to double up to the burst.
func TestRecvBatchedReadCount(t *testing.T) {
	const k = 32
	burst, _ := dispatchStream(t, k, 16)
	nc := &chunkConn{stream: append(append([]byte{}, burst...), burst...), cuts: []int{len(burst)}}
	c := NewConn(nc)
	var meter Meter
	c.SetMeter(&meter)
	var f wire.Frame
	recvBurst := func() int {
		before := nc.reads
		for i := 1; i <= k; i++ {
			if err := c.RecvInto(&f); err != nil {
				t.Fatal(err)
			}
			if f.Msg.Seq != uint64(i) {
				t.Fatalf("frame %d has seq %d", i, f.Msg.Seq)
			}
		}
		return nc.reads - before
	}
	if cold := recvBurst(); cold > 4 {
		t.Errorf("cold connection: %d frames in one %d-byte write took %d reads, want <= 4", k, len(burst), cold)
	}
	if warm := recvBurst(); warm > 2 {
		t.Errorf("%d frames in one write took %d reads, want <= 2", k, warm)
	}
	if got := meter.ReadSyscalls.Load(); got != uint64(nc.reads) {
		t.Errorf("meter counted %d read syscalls, conn served %d", got, nc.reads)
	}
	if got := meter.FramesRecv.Load(); got != 2*k {
		t.Errorf("meter counted %d frames, want %d", got, 2*k)
	}
}

// randomFrames draws a frame sequence that exercises every window case:
// empty and tiny payloads, frames larger than the first window, frames
// larger than RbufSoftCap, and control frames with strings and lists.
func randomFrames(rng *rand.Rand) []*wire.Frame {
	sizes := []int{0, 1, 16, 64, 200, 600, 3000, 9000}
	frames := make([]*wire.Frame, 1+rng.Intn(40))
	for i := range frames {
		payload := make([]byte, sizes[rng.Intn(len(sizes))])
		if rng.Intn(50) == 0 {
			payload = make([]byte, RbufSoftCap+rng.Intn(RbufSoftCap))
		}
		rng.Read(payload)
		m := wire.Message{Topic: spec.TopicID(rng.Intn(9)), Seq: rng.Uint64(), Created: time.Duration(rng.Int63()), Payload: payload}
		switch rng.Intn(7) {
		case 0:
			frames[i] = &wire.Frame{Type: wire.TypePublish, Msg: m}
		case 1:
			frames[i] = &wire.Frame{Type: wire.TypeReplicate, Msg: m, ArrivedPrimary: time.Duration(rng.Int63())}
		case 2:
			frames[i] = &wire.Frame{Type: wire.TypePrune, Topic: m.Topic, Seq: m.Seq}
		case 3:
			frames[i] = &wire.Frame{Type: wire.TypePoll, Nonce: rng.Uint64()}
		case 4:
			frames[i] = &wire.Frame{Type: wire.TypeHello, Role: wire.RoleSubscriber, Name: strings.Repeat("n", rng.Intn(40))}
		case 5:
			frames[i] = &wire.Frame{Type: wire.TypeSubscribe, Topics: []spec.TopicID{1, 2, spec.TopicID(rng.Intn(100))}}
		default:
			frames[i] = &wire.Frame{Type: wire.TypeDispatch, Msg: m, Dispatched: time.Duration(rng.Int63())}
		}
	}
	return frames
}

// checkChunking feeds the frames drawn from seed through a Conn whose reads
// end at the given cuts and requires every received frame to be identical to
// what wire.Decode makes of the same body, then a clean EOF.
func checkChunking(t *testing.T, seed int64, cuts []int, alias bool) {
	t.Helper()
	var stream []byte
	var bodies [][]byte
	for _, f := range randomFrames(rand.New(rand.NewSource(seed))) {
		var body []byte
		stream, body = appendFrame(t, stream, f)
		bodies = append(bodies, body)
	}
	c := NewConn(&chunkConn{stream: stream, cuts: cuts})
	c.SetZeroCopy(alias)
	var f wire.Frame
	for i, body := range bodies {
		if err := c.RecvInto(&f); err != nil {
			t.Fatalf("frame %d of %d: %v", i, len(bodies), err)
		}
		want, err := wire.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		// Compared before the next RecvInto, as the alias contract requires.
		got, _ := wire.Encode(nil, &f)
		ref, _ := wire.Encode(nil, want)
		if !bytes.Equal(got, ref) || !bytes.Equal(got, body) {
			t.Fatalf("frame %d (%v, %d bytes) differs from wire.Decode of the same body", i, want.Type, len(body))
		}
	}
	if err := c.RecvInto(&f); !errors.Is(err, io.EOF) || !strings.Contains(err.Error(), "read header") {
		t.Fatalf("after the last frame: err = %v, want io.EOF under read header", err)
	}
}

// cutsFrom turns fuzz bytes into read sizes: mostly 1–256 bytes (so headers
// get split), occasionally tens of kilobytes.
func cutsFrom(raw []byte) []int {
	cuts := make([]int, len(raw))
	for i, b := range raw {
		cuts[i] = int(b) + 1
		if b%16 == 15 {
			cuts[i] *= 300
		}
	}
	return cuts
}

// TestRecvChunkingProperty: the same byte stream under arbitrary split
// points yields the same frames, in copy and alias mode. The seed is logged;
// replay one with FRAME_RECV_SEED.
func TestRecvChunkingProperty(t *testing.T) {
	seed := time.Now().UnixNano()
	if v := os.Getenv("FRAME_RECV_SEED"); v != "" {
		var err error
		if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			t.Fatalf("FRAME_RECV_SEED: %v", err)
		}
	}
	t.Logf("seed=%d (replay with FRAME_RECV_SEED)", seed)
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 200; round++ {
		frameSeed := rng.Int63()
		var cuts []int
		switch round % 4 {
		case 0: // byte at a time, through every header
			cuts = make([]int, 4096)
			for i := range cuts {
				cuts[i] = 1
			}
		case 1: // everything in one piece
		default:
			raw := make([]byte, rng.Intn(400))
			rng.Read(raw)
			cuts = cutsFrom(raw)
		}
		for _, alias := range []bool{false, true} {
			checkChunking(t, frameSeed, cuts, alias)
		}
	}
}

func FuzzRecvChunking(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 0, 0, 0, 0, 0}, false)
	f.Add(int64(2), []byte{2, 200, 15, 1}, true)
	f.Add(int64(3), []byte{}, true)
	f.Fuzz(func(t *testing.T, seed int64, raw []byte, alias bool) {
		checkChunking(t, seed, cutsFrom(raw), alias)
	})
}

// TestRecvFrameLargerThanWindow: a frame that does not fit the current
// window, arriving in one piece with small frames on both sides, is read
// straight into a window grown for it and neighbours stay intact.
func TestRecvFrameLargerThanWindow(t *testing.T) {
	var stream []byte
	var bodies [][]byte
	for _, n := range []int{16, 5000, 16} {
		var body []byte
		stream, body = appendFrame(t, stream, &wire.Frame{Type: wire.TypePublish, Msg: wire.Message{Topic: 1, Seq: uint64(n), Payload: bytes.Repeat([]byte{byte(n)}, n)}})
		bodies = append(bodies, body)
	}
	c := NewConn(&chunkConn{stream: stream})
	c.SetZeroCopy(true)
	var f wire.Frame
	for i, body := range bodies {
		if err := c.RecvInto(&f); err != nil {
			t.Fatal(err)
		}
		if got, _ := wire.Encode(nil, &f); !bytes.Equal(got, body) {
			t.Fatalf("frame %d corrupted around a window growth", i)
		}
	}
	if len(c.rbuf) < 5000 || len(c.rbuf) > RbufSoftCap {
		t.Errorf("window = %d after a 5000-byte frame, want it grown by doubling, under the cap", len(c.rbuf))
	}
}

// TestRecvEOFInsideFrame: a stream that ends inside a header or a body is an
// unexpected EOF under the wrapping each position had before the window.
func TestRecvEOFInsideFrame(t *testing.T) {
	stream, _ := dispatchStream(t, 2, 64)
	frame := len(stream) / 2
	for _, tc := range []struct {
		name string
		keep int
		op   string
	}{
		{"mid-header", frame + 2, "read header"},
		{"header only", frame + 4, "read body"},
		{"mid-body", frame + 40, "read body"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConn(&chunkConn{stream: stream[:tc.keep]})
			var f wire.Frame
			if err := c.RecvInto(&f); err != nil {
				t.Fatalf("the complete first frame: %v", err)
			}
			err := c.RecvInto(&f)
			if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), tc.op) {
				t.Errorf("err = %v, want io.ErrUnexpectedEOF under %q", err, tc.op)
			}
		})
	}
}

// TestRecvOversizePrefixGrowsNothing: a corrupt length prefix is rejected
// from the header alone, before the window is resized for it.
func TestRecvOversizePrefixGrowsNothing(t *testing.T) {
	stream := binary.LittleEndian.AppendUint32(nil, MaxFrameSize+1)
	stream = append(stream, make([]byte, 64)...)
	c := NewConn(&chunkConn{stream: stream})
	var f wire.Frame
	if err := c.RecvInto(&f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if len(c.rbuf) > rbufInit {
		t.Errorf("window grew to %d for a rejected prefix", len(c.rbuf))
	}
}

// TestRecvDeadlineMidFrameResumes: a read deadline that expires inside a
// header or a body fails that Recv only; the window keeps the partial frame
// and the next Recv completes it.
func TestRecvDeadlineMidFrameResumes(t *testing.T) {
	stream, bodies := dispatchStream(t, 1, 64)
	for _, cut := range []int{2, 30} {
		nc := &chunkConn{stream: stream, cuts: []int{cut}, failAt: 2, failErr: os.ErrDeadlineExceeded}
		c := NewConn(nc)
		var f wire.Frame
		if err := c.RecvInto(&f); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("cut %d: err = %v, want the deadline error", cut, err)
		}
		if err := c.RecvInto(&f); err != nil {
			t.Fatalf("cut %d: resume: %v", cut, err)
		}
		if got, _ := wire.Encode(nil, &f); !bytes.Equal(got, bodies[0]) {
			t.Errorf("cut %d: frame resumed after a deadline is corrupted", cut)
		}
	}
}

// TestRecvSteadyStateDoesNotAllocate: once the window has sized itself,
// receiving costs zero allocations per frame in both modes.
func TestRecvSteadyStateDoesNotAllocate(t *testing.T) {
	stream, _ := dispatchStream(t, 32, 64)
	for _, alias := range []bool{false, true} {
		c := NewConn(&chunkConn{stream: stream, loop: true})
		c.SetZeroCopy(alias)
		var f wire.Frame
		for i := 0; i < 256; i++ { // let the window and f's storage settle
			if err := c.RecvInto(&f); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if err := c.RecvInto(&f); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("alias=%v: %.1f allocs per received frame, want 0", alias, allocs)
		}
	}
}

// TestRecvSmallFramesKeepSmallWindow: a connection that only ever sees
// small frames one at a time — an idle gateway client — never pins more than
// the first window.
func TestRecvSmallFramesKeepSmallWindow(t *testing.T) {
	stream, _ := dispatchStream(t, 1, 64-33) // 33 bytes of dispatch framing: a 64-byte body
	if len(stream) != 4+64 {
		t.Fatalf("test frame is %d bytes on the wire, want 68", len(stream))
	}
	c := NewConn(&chunkConn{stream: stream, loop: true})
	var f wire.Frame
	for i := 0; i < 1000; i++ {
		if err := c.RecvInto(&f); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.rbuf) > 512 {
		t.Errorf("window = %d bytes after 1000 frames of 64 bytes, want <= 512", len(c.rbuf))
	}
}
