// Package transport carries wire frames across process and host boundaries.
//
// It layers a uint32-length-prefixed framing on top of any net.Conn and
// abstracts the dial/listen pair behind a Network interface with two
// implementations: TCP (the real stack, used by the cmd/ tools, examples,
// and integration tests over loopback) and Mem (an in-process network built
// on net.Pipe, used by unit tests and the quickstart example).
//
// A Conn is safe for one concurrent reader plus any number of writers:
// writes are serialized by a mutex, because lane dispatchers, egress
// flushers and session replies can all push frames down the same link.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// MaxFrameSize bounds a single frame on the wire; larger length prefixes
// indicate corruption and poison the connection.
const MaxFrameSize = 4 << 20

// Receive-window policy. A Conn reads whatever the kernel has into one
// window and hands frames out of it in place, so a burst of small frames
// costs one read(2) instead of two per frame. The window starts at rbufInit
// and doubles only on evidence: the previous read filled it (the kernel had
// more), or the frame being assembled needs it. Doubling stops at
// RbufSoftCap; a frame larger than that gets exactly the room it needs, and
// one jumbo frame must not pin megabytes per connection for the life of the
// process, so once rbufShrinkAfter consecutive frames fit within the cap the
// next visit to the socket releases the excess.
const (
	// rbufInit is the first window: an idle connection that only ever sees
	// small frames one at a time pins no more than this.
	rbufInit = 512
	// RbufSoftCap is the receive-window size a connection will pin
	// indefinitely without shrinking.
	RbufSoftCap = 64 << 10
	// rbufShrinkAfter is how many consecutive sub-cap frames must arrive
	// before an oversized window is released (hysteresis, so alternating
	// sizes don't thrash the allocator).
	rbufShrinkAfter = 64
)

// ErrFrameTooLarge reports a length prefix above MaxFrameSize.
var ErrFrameTooLarge = errors.New("transport: frame exceeds MaxFrameSize")

// Meter accumulates frame and byte counts across any set of Conns. All
// fields are atomic, so observability readers never contend with the data
// path; one Meter is typically shared by every connection a broker owns.
type Meter struct {
	FramesSent atomic.Uint64
	BytesSent  atomic.Uint64
	FramesRecv atomic.Uint64
	BytesRecv  atomic.Uint64
	// ReadSyscalls counts Read calls on the underlying connections — the
	// receive-side twin of the egress WriteSyscalls counter; FramesRecv over
	// ReadSyscalls is the receive batching factor.
	ReadSyscalls atomic.Uint64
}

// Conn is a framed, typed connection carrying wire.Frames.
type Conn struct {
	nc    net.Conn
	meter *Meter

	writeMu sync.Mutex
	wbuf    []byte      // one frame with its length prefix (Send), or a gathered batch
	wv      net.Buffers // vectored-write scratch; a local would escape through WriteTo
	// vectored: nc turns net.Buffers.WriteTo into one writev. Any other
	// net.Conn (an in-process pipe, a fault injector, a counting wrapper)
	// would get one Write per buffer from it, so there the buffers are
	// gathered into wbuf first and leave in one Write.
	vectored bool
	werr     error // sticky write failure; guarded by writeMu

	// writeStall bounds each write syscall (see SetWriteStall); guarded by
	// writeMu.
	writeStall time.Duration

	// read state: single reader assumed. rbuf[rpos:rend] is the receive
	// window's unread bytes — zero or more whole frames, then at most one
	// partial one.
	rbuf       []byte
	rpos, rend int
	rFilled    bool // the last read filled the window: the kernel had more
	rShrink    int  // consecutive sub-cap frames while rbuf is oversized
	zeroCopy   bool // RecvInto aliases payloads into rbuf (see SetZeroCopy)

	// closed flips before the underlying conn closes, so a send after Close
	// and a write that the close unsticks both fail with net.ErrClosed.
	closed atomic.Bool
}

// NewConn wraps a net.Conn with frame codecs.
func NewConn(nc net.Conn) *Conn {
	_, tcp := nc.(*net.TCPConn)
	return &Conn{nc: nc, vectored: tcp}
}

// SetMeter attaches a traffic meter. Call before the connection is shared
// between goroutines; a nil meter disables counting.
func (c *Conn) SetMeter(m *Meter) { c.meter = m }

// Send encodes and writes one frame, length prefix and body in one Write.
// Safe for concurrent use. A frame above MaxFrameSize is refused before any
// byte reaches the connection.
func (c *Conn) Send(f *wire.Frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := c.sendableLocked(); err != nil {
		return err
	}
	// Encode behind room for the length prefix, so the frame is contiguous.
	framed, err := wire.Encode(append(c.wbuf[:0], 0, 0, 0, 0), f)
	if err != nil {
		return fmt.Errorf("transport: encode %v: %w", f.Type, err)
	}
	c.wbuf = framed // reuse the grown buffer next time
	if n := len(framed) - 4; n > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.LittleEndian.PutUint32(framed, uint32(len(framed)-4))
	c.armWriteStallLocked()
	defer c.disarmWriteStallLocked()
	if _, err := c.nc.Write(framed); err != nil {
		return c.stickyWriteLocked("write frame", err)
	}
	c.countSentLocked(1, len(framed))
	return nil
}

// SetWriteStall bounds every write syscall on this connection: a write that
// makes no progress for d is failed with os.ErrDeadlineExceeded instead of
// blocking forever on a wedged peer. The failure is sticky — a partial write
// corrupts the length-prefixed framing, so the connection is unusable after —
// and callers (the broker's replicators, the egress writers) treat it as a
// dead link. Zero disables the bound. Safe to call concurrently with writers.
func (c *Conn) SetWriteStall(d time.Duration) {
	c.writeMu.Lock()
	c.writeStall = d
	c.writeMu.Unlock()
}

// armWriteStallLocked sets the per-write deadline when a stall bound is
// configured; disarmWriteStallLocked clears it so reads sharing the socket's
// deadline machinery are unaffected between writes.
func (c *Conn) armWriteStallLocked() {
	if c.writeStall > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.writeStall))
	}
}

func (c *Conn) disarmWriteStallLocked() {
	if c.writeStall > 0 {
		c.nc.SetWriteDeadline(time.Time{})
	}
}

// sendableLocked reports whether the connection can accept another frame,
// surfacing the sticky error and turning post-Close sends into errors
// instead of silent enqueues.
func (c *Conn) sendableLocked() error {
	if c.werr != nil {
		return c.werr
	}
	if c.closed.Load() {
		c.werr = fmt.Errorf("transport: send on closed connection: %w", net.ErrClosed)
		return c.werr
	}
	return nil
}

// stickyWriteLocked records a write failure so every later send fails fast:
// a failed or partial write leaves the stream's framing in an unknown state,
// so the connection must not carry further frames. A failure on an
// already-closed connection additionally matches net.ErrClosed — the write
// lost a race with Close, and callers checking for orderly-shutdown errors
// should see it as one.
func (c *Conn) stickyWriteLocked(op string, err error) error {
	if c.closed.Load() {
		c.werr = fmt.Errorf("transport: %s: %v: %w", op, err, net.ErrClosed)
	} else {
		c.werr = fmt.Errorf("transport: %s: %w", op, err)
	}
	return c.werr
}

// WriteBuffers writes a pre-assembled sequence of length-prefixed frames in
// one vectored write (writev on TCP). bufs alternates header and body slices;
// frames and nbytes are the frame count and total byte length it carries, for
// metering. The caller keeps ownership of bufs and its backing arrays.
// Errors are sticky, exactly like a direct frame write: a partial vectored
// write corrupts the framing.
func (c *Conn) WriteBuffers(bufs net.Buffers, frames, nbytes int) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := c.sendableLocked(); err != nil {
		return err
	}
	c.armWriteStallLocked()
	defer c.disarmWriteStallLocked()
	var err error
	if c.vectored {
		// WriteTo reslices its receiver, so write through the conn's scratch
		// header: it keeps the caller's slice intact without heap-escaping a
		// fresh one per call (WriteTo's pointer receiver escapes a local).
		c.wv = bufs
		_, err = c.wv.WriteTo(c.nc)
		c.wv = nil // don't pin the caller's arrays past the write
	} else {
		err = c.writeGatheredLocked(bufs)
	}
	if err != nil {
		return c.stickyWriteLocked("vectored write", err)
	}
	c.countSentLocked(frames, nbytes)
	return nil
}

// writeGatheredLocked is the vectored write below a conn without writev: the
// buffers leave packed into wbuf, one Write per RbufSoftCap bytes, so a batch
// of small frames is one Write. A buffer larger than that goes out as it is,
// uncopied, and wbuf never grows past the cap here.
func (c *Conn) writeGatheredLocked(bufs net.Buffers) error {
	packed := c.wbuf[:0]
	for _, b := range bufs {
		if len(packed)+len(b) > RbufSoftCap {
			if len(packed) > 0 {
				if _, err := c.nc.Write(packed); err != nil {
					return err
				}
				packed = packed[:0]
			}
			if len(b) > RbufSoftCap {
				if _, err := c.nc.Write(b); err != nil {
					return err
				}
				continue
			}
		}
		packed = append(packed, b...)
	}
	c.wbuf = packed[:0]
	if len(packed) == 0 {
		return nil
	}
	_, err := c.nc.Write(packed)
	return err
}

// countSentLocked meters frames/bytes a write-lock holder delivered.
func (c *Conn) countSentLocked(frames, nbytes int) {
	if c.meter != nil {
		c.meter.FramesSent.Add(uint64(frames))
		c.meter.BytesSent.Add(uint64(nbytes))
	}
}

// Recv reads one frame, blocking until a frame arrives, the deadline set via
// SetReadDeadline expires, or the connection closes. Only one goroutine may
// call Recv at a time. The returned frame owns freshly allocated storage;
// hot paths use RecvInto instead.
func (c *Conn) Recv() (*wire.Frame, error) {
	body, err := c.readBody()
	if err != nil {
		return nil, err
	}
	f, err := wire.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("transport: decode: %w", err)
	}
	c.countRecv(len(body))
	return f, nil
}

// RecvInto reads one frame into f, which the caller owns and reuses across
// calls — the steady-state-allocation-free receive path. By default payload
// bytes are copied into f's recycled storage; with SetZeroCopy they alias
// the connection's receive window and stay valid only until the next
// Recv/RecvInto (which may move or overwrite any byte of the window, even
// while later frames of the same read are still queued in it). Only one
// goroutine may receive at a time.
func (c *Conn) RecvInto(f *wire.Frame) error {
	body, err := c.readBody()
	if err != nil {
		return err
	}
	mode := wire.ModeCopy
	if c.zeroCopy {
		mode = wire.ModeAlias
	}
	if err := wire.DecodeInto(body, f, mode); err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	c.countRecv(len(body))
	return nil
}

// SetZeroCopy makes RecvInto alias message payloads directly into the
// connection's receive buffer instead of copying them out. The aliased
// payload is overwritten by the next receive, so only callers that fully
// consume (or copy) each frame before reading the next may enable this —
// the broker's session loops do. Call before the first receive.
func (c *Conn) SetZeroCopy(on bool) { c.zeroCopy = on }

// readBody returns the next frame body, in place in the receive window,
// going to the socket only when the window lacks a complete frame. The slice
// is valid until the next readBody. A read error leaves the window intact:
// after a read-deadline expiry the next call resumes mid-frame.
func (c *Conn) readBody() ([]byte, error) {
	for {
		need, op := 4, "read header"
		if avail := c.rend - c.rpos; avail >= 4 {
			n := int(binary.LittleEndian.Uint32(c.rbuf[c.rpos:]))
			if n > MaxFrameSize {
				return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
			}
			need, op = 4+n, "read body"
			if avail >= need {
				body := c.rbuf[c.rpos+4 : c.rpos+need]
				c.rpos += need
				if c.rpos == c.rend {
					c.rpos, c.rend = 0, 0
				}
				if len(c.rbuf) > RbufSoftCap {
					if need <= RbufSoftCap {
						c.rShrink++
					} else {
						c.rShrink = 0
					}
				}
				return body, nil
			}
		}
		if err := c.fill(need); err != nil {
			if err == io.EOF && c.rend > c.rpos {
				err = io.ErrUnexpectedEOF // the stream ended inside a frame
			}
			return nil, fmt.Errorf("transport: %s: %w", op, err)
		}
	}
}

// fill reads once from the socket into the window. need is the length of the
// frame being assembled at rpos (4 while its header is incomplete). Only that
// frame's partial tail is ever moved — to the front, so the read gets the
// whole window behind it — and a frame larger than the window is read
// straight into a window resized for it.
func (c *Conn) fill(need int) error {
	size := len(c.rbuf)
	switch {
	case size > RbufSoftCap && c.rShrink >= rbufShrinkAfter && need <= RbufSoftCap:
		size = RbufSoftCap
	case size == 0:
		size = rbufInit
	case c.rFilled && size < RbufSoftCap:
		size *= 2
	}
	for size < need && size < RbufSoftCap {
		size *= 2
	}
	if size < need {
		size = need // a jumbo frame gets exactly its size; the shrink rule releases it
	}
	if tail := c.rbuf[c.rpos:c.rend]; size != len(c.rbuf) || c.rpos > 0 {
		if size != len(c.rbuf) {
			c.rbuf = make([]byte, size)
			c.rShrink = 0
		}
		c.rpos, c.rend = 0, copy(c.rbuf, tail)
	}
	// The partial frame is shorter than need, so the read space is never empty.
	n, err := c.nc.Read(c.rbuf[c.rend:])
	if c.meter != nil {
		c.meter.ReadSyscalls.Add(1)
	}
	c.rend += n
	c.rFilled = c.rend == len(c.rbuf)
	if n > 0 {
		return nil // the bytes first; an error that came with them resurfaces on the next read
	}
	return err
}

func (c *Conn) countRecv(n int) {
	if c.meter != nil {
		c.meter.FramesRecv.Add(1)
		c.meter.BytesRecv.Add(uint64(4 + n))
	}
}

// SetReadDeadline bounds the next Recv.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// Close marks the connection closed and closes the underlying connection; a
// blocked Recv returns an error. It never waits for the write lock: nothing
// is ever pending on a Conn, and a writer wedged inside Write is unstuck by
// the close and fails with net.ErrClosed, as does every later send.
func (c *Conn) Close() error {
	c.closed.Store(true)
	return c.nc.Close()
}

// RemoteAddr exposes the peer address for logs.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Network abstracts listen/dial so the same broker and client code runs over
// TCP or fully in-process.
type Network interface {
	// Listen opens a listener on addr.
	Listen(addr string) (net.Listener, error)
	// Dial connects to addr.
	Dial(addr string) (net.Conn, error)
}

// TCP is the real-network implementation of Network.
type TCP struct {
	// DialTimeout bounds Dial; zero means no timeout.
	DialTimeout time.Duration
}

var _ Network = (*TCP)(nil)

// Listen opens a TCP listener.
func (t *TCP) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return ln, nil
}

// Dial connects over TCP with the configured timeout.
func (t *TCP) Dial(addr string) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, t.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return nc, nil
}

// Mem is an in-process Network: listeners register under string addresses
// and Dial produces net.Pipe pairs. A single Mem value models one isolated
// network; tests create one per scenario.
type Mem struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

var _ Network = (*Mem)(nil)

// NewMem returns an empty in-process network.
func NewMem() *Mem { return &Mem{listeners: make(map[string]*memListener)} }

// ErrAddrInUse reports a duplicate in-process listen address.
var ErrAddrInUse = errors.New("transport: address already in use")

// ErrConnRefused reports a dial to an address nobody listens on.
var ErrConnRefused = errors.New("transport: connection refused")

// Listen registers a listener at addr.
func (m *Mem) Listen(addr string) (net.Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.listeners[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	ln := &memListener{
		net:    m,
		addr:   memAddr(addr),
		accept: make(chan net.Conn),
		done:   make(chan struct{}),
	}
	m.listeners[addr] = ln
	return ln, nil
}

// Dial connects to a registered listener.
func (m *Mem) Dial(addr string) (net.Conn, error) {
	m.mu.Lock()
	ln := m.listeners[addr]
	m.mu.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	client, server := net.Pipe()
	select {
	case ln.accept <- server:
		return client, nil
	case <-ln.done:
		return nil, fmt.Errorf("%w: %s (closed)", ErrConnRefused, addr)
	}
}

func (m *Mem) remove(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.listeners, addr)
}

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

type memListener struct {
	net    *Mem
	addr   memAddr
	accept chan net.Conn

	closeOnce sync.Once
	done      chan struct{}
}

var _ net.Listener = (*memListener)(nil)

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.net.remove(string(l.addr))
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return l.addr }
