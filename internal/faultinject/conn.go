package faultinject

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Per-direction memory bounds: a direction holds at most this many queued
// (not yet delivered) bytes before the producer blocks, and the read buffer
// holds at most this many delivered-but-unread bytes. Both model the finite
// socket buffers of a real stack, so a partition or stall back-pressures
// writers the way a wedged TCP connection would.
const (
	maxQueuedBytes = 1 << 20
	maxReadBuffer  = 1 << 20
)

// holdPollInterval is how often a pump re-checks a raised partition or
// stall while holding a frame.
const holdPollInterval = 200 * time.Microsecond

// closeDrainWait bounds how long a graceful Close waits for already-written
// frames to finish their injected delay before tearing the connection down.
const closeDrainWait = 250 * time.Millisecond

// faultConn is one fault-injected connection. The write side parses the
// transport's length-prefixed framing out of the byte stream and runs each
// frame through the egress direction's fault program before it reaches the
// inner connection; a reader goroutine does the same for arriving frames on
// the ingress direction, delivering into an in-memory read buffer that
// Read consumes (with full deadline support, since the failure detectors
// rely on read timeouts).
type faultConn struct {
	n     *Network
	inner net.Conn
	from  string // dialer's node
	to    string // listener's node

	done     chan struct{}
	downFlag atomic.Bool
	downOnce sync.Once

	eg *direction // from → to, delivers to inner.Write
	in *direction // to → from, delivers into the read buffer

	// Write-side framing state, guarded by wmu.
	wmu    sync.Mutex
	wparse []byte
	wraw   bool // framing lost; forward chunks as pseudo-frames
	werr   error

	// Read buffer, guarded by rmu.
	rmu       sync.Mutex
	rcond     *sync.Cond
	rbuf      []byte
	rerr      error
	rdeadline time.Time

	// Write deadline, guarded by wdmu (enqueue waits consult it).
	wdmu      sync.Mutex
	wdeadline time.Time
}

// qframe is one parsed frame awaiting delivery.
type qframe struct {
	data []byte
	at   time.Time // earliest delivery (latency + jitter, FIFO-floored)
	drop float64   // pre-drawn drop lottery sample
}

// direction is one half of a link: a bounded queue of parsed frames between
// a producer (Write, or the ingress reader goroutine) and a pump goroutine
// that applies partitions, stalls, drops, and bandwidth pacing at delivery
// time. Latency and jitter are sampled at enqueue time so frames pipeline —
// a 10 ms link delays every frame 10 ms, it does not serialize them.
type direction struct {
	c        *faultConn
	from, to string
	deliver  func([]byte) error

	mu       sync.Mutex
	cond     *sync.Cond
	rng      *rand.Rand
	queue    []qframe
	queued   int
	inflight bool // pump holds a popped frame not yet delivered
	srcDone  bool
	srcErr   error
	lastAt   time.Time
	nextSend time.Time // bandwidth pacing floor
	onDrain  func(err error)
}

func newFaultConn(n *Network, inner net.Conn, from, to string, seed int64) *faultConn {
	c := &faultConn{
		n:     n,
		inner: inner,
		from:  from,
		to:    to,
		done:  make(chan struct{}),
	}
	c.rcond = sync.NewCond(&c.rmu)
	c.eg = &direction{
		c: c, from: from, to: to,
		rng:     rand.New(rand.NewSource(seed)),
		deliver: func(b []byte) error { _, err := inner.Write(b); return err },
		onDrain: func(error) {},
	}
	c.in = &direction{
		c: c, from: to, to: from,
		rng:     rand.New(rand.NewSource(seed + 1)),
		deliver: c.deliverRead,
		onDrain: c.failRead,
	}
	c.eg.cond = sync.NewCond(&c.eg.mu)
	c.in.cond = sync.NewCond(&c.in.mu)
	go c.eg.pump()
	go c.in.pump()
	go c.readLoop()
	return c
}

func (c *faultConn) down() bool { return c.downFlag.Load() }

// teardown stops both pumps, drops anything still queued, and closes the
// inner connection. Idempotent.
func (c *faultConn) teardown() {
	c.downOnce.Do(func() {
		c.downFlag.Store(true)
		close(c.done)
		c.eg.wake()
		c.in.wake()
		c.rmu.Lock()
		if c.rerr == nil {
			c.rerr = net.ErrClosed
		}
		c.rcond.Broadcast()
		c.rmu.Unlock()
		c.inner.Close()
		c.n.untrack(c)
	})
}

// Close stops accepting writes, gives frames already written a bounded
// chance to finish their injected delay (so an orderly shutdown does not
// eat in-flight traffic), then tears the connection down.
func (c *faultConn) Close() error {
	c.wmu.Lock()
	if c.werr == nil {
		c.werr = fmt.Errorf("faultinject: write on closed connection: %w", net.ErrClosed)
	}
	c.wmu.Unlock()
	c.eg.finishSrc(nil)
	deadline := time.Now().Add(closeDrainWait)
	for time.Now().Before(deadline) && !c.eg.drained() && !c.down() {
		time.Sleep(holdPollInterval)
	}
	c.teardown()
	return nil
}

// reset models an abrupt connection kill: queued frames are dropped and TCP
// connections get a best-effort RST (SO_LINGER 0) so the peer sees a hard
// failure, not a clean EOF.
func (c *faultConn) reset() {
	if lc, ok := c.inner.(interface{ SetLinger(int) error }); ok {
		lc.SetLinger(0)
	}
	c.wmu.Lock()
	if c.werr == nil {
		c.werr = fmt.Errorf("faultinject: connection reset: %w", net.ErrClosed)
	}
	c.wmu.Unlock()
	c.teardown()
}

// Write parses frames out of the byte stream and hands each complete frame
// to the egress direction. Partial frames wait in the parse buffer for the
// next Write; the transport always completes them. A write that fails part
// way — its deadline passed while the direction was full — reports the
// bytes of p it took, as io.Writer requires, and keeps only those: the
// writer resumes from there and no frame is delivered twice. Only a failure
// other than the deadline is sticky.
func (c *faultConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	if c.werr != nil {
		err := c.werr
		c.wmu.Unlock()
		return 0, err
	}
	held := len(c.wparse) // bytes of earlier writes waiting in the parse buffer
	var frames [][]byte
	if c.wraw {
		frames = [][]byte{append(c.wparse, p...)}
		c.wparse = nil
	} else {
		c.wparse = append(c.wparse, p...)
		for {
			fr, rest, ok, corrupt := nextFrame(c.wparse)
			if corrupt {
				// Framing lost (length prefix over MaxFrameSize): forward
				// everything raw from here on; faults still apply per chunk.
				c.wraw = true
				frames = append(frames, append([]byte(nil), c.wparse...))
				c.wparse = nil
				break
			}
			if !ok {
				break
			}
			frames = append(frames, fr)
			c.wparse = rest
		}
		if len(c.wparse) == 0 {
			c.wparse = nil
		}
	}
	c.wmu.Unlock()
	taken := 0 // bytes of the parse buffer, held ones first, enqueued so far
	for i, fr := range frames {
		if err := c.eg.enqueue(fr); err != nil {
			c.wmu.Lock()
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// Keep what this write took, nothing more: held bytes not
				// yet enqueued go back to the parse buffer, the rest of p is
				// the writer's to resume with, and raw mode stands only if
				// the failed frame is the raw chunk (always the last).
				c.wparse = append([]byte(nil), fr[:max(held-taken, 0)]...)
				c.wraw = c.wraw && i == len(frames)-1
			} else if c.werr == nil {
				c.werr = err
			}
			c.wmu.Unlock()
			return max(taken-held, 0), err
		}
		taken += len(fr)
	}
	return len(p), nil
}

// nextFrame extracts one complete length-prefixed frame (header included,
// copied) from buf. ok reports a complete frame; corrupt reports a length
// prefix the transport itself would reject.
func nextFrame(buf []byte) (frame, rest []byte, ok, corrupt bool) {
	if len(buf) < 4 {
		return nil, buf, false, false
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n > transport.MaxFrameSize {
		return nil, buf, false, true
	}
	if len(buf) < 4+n {
		return nil, buf, false, false
	}
	frame = append([]byte(nil), buf[:4+n]...)
	rest = append(buf[:0], buf[4+n:]...) // compact in place
	return frame, rest, true, false
}

// readLoop lifts arriving frames off the inner connection into the ingress
// direction, preserving frame boundaries so ingress faults are exact too.
func (c *faultConn) readLoop() {
	var hdr [4]byte
	raw := false
	rawBuf := make([]byte, 32<<10)
	for {
		if raw {
			n, err := c.inner.Read(rawBuf)
			if n > 0 {
				if qe := c.in.enqueue(append([]byte(nil), rawBuf[:n]...)); qe != nil {
					return
				}
			}
			if err != nil {
				c.in.finishSrc(err)
				return
			}
			continue
		}
		if _, err := io.ReadFull(c.inner, hdr[:]); err != nil {
			c.in.finishSrc(err)
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n > transport.MaxFrameSize {
			// Corrupt stream: stop parsing, forward raw chunks from here on.
			raw = true
			if qe := c.in.enqueue(append([]byte(nil), hdr[:]...)); qe != nil {
				return
			}
			continue
		}
		frame := make([]byte, 4+n)
		copy(frame, hdr[:])
		if _, err := io.ReadFull(c.inner, frame[4:]); err != nil {
			c.in.finishSrc(err)
			return
		}
		if err := c.in.enqueue(frame); err != nil {
			return
		}
	}
}

// deliverRead appends a delivered frame to the read buffer, blocking (with
// teardown awareness) while the application is too far behind.
func (c *faultConn) deliverRead(data []byte) error {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for len(c.rbuf) > maxReadBuffer {
		if c.down() {
			return net.ErrClosed
		}
		t := time.AfterFunc(holdPollInterval, c.rcond.Broadcast)
		c.rcond.Wait()
		t.Stop()
	}
	c.rbuf = append(c.rbuf, data...)
	c.rcond.Broadcast()
	return nil
}

// failRead surfaces the ingress error once every already-delivered byte has
// been read.
func (c *faultConn) failRead(err error) {
	if err == nil {
		err = io.EOF
	}
	c.rmu.Lock()
	if c.rerr == nil {
		c.rerr = err
	}
	c.rcond.Broadcast()
	c.rmu.Unlock()
}

// Read serves delivered bytes, honoring the read deadline — the failure
// detectors' probe timeouts depend on it.
func (c *faultConn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for {
		if len(c.rbuf) > 0 {
			n := copy(p, c.rbuf)
			c.rbuf = c.rbuf[n:]
			if len(c.rbuf) == 0 {
				c.rbuf = nil
			}
			c.rcond.Broadcast()
			return n, nil
		}
		if c.rerr != nil {
			return 0, c.rerr
		}
		if ddl := c.rdeadline; !ddl.IsZero() {
			d := time.Until(ddl)
			if d <= 0 {
				return 0, os.ErrDeadlineExceeded
			}
			t := time.AfterFunc(d, c.rcond.Broadcast)
			c.rcond.Wait()
			t.Stop()
		} else {
			c.rcond.Wait()
		}
	}
}

func (c *faultConn) LocalAddr() net.Addr  { return c.inner.LocalAddr() }
func (c *faultConn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

func (c *faultConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.rmu.Lock()
	c.rdeadline = t
	c.rcond.Broadcast()
	c.rmu.Unlock()
	return nil
}

func (c *faultConn) SetWriteDeadline(t time.Time) error {
	c.wdmu.Lock()
	c.wdeadline = t
	c.wdmu.Unlock()
	return nil
}

func (c *faultConn) writeDeadline() time.Time {
	c.wdmu.Lock()
	defer c.wdmu.Unlock()
	return c.wdeadline
}

// enqueue admits one frame into the direction, sampling its latency, jitter
// and drop lottery deterministically. Blocks (bounded by the queue cap)
// when the direction is backed up, modelling a full socket buffer.
func (d *direction) enqueue(data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.queued >= d.capBytes() {
		if d.c.down() || d.srcDone {
			return net.ErrClosed
		}
		wait := 5 * time.Millisecond
		if ddl := d.c.writeDeadline(); !ddl.IsZero() {
			if wait = min(wait, time.Until(ddl)); wait <= 0 {
				return os.ErrDeadlineExceeded
			}
		}
		t := time.AfterFunc(wait, d.cond.Broadcast)
		d.cond.Wait()
		t.Stop()
	}
	if d.c.down() || d.srcDone {
		return net.ErrClosed
	}
	// Always draw both samples so the n-th frame's fate depends only on the
	// seed and the rules in force, never on which rules earlier frames saw.
	uJitter := d.rng.Float64()
	uDrop := d.rng.Float64()
	f := d.c.n.faultsFor(d.from, d.to)
	at := time.Now().Add(f.Latency + time.Duration(uJitter*float64(f.Jitter)))
	if at.Before(d.lastAt) {
		at = d.lastAt // one connection never reorders
	}
	d.lastAt = at
	d.queue = append(d.queue, qframe{data: data, at: at, drop: uDrop})
	d.queued += len(data)
	d.cond.Broadcast()
	return nil
}

// capBytes resolves the direction's current queued-byte bound, re-read every
// wait iteration so SetLink can shrink (or restore) a live link's buffer.
func (d *direction) capBytes() int {
	if wb := d.c.n.faultsFor(d.from, d.to).WriteBufferBytes; wb > 0 && wb < maxQueuedBytes {
		return wb
	}
	return maxQueuedBytes
}

// finishSrc marks the producer done; the pump drains what is queued, then
// reports err through onDrain.
func (d *direction) finishSrc(err error) {
	d.mu.Lock()
	if !d.srcDone {
		d.srcDone = true
		d.srcErr = err
	}
	d.cond.Broadcast()
	d.mu.Unlock()
}

func (d *direction) wake() {
	d.mu.Lock()
	d.cond.Broadcast()
	d.mu.Unlock()
}

// drained reports an empty queue with no frame mid-delivery.
func (d *direction) drained() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.queue) == 0 && !d.inflight
}

// pump delivers queued frames in order, applying the direction's current
// fault program to each: wait out the sampled latency, hold while a
// partition or stall covers the link, run the drop lottery, pace to the
// bandwidth cap, deliver.
func (d *direction) pump() {
	n := d.c.n
	for {
		d.mu.Lock()
		for len(d.queue) == 0 && !d.srcDone && !d.c.down() {
			d.cond.Wait()
		}
		if d.c.down() || len(d.queue) == 0 {
			err := d.srcErr
			d.mu.Unlock()
			if !d.c.down() {
				d.onDrain(err)
			}
			return
		}
		qf := d.queue[0]
		d.queue = d.queue[1:]
		if len(d.queue) == 0 {
			d.queue = nil
		}
		d.queued -= len(qf.data)
		d.inflight = true
		d.cond.Broadcast()
		d.mu.Unlock()

		delivered := d.deliverOne(n, qf)
		d.mu.Lock()
		d.inflight = false
		d.mu.Unlock()
		if !delivered && d.c.down() {
			return
		}
	}
}

// deliverOne runs one frame through the fault program. Returns false when
// the connection tore down mid-delivery.
func (d *direction) deliverOne(n *Network, qf qframe) bool {
	if !d.sleepUntil(qf.at) {
		return false
	}
	held := false
	for {
		if d.c.down() {
			return false
		}
		f := n.faultsFor(d.from, d.to)
		if n.Partitioned(d.from, d.to) || f.Stall {
			if !held {
				held = true
				n.stats.FramesHeld.Add(1)
			}
			if !d.sleepFor(holdPollInterval) {
				return false
			}
			continue
		}
		if f.Drop > 0 && qf.drop < f.Drop {
			n.stats.FramesDropped.Add(1)
			return true
		}
		if f.BandwidthBps > 0 && !d.pace(len(qf.data), f.BandwidthBps) {
			return false
		}
		break
	}
	if err := d.deliver(qf.data); err != nil {
		if !d.c.down() {
			d.finishSrc(err)
			d.onDrain(err)
			d.c.teardown()
		}
		return false
	}
	n.stats.FramesForwarded.Add(1)
	n.stats.BytesForwarded.Add(uint64(len(qf.data)))
	return true
}

// pace enforces the bandwidth cap: frame k may not leave before the
// cumulative byte count so far divided by the cap.
func (d *direction) pace(size int, bps int64) bool {
	d.mu.Lock()
	now := time.Now()
	start := d.nextSend
	if start.Before(now) {
		start = now
	}
	d.nextSend = start.Add(time.Duration(int64(size) * int64(time.Second) / bps))
	d.mu.Unlock()
	return d.sleepUntil(start)
}

func (d *direction) sleepUntil(t time.Time) bool {
	w := time.Until(t)
	if w <= 0 {
		return !d.c.down()
	}
	return d.sleepFor(w)
}

func (d *direction) sleepFor(w time.Duration) bool {
	timer := time.NewTimer(w)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-d.c.done:
		return false
	}
}
