// Asynchronous egress: per-connection outbound rings drained with vectored
// writes by a flusher pool — the broker's or gateway's shared one, or a
// ring's private one-flusher pool (a client's uplink).
//
// The broker's fan-out used to write to every subscriber synchronously under
// each connection's write lock, so one wedged socket head-of-line-blocked the
// whole dispatch lane and every other topic's deadline in it. An Egress
// decouples the two: dispatch becomes a non-blocking enqueue of a refcounted,
// encode-once frame buffer, and a flusher drains the ring with net.Buffers
// (writev on TCP), coalescing many frames into one syscall.
//
// When a ring fills, the shed policy is deadline-aware: the oldest frame is
// dropped, but a topic never loses more than its loss tolerance Li in
// consecutive drops. A subscriber that would force a topic past Li is evicted
// (connection closed, counted) instead of stalling the lane — mirroring how
// the paper treats Li as the per-topic QoS floor rather than best-effort.
//
// Ownership contract: each Enqueue transfers one reference of the
// wire.FrameBuf to the egress (callers Retain before enqueueing the same
// buffer to multiple subscribers); the egress releases it after the frame is
// flushed, shed, or dropped at close. The last Release returns the buffer to
// its pool, keeping the steady-state publish→dispatch→flush path at zero
// allocations per message.
package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/spec"
	"repro/internal/wire"
)

// FrameBuf is wire.FrameBuf: the pool moved next to the frame layout it
// depends on, so that package core can hold references too. The names below
// stay for the code that only ever queues frames.
type FrameBuf = wire.FrameBuf

// GetFrameBuf returns a pooled buffer for a small body; callers that know
// the size they are about to encode use wire.GetFrameBuf.
func GetFrameBuf() *FrameBuf { return wire.GetFrameBuf(0) }

// FrameBufRefs reports the number of FrameBufs currently checked out of the
// pool anywhere in the process (see wire.FrameBufRefs).
func FrameBufRefs() int64 { return wire.FrameBufRefs() }

// EgressMeter accumulates egress counters, typically shared by every
// subscriber ring a broker owns. All fields are atomic.
type EgressMeter struct {
	// Producer-side counters, bumped on the enqueue path.
	Enqueued  atomic.Uint64 // frames accepted into a ring
	Shed      atomic.Uint64 // frames dropped by the Li-aware shed policy
	Evictions atomic.Uint64 // subscribers evicted for exceeding a topic's Li

	// Padding keeps the flusher-side counters below off the cache line the
	// enqueue path hammers; with a shared meter across many egresses, the
	// two sides otherwise false-share on every frame.
	_ [40]byte

	// Flusher-side counters, bumped by the writer draining the ring.
	Flushed   atomic.Uint64 // frames written to a socket
	Batches   atomic.Uint64 // per-egress flush batches settled
	Stalls    atomic.Uint64 // writes failed by the write-stall deadline
	WriteErrs atomic.Uint64 // failed vectored writes (stalls included)
	// WriteSyscalls counts egress writes: one per vectored write of a
	// collected batch.
	WriteSyscalls atomic.Uint64
}

// EgressStats is a point-in-time copy of an EgressMeter.
type EgressStats struct {
	Enqueued  uint64
	Flushed   uint64
	Batches   uint64
	Shed      uint64
	Evictions uint64
	Stalls    uint64
	WriteErrs uint64
	// WriteSyscalls counts the vectored writes spent writing frames.
	WriteSyscalls uint64
	// SubmittedBatches, SweepConns and KernelSubmit are always zero: the
	// kernel-batched submission backend they described is gone, and they
	// stay only because the repository benchmark (bench/layers.go) reads
	// them. Removed by the next benchmark-correcting PR.
	SubmittedBatches uint64
	SweepConns       uint64
	KernelSubmit     bool
}

// Snapshot copies the counters.
func (m *EgressMeter) Snapshot() EgressStats {
	return EgressStats{
		Enqueued:      m.Enqueued.Load(),
		Flushed:       m.Flushed.Load(),
		Batches:       m.Batches.Load(),
		Shed:          m.Shed.Load(),
		Evictions:     m.Evictions.Load(),
		Stalls:        m.Stalls.Load(),
		WriteErrs:     m.WriteErrs.Load(),
		WriteSyscalls: m.WriteSyscalls.Load(),
	}
}

// Egress sizing. A 1024-deep ring absorbs ~20ms of a 50k msg/s fan-out
// before shedding starts. Every ring collects at most DefaultEgressBatch
// frames (fewer when its depth is smaller) per vectored write, which
// amortizes the syscall ~64×. Each frame contributes two iovecs (length
// prefix + body) and writev takes at most IOV_MAX (1024 on Linux) of
// them, so any batch collectLocked produces is one writev, never silently
// split.
const (
	DefaultEgressDepth = 1024
	DefaultEgressBatch = 64
)

// EgressConfig parameterizes one subscriber ring.
type EgressConfig struct {
	// Depth is the ring capacity in frames (DefaultEgressDepth when <= 0).
	Depth int
	// Shed selects the full-ring policy: true drops oldest frames within
	// each topic's Li budget and evicts past it; false blocks the enqueuer
	// (legacy backpressure, used by benchmarks that need a lossless pipe).
	Shed bool
	// Stall bounds each flush write via Conn.SetWriteStall, a handed-off one
	// included; zero leaves the connection's existing bound untouched.
	Stall time.Duration
	// Meter receives counters; nil disables counting.
	Meter *EgressMeter
	// Pool drains this ring with the pool's shared flushers (see
	// FlusherPool). Nil gives the ring a private one-flusher pool, stopped
	// when the ring stops, as a client's uplink has.
	Pool *FlusherPool
}

// EnqueueResult reports what Enqueue did with the frame.
type EnqueueResult int

const (
	// EnqueueOK: the frame is queued for flush.
	EnqueueOK EnqueueResult = iota
	// EnqueueShed: the frame was queued after shedding older frames.
	EnqueueShed
	// EnqueueClosed: the egress is closed; the frame was released.
	EnqueueClosed
	// EnqueueEvicted: this enqueue exhausted a topic's Li budget and evicted
	// the subscriber; the frame was released and the connection is closing.
	EnqueueEvicted
)

// egressItem is one queued frame plus the shed-budget inputs captured at
// enqueue time.
type egressItem struct {
	buf   *FrameBuf
	topic spec.TopicID
	li    int
}

// Egress owns one subscriber connection's outbound path: a bounded ring of
// refcounted frames, drained by its flusher.
type Egress struct {
	conn  *Conn
	meter *EgressMeter
	shed  bool

	mu        sync.Mutex
	cond      *sync.Cond
	ring      []egressItem
	head      int
	count     int
	highWater int
	// pendEnq/pendShed batch enqueue-path meter counts under mu; the next
	// collect (or terminal drain) publishes them in one atomic add each
	// instead of one per frame. The shared meter lags by at most one flush
	// cycle, which its readers (stats scrapes, tests after Wait) tolerate.
	pendEnq  uint64
	pendShed uint64
	consec   map[spec.TopicID]int // consecutive drops per topic since last flush
	closed   bool
	evicted  bool

	// state is the idle/queued handoff word of the flusher protocol,
	// guarded by mu like the ring it describes. lingered marks an egress
	// whose last flusher visit found it empty but kept it queued for one
	// more sweep; the second empty visit idles it. private marks fl's pool
	// as this ring's own, stopped when the ring stops.
	fl       *flusher
	state    int32
	lingered bool
	private  bool

	// Writer-owned scratch, reused across batches. hdrs is pre-sized to
	// 4*maxBatch so mid-batch growth can never move the header bytes that
	// vecs already aliases; tail is the part of vecs not yet written.
	// batchConsec snapshots (under mu, in collectLocked) whether the shed
	// ledger had entries, so the common no-shed flush skips relocking to
	// settle it.
	batch       []egressItem
	hdrs        []byte
	vecs        net.Buffers
	tail        net.Buffers
	batchConsec bool

	done     chan struct{}
	doneOnce sync.Once
}

// NewEgress wraps conn with an outbound ring drained by cfg.Pool's shared
// flushers, or by a private one-flusher pool when none is given. A shared
// pool owns the ring until it is finalized, and on a pool that has begun
// closing the ring starts closed: Enqueue answers EnqueueClosed and Wait
// returns at once. The egress owns all writes on conn from here on; callers
// route every frame through Enqueue (control replies on a subscriber conn
// keep using Send, which serializes with the flusher on the conn's write
// lock).
func NewEgress(conn *Conn, cfg EgressConfig) *Egress {
	depth := cfg.Depth
	if depth <= 0 {
		depth = DefaultEgressDepth
	}
	maxBatch := min(DefaultEgressBatch, depth)
	if cfg.Stall > 0 {
		conn.SetWriteStall(cfg.Stall)
	}
	e := &Egress{
		conn:  conn,
		meter: cfg.Meter,
		shed:  cfg.Shed,
		ring:  make([]egressItem, depth),
		batch: make([]egressItem, 0, maxBatch),
		hdrs:  make([]byte, 0, 4*maxBatch),
		vecs:  make(net.Buffers, 0, 2*maxBatch),
		done:  make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	pool := cfg.Pool
	if pool == nil {
		// One egress is queued at most once: the smallest notify ring holds it.
		pool, e.private = newFlusherPool(1, 1), true
	}
	e.fl = pool.assign()
	if !e.private && !pool.register(e) {
		// The pool is closing: the ring refuses every frame from the start.
		e.closed = true
		e.finalize()
	}
	return e
}

// Conn returns the wrapped connection.
func (e *Egress) Conn() *Conn { return e.conn }

// Enqueue hands one reference on buf to the egress for delivery. topic and
// li (the topic's loss tolerance) feed the shed policy. Never blocks in shed
// mode; in blocking mode it waits for ring space. Whatever the outcome, the
// caller's transferred reference is consumed.
func (e *Egress) Enqueue(buf *FrameBuf, topic spec.TopicID, li int) EnqueueResult {
	result := EnqueueOK
	e.mu.Lock()
	for {
		if e.closed {
			e.mu.Unlock()
			buf.Release()
			return EnqueueClosed
		}
		if e.count < len(e.ring) {
			slot := e.head + e.count
			if slot >= len(e.ring) {
				slot -= len(e.ring)
			}
			e.ring[slot] = egressItem{buf: buf, topic: topic, li: li}
			e.count++
			if e.count > e.highWater {
				e.highWater = e.count
			}
			// Hand the egress to its flusher only on the idle→queued edge;
			// while queued, the flusher re-checks the ring before going
			// idle, so this enqueue is already covered.
			submit := e.state == egIdle
			if submit {
				e.state = egQueued
			}
			e.pendEnq++
			e.mu.Unlock()
			if submit {
				e.fl.submit(e)
			}
			return result
		}
		if !e.shed {
			e.cond.Wait() // blocking backpressure mode
			continue
		}
		// Ring full: shed the oldest frame unless its topic already lost Li
		// consecutive frames — then the subscriber is past its QoS floor and
		// gets evicted instead of silently exceeding Li or stalling the lane.
		oldest := e.ring[e.head]
		dropped := e.consec[oldest.topic]
		if oldest.li < spec.LossUnbounded && dropped >= oldest.li {
			e.closed, e.evicted = true, true
			e.drainLocked()
			e.cond.Broadcast()
			idle := e.state == egIdle
			e.mu.Unlock()
			buf.Release()
			if e.meter != nil {
				e.meter.Evictions.Add(1)
			}
			// The writer may be wedged mid-write holding the conn's write
			// lock; Close from a fresh goroutine unsticks it without
			// blocking the dispatch lane here.
			go e.conn.Close()
			if idle {
				// Not queued: no flusher will visit, so the terminal
				// bookkeeping happens here.
				e.finalize()
			}
			return EnqueueEvicted
		}
		e.ring[e.head] = egressItem{}
		e.head++
		if e.head == len(e.ring) {
			e.head = 0
		}
		e.count--
		if e.consec == nil {
			e.consec = make(map[spec.TopicID]int)
		}
		e.consec[oldest.topic] = dropped + 1
		e.pendShed++
		oldest.buf.Release()
		result = EnqueueShed
	}
}

// EnqueueBatch is Enqueue for a run of frames that share one loss tolerance
// and whose producer never names a topic to the shed ledger (topic 0): when
// the run fits the ring it goes in under one lock acquisition with at most
// one flusher hand-off, so the writer sees it whole and it leaves in one
// vectored write. A run that does not fit falls back to frame-by-frame
// Enqueue and its full-ring policy. One reference per buffer is consumed
// either way; the result is the worst outcome among the frames.
func (e *Egress) EnqueueBatch(bufs []*FrameBuf, li int) EnqueueResult {
	e.mu.Lock()
	if e.closed || e.count+len(bufs) > len(e.ring) {
		e.mu.Unlock()
		result := EnqueueOK
		for _, buf := range bufs {
			if r := e.Enqueue(buf, 0, li); r > result {
				result = r
			}
		}
		return result
	}
	for _, buf := range bufs {
		slot := e.head + e.count
		if slot >= len(e.ring) {
			slot -= len(e.ring)
		}
		e.ring[slot] = egressItem{buf: buf, li: li}
		e.count++
	}
	if e.count > e.highWater {
		e.highWater = e.count
	}
	e.pendEnq += uint64(len(bufs))
	submit := e.state == egIdle && len(bufs) > 0
	if submit {
		e.state = egQueued
	}
	e.mu.Unlock()
	if submit {
		e.fl.submit(e)
	}
	return EnqueueOK
}

// flushMeterLocked publishes the enqueue counts batched under mu to the
// shared meter. Callers hold e.mu.
func (e *Egress) flushMeterLocked() {
	if e.meter == nil {
		e.pendEnq, e.pendShed = 0, 0
		return
	}
	if e.pendEnq != 0 {
		e.meter.Enqueued.Add(e.pendEnq)
		e.pendEnq = 0
	}
	if e.pendShed != 0 {
		e.meter.Shed.Add(e.pendShed)
		e.pendShed = 0
	}
}

// drainLocked releases every queued frame and settles the batched meter
// counts — every terminal path drains, so nothing stays unpublished.
// Callers hold e.mu.
func (e *Egress) drainLocked() {
	e.flushMeterLocked()
	for e.count > 0 {
		it := e.ring[e.head]
		e.ring[e.head] = egressItem{}
		e.head++
		if e.head == len(e.ring) {
			e.head = 0
		}
		e.count--
		it.buf.Release()
	}
}

// Close stops the egress: queued frames are released (the connection is
// about to close anyway) and the egress stops once any in-flight write
// returns. Idempotent. Close does not close the connection — owners close
// the conn themselves, then Wait for the egress (Retire does all three).
func (e *Egress) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.drainLocked()
	e.cond.Broadcast()
	idle := e.state == egIdle
	e.mu.Unlock()
	if idle {
		// Not queued anywhere: no flusher will visit this egress again, so
		// it reaches its terminal state here. When queued, the owning
		// flusher (or handed-off write) finds the drained ring and
		// finalizes.
		e.finalize()
	}
}

// Drain is the orderly stop: unlike Close it drops nothing. New frames are
// refused from here on (EnqueueClosed), what is already queued stays with
// the flusher, and Drain returns once that has been written, a write has
// failed, or wait has passed — whichever comes first. The owner then closes
// the connection, which fails whatever a wedged peer left unwritten, and
// Waits, exactly as after Close.
func (e *Egress) Drain(wait time.Duration) {
	e.mu.Lock()
	idle := false
	if !e.closed {
		e.closed = true
		e.cond.Broadcast() // blocked enqueuers, to give up
		idle = e.state == egIdle
	}
	e.mu.Unlock()
	if idle {
		e.finalize() // not queued, so empty: see Close
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-e.done:
	case <-t.C:
	}
}

// Wait blocks until the egress has fully stopped: its flusher, its
// handed-off write or Close finalized it.
func (e *Egress) Wait() { <-e.done }

// Retire stops rings for good, in the order every owner needs: close every
// ring first, so no flusher picks up another frame and queued frames are
// released; then close every ring's connection, which fails a write in
// flight or handed off; then wait for every ring. Nil rings are skipped, so
// owners may pass a session's rings whether or not they were ever opened.
// FlusherPool.Close retires what is still open at shutdown, so all four ring
// owners — the broker's subscriber, PubAck and replication rings and the
// gateway's client rings — call Retire only for a ring's own end: its
// session's exit, its link's loss.
func Retire(rings ...*Egress) {
	for _, e := range rings {
		if e != nil {
			e.Close()
		}
	}
	for _, e := range rings {
		if e != nil {
			e.conn.Close()
		}
	}
	for _, e := range rings {
		if e != nil {
			e.Wait()
		}
	}
}

// finalize performs the one-time terminal transition of an egress: an
// evicted connection is closed, a private pool is stopped, a shared one
// forgets the ring, and waiters are released. It runs only when no flusher
// holds the egress.
func (e *Egress) finalize() {
	e.doneOnce.Do(func() {
		if e.Evicted() {
			e.conn.Close()
		}
		if e.private {
			e.fl.pool.stop()
		} else {
			e.fl.pool.unregister(e)
		}
		close(e.done)
	})
}

// Evicted reports whether the shed policy evicted this subscriber.
func (e *Egress) Evicted() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evicted
}

// Depth returns the current queue depth in frames.
func (e *Egress) Depth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.count
}

// HighWater returns the deepest the ring has ever been.
func (e *Egress) HighWater() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.highWater
}

// collectLocked moves up to maxBatch frames from the ring into the batch
// scratch and wakes enqueuers blocked on a full ring. Caller holds e.mu;
// the batch belongs to that caller until it is settled (the idle/queued
// handoff keeps collectors from overlapping).
func (e *Egress) collectLocked() int {
	n := e.count
	if n == 0 {
		return 0
	}
	if n > cap(e.batch) {
		n = cap(e.batch)
	}
	// Bulk-move in at most two contiguous chunks: the copy/clear pair beats
	// a per-item loop while the producers contend on this mutex.
	e.batch = e.batch[:n]
	first := n
	if r := len(e.ring) - e.head; first > r {
		first = r
	}
	copy(e.batch[:first], e.ring[e.head:e.head+first])
	clear(e.ring[e.head : e.head+first])
	if rest := n - first; rest > 0 {
		copy(e.batch[first:], e.ring[:rest])
		clear(e.ring[:rest])
	}
	e.head += n
	if e.head >= len(e.ring) {
		e.head -= len(e.ring)
	}
	e.count -= n
	e.flushMeterLocked()
	// Snapshot whether the shed ledger has entries: settle (outside the
	// mutex) skips its locking round-trip when not.
	e.batchConsec = len(e.consec) != 0
	e.cond.Broadcast() // wake enqueuers blocked on a full ring
	return n
}

// frameBatch lays the collected batch out for one vectored write — two
// iovecs per frame, length prefix then body, assembled in the hdrs and vecs
// scratch, with tail covering all of it — and returns its byte length.
func (e *Egress) frameBatch() int {
	e.hdrs = e.hdrs[:0]
	e.vecs = e.vecs[:0]
	total := 0
	for _, it := range e.batch {
		off := len(e.hdrs)
		e.hdrs = append(e.hdrs, 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(e.hdrs[off:], uint32(len(it.buf.B)))
		e.vecs = append(e.vecs, e.hdrs[off:off+4], it.buf.B)
		total += 4 + len(it.buf.B)
	}
	e.tail = e.vecs
	return total
}

// settle ends the write of the collected batch of n frames, whose outcome
// is err. References move ring→batch at collect and leave the egress here:
// released after the write, whatever its outcome. On success the shed
// ledger forgets the flushed topics and the flush counters advance. A write
// error closes and drains the egress, counts the failure, and closes the
// connection; the caller must stop draining.
func (e *Egress) settle(n int, err error) error {
	e.tail = nil
	if e.meter != nil {
		e.meter.WriteSyscalls.Add(1)
	}
	if err == nil && e.batchConsec {
		e.mu.Lock()
		for _, it := range e.batch {
			delete(e.consec, it.topic)
		}
		e.mu.Unlock()
	}
	for i := range e.batch {
		e.batch[i].buf.Release()
		e.batch[i] = egressItem{}
	}
	if err == nil {
		if e.meter != nil {
			e.meter.Flushed.Add(uint64(n))
			e.meter.Batches.Add(1)
		}
		return nil
	}
	e.mu.Lock()
	wasClosed := e.closed
	e.closed = true
	e.drainLocked()
	e.cond.Broadcast()
	e.mu.Unlock()
	if !wasClosed && e.meter != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			e.meter.Stalls.Add(1)
		}
		e.meter.WriteErrs.Add(1)
	}
	e.conn.Close()
	return err
}
