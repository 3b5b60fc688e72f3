// Egress flushers: a small pool of writer goroutines sweeping many rings
// per wakeup. Egresses are assigned round-robin to a fixed set of
// flushers, an egress is handed to its flusher only on an idle→queued edge
// (one state check per enqueue, under the ring mutex the enqueue already
// holds), and each flusher drains every ready ring per wakeup — so N hot
// subscribers cost O(flushers) wakeups and runnable goroutines, not O(N).
//
// Ownership protocol (all transitions under the egress's own mutex):
//
//	state == egIdle   → no flusher holds the egress; the next enqueue
//	                    flips it to egQueued and submits it exactly once.
//	state == egQueued → the egress sits in its flusher's notify ring, is
//	                    being processed, or has a write handed off; further
//	                    enqueues do nothing.
//
// The flusher returns an egress to egIdle only after finding its ring
// empty under the mutex, so an enqueue racing that transition either lands
// before the check (the flusher sees it and keeps draining) or after the
// store (its own idle→queued edge resubmits). No missed flushes, at most
// one processor per egress at any time — which is also what keeps the
// per-connection frame order intact.
//
// Stalled writes: a flusher never waits on one socket for longer than
// HandoffAfter. A batch still unwritten by then keeps the connection's
// write lock and is handed, with its unwritten tail, to a goroutine of its
// own, which finishes it under the ring's stall bound, settles it and puts
// the egress back on the notify ring. The flusher goes on with its other
// rings at once, so a subscriber that stops reading cannot delay a
// ring-mate, whether or not more traffic arrives. A healthy connection
// costs no goroutine.
package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/queue"
)

const (
	// DefaultFlushers is the pool size when FlusherPoolConfig.Flushers <= 0:
	// enough parallelism to keep several NICs busy, few enough that wakeup
	// coalescing still wins at high fan-out.
	DefaultFlushers = 4
	// HandoffAfter is how long a flusher waits on one socket before it hands
	// the write to a goroutine of its own. Two orders above a healthy writev,
	// three under the write-stall bounds deployments actually set.
	HandoffAfter = 2 * time.Millisecond
	// notifyDepth sizes a shared flusher's notify ring. An egress is queued
	// at most once, so this bounds the ready egresses per flusher before
	// submit briefly spins.
	notifyDepth = 4096
)

// Egress states, guarded by Egress.mu.
const (
	egIdle int32 = iota
	egQueued
)

// FlusherPoolConfig parameterizes a FlusherPool.
type FlusherPoolConfig struct {
	// Flushers is the number of writer goroutines (DefaultFlushers when <= 0).
	Flushers int
}

// FlusherPool drains the rings of every Egress created with Pool set to it,
// and owns them: Close retires every ring still open, and a ring made once
// Close has begun starts closed.
type FlusherPool struct {
	flushers []*flusher
	next     atomic.Uint64
	closed   atomic.Bool
	wg       sync.WaitGroup // the flushers and every handed-off write
	handoffs atomic.Uint64

	// rings are the registered rings not yet finalized; sealed, set when
	// Close takes its snapshot of them, refuses every later registration.
	mu     sync.Mutex
	rings  map[*Egress]struct{}
	sealed bool
}

// NewFlusherPool starts cfg.Flushers writer goroutines.
func NewFlusherPool(cfg FlusherPoolConfig) *FlusherPool {
	n := cfg.Flushers
	if n <= 0 {
		n = DefaultFlushers
	}
	p := newFlusherPool(n, notifyDepth)
	p.rings = make(map[*Egress]struct{})
	return p
}

func newFlusherPool(n, depth int) *FlusherPool {
	p := &FlusherPool{flushers: make([]*flusher, n)}
	for i := range p.flushers {
		fl := &flusher{
			pool:   p,
			notify: queue.NewMPSC[*Egress](depth),
			parker: queue.NewParker(),
		}
		p.flushers[i] = fl
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			fl.run()
		}()
	}
	return p
}

// Size returns the configured flusher count.
func (p *FlusherPool) Size() int { return len(p.flushers) }

// Handoffs reports how many writes were handed to their own goroutine.
func (p *FlusherPool) Handoffs() uint64 { return p.handoffs.Load() }

// Close retires every ring still registered — Retire's close, close
// conns, wait order, so a write in flight or handed off fails instead of
// waiting out its stall bound — and refuses every later one; then it stops
// every flusher and waits for them. A retired ring is finalized, and a
// finalized ring is never queued again, so no notify entry outlives the
// flushers.
func (p *FlusherPool) Close() {
	p.mu.Lock()
	p.sealed = true
	rings := make([]*Egress, 0, len(p.rings))
	for e := range p.rings {
		rings = append(rings, e)
	}
	p.mu.Unlock()
	Retire(rings...)
	p.stop()
	p.wg.Wait()
}

// stop tells every flusher to exit once its notify ring is empty, without
// waiting: a ring's private pool is stopped from that ring's own flusher.
func (p *FlusherPool) stop() {
	p.closed.Store(true)
	for _, fl := range p.flushers {
		fl.parker.Unpark()
	}
}

// register records a new ring for Close to retire, and reports false once
// Close has begun: the ring must then start closed.
func (p *FlusherPool) register(e *Egress) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sealed {
		return false
	}
	p.rings[e] = struct{}{}
	return true
}

// unregister forgets a finalized ring.
func (p *FlusherPool) unregister(e *Egress) {
	p.mu.Lock()
	delete(p.rings, e)
	p.mu.Unlock()
}

// assign picks the next flusher round-robin. Sticky for the egress's life,
// so one connection's frames are never reordered across flushers.
func (p *FlusherPool) assign() *flusher {
	return p.flushers[p.next.Add(1)%uint64(len(p.flushers))]
}

// flusher is one pool member: a notify ring of egresses with pending
// frames and the parker its goroutine sleeps on.
type flusher struct {
	pool   *FlusherPool
	notify *queue.MPSC[*Egress]
	parker *queue.Parker
}

// run drains the notify ring until the pool closes: pop a ready egress,
// process it to empty, repeat, and park when the ring is empty.
func (fl *flusher) run() {
	ready := func() bool { return !fl.notify.Empty() || fl.pool.closed.Load() }
	for {
		if e := fl.pop(); e != nil {
			fl.process(e)
		} else if fl.pool.closed.Load() {
			return
		} else {
			fl.parker.Park(ready)
		}
	}
}

// pop takes one queued egress, or nil when the ring is empty. Only the
// flusher's goroutine pops.
func (fl *flusher) pop() *Egress {
	var e *Egress
	fl.notify.PopInto(func(p **Egress) { e, *p = *p, nil })
	return e
}

// submit hands an egress that just flipped idle→queued, or whose handed-off
// write finished, to the flusher. Callers hold no locks. The pool is still
// running: it stops only once each of its rings is finalized. A full
// notify ring means more egresses than its depth went ready at once: spin
// for room.
func (fl *flusher) submit(e *Egress) {
	for !fl.notify.PushInPlace(func(p **Egress) { *p = e }) {
		runtime.Gosched()
	}
	fl.parker.Unpark()
}

// process drains one egress to empty: collect a batch under its mutex,
// write outside it, repeat. Exactly one goroutine runs process per egress
// at a time (the egQueued handoff guarantees it).
//
// It hands writes stalled for HandoffAfter off (see handOff), and it
// lingers: a drained egress stays egQueued and goes back on the notify
// ring, so a connection hot this sweep gets one more look after the other
// ready rings. Meanwhile producers skip the submit and unpark — the
// flusher is coming back, and does not park while its ring is non-empty.
// The second empty visit in a row idles it.
func (fl *flusher) process(e *Egress) {
	for {
		e.mu.Lock()
		n := e.collectLocked()
		if n == 0 {
			if !e.lingered && !e.closed && fl.notify.PushInPlace(func(p **Egress) { *p = e }) {
				e.lingered = true
				e.mu.Unlock()
				return
			}
			closed := e.closed
			e.state = egIdle
			e.lingered = false
			e.mu.Unlock()
			if closed {
				e.finalize()
			}
			return
		}
		e.lingered = false
		e.mu.Unlock()
		total := e.frameBatch()
		pending, err := e.conn.writeBuffersWithin(&e.tail, n, total, HandoffAfter)
		if pending {
			fl.handOff(e, n, total)
			return
		}
		if e.settle(n, err) != nil {
			e.finalize() // settle closed and drained the egress
			return
		}
	}
}

// handOff gives a batch whose write outlasted HandoffAfter a goroutine of
// its own. The egress stays egQueued and the connection's write lock stays
// held while the goroutine finishes the tail under the remaining stall
// bound and settles the batch; the egress then goes back onto the notify
// ring, or is finalized if the write failed.
func (fl *flusher) handOff(e *Egress, n, total int) {
	fl.pool.handoffs.Add(1)
	fl.pool.wg.Add(1)
	go func() {
		defer fl.pool.wg.Done()
		if e.settle(n, e.conn.finishBuffers(&e.tail, n, total)) != nil {
			e.finalize()
			return
		}
		fl.submit(e)
	}()
}
