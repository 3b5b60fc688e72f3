// Shared egress flushers: a small pool of writer goroutines sweeping many
// subscriber rings per wakeup.
//
// PR 5's egress gave every subscriber its own writer goroutine. That keeps
// sockets isolated, but at high fan-out the cost moved into the scheduler:
// N hot subscribers mean N cond.Broadcast wakeups and N runnable goroutines
// per dispatched message. A FlusherPool inverts the ratio: egresses are
// assigned round-robin to a fixed set of flushers, an egress is handed to
// its flusher only on an idle→queued edge (one atomic-free state check per
// enqueue, under the ring mutex the enqueue already holds), and each
// flusher drains every ready ring per wakeup — so N hot subscribers cost
// O(flushers) wakeups instead of O(N).
//
// Ownership protocol (all transitions under the egress's own mutex):
//
//	state == egIdle   → no flusher holds the egress; the next enqueue
//	                    flips it to egQueued and submits it exactly once.
//	state == egQueued → the egress sits in its flusher's notify ring (or
//	                    is being processed); further enqueues do nothing.
//
// The flusher returns an egress to egIdle only after finding its ring
// empty under the mutex, so an enqueue racing that transition either lands
// before the check (the flusher sees it and keeps draining) or after the
// store (its own idle→queued edge resubmits). No missed flushes, at most
// one processor per egress at any time — which is also what keeps the
// per-connection frame order intact.
//
// Wedged-socket escalation: a flusher stuck in a write on one wedged
// connection would head-of-line-block its other rings — exactly the
// coupling PR 5 removed. Enqueues that find their ring full while their
// flusher's in-flight write is older than EscalateAfter bump the flusher's
// generation and spawn a replacement goroutine that takes over the notify
// ring. The deposed goroutine keeps sole ownership of the egress it is
// stuck on (it became that connection's de-facto dedicated writer), and
// exits once that egress drains or dies.
package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/queue"
)

// Pooled-egress defaults.
const (
	// DefaultFlushers is the pool size when FlusherPoolConfig.Flushers <= 0:
	// enough parallelism to keep several NICs busy, few enough that wakeup
	// coalescing still wins at high fan-out.
	DefaultFlushers = 4
	// DefaultEscalateAfter is the in-flight write age past which a full-ring
	// enqueue escalates its flusher. Two orders above a healthy writev,
	// three under the write-stall bounds deployments actually set.
	DefaultEscalateAfter = 2 * time.Millisecond
	// DefaultNotifyDepth sizes each flusher's notify ring. An egress is
	// queued at most once, so this bounds the egresses per flusher before
	// submit briefly spins.
	DefaultNotifyDepth = 4096
	// flusherSpins is the busy-poll probe budget before a flusher parks.
	flusherSpins = 4096
)

// Egress pooled-mode states, guarded by Egress.mu.
const (
	egIdle int32 = iota
	egQueued
)

// FlusherPoolConfig parameterizes a FlusherPool.
type FlusherPoolConfig struct {
	// Flushers is the number of writer goroutines (DefaultFlushers when <= 0).
	Flushers int
	// BusyPoll keeps idle flushers spinning briefly before parking,
	// trading CPU for wakeup latency (-busy-poll).
	BusyPoll bool
	// EscalateAfter is the in-flight write age that triggers a replacement
	// flusher (DefaultEscalateAfter when <= 0).
	EscalateAfter time.Duration
	// NotifyDepth sizes each flusher's notify ring (DefaultNotifyDepth
	// when <= 0).
	NotifyDepth int
}

// FlusherPool drains the rings of every Egress created with Pool set to it.
type FlusherPool struct {
	flushers      []*flusher
	next          atomic.Uint64
	closed        atomic.Bool
	wg            sync.WaitGroup
	busyPoll      bool
	escalateAfter time.Duration
	escalations   atomic.Uint64
}

// NewFlusherPool starts cfg.Flushers writer goroutines.
func NewFlusherPool(cfg FlusherPoolConfig) *FlusherPool {
	// Deliberately not capped at GOMAXPROCS: extra flushers on a small box
	// cost context switches, but they are also the only thing standing
	// between a wedged connection and its ring-mates during the window
	// before escalation fires — a pool of one couples every subscriber to
	// the first stuck socket.
	n := cfg.Flushers
	if n <= 0 {
		n = DefaultFlushers
	}
	after := cfg.EscalateAfter
	if after <= 0 {
		after = DefaultEscalateAfter
	}
	depth := cfg.NotifyDepth
	if depth <= 0 {
		depth = DefaultNotifyDepth
	}
	p := &FlusherPool{
		flushers:      make([]*flusher, n),
		busyPoll:      cfg.BusyPoll,
		escalateAfter: after,
	}
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
			fl.run(0)
		}()
	}
	return p
}

// Size returns the configured flusher count (replacements excluded).
func (p *FlusherPool) Size() int { return len(p.flushers) }

// Escalations reports how many replacement flushers wedged writes forced.
func (p *FlusherPool) Escalations() uint64 { return p.escalations.Load() }

// Close stops every flusher and waits for them (deposed replacements
// included). Callers must Close and Wait every pooled Egress first — the
// broker and gateway shut subscribers down before their pool — so the only
// notify entries left are strays from enqueues racing the shutdown; those
// are swept inline.
func (p *FlusherPool) Close() {
	p.closed.Store(true)
	for _, fl := range p.flushers {
		fl.parker.Unpark()
	}
	p.wg.Wait()
	for _, fl := range p.flushers {
		gen := fl.gen.Load()
		for {
			e := fl.popNotify(gen)
			if e == nil {
				break
			}
			fl.process(e, gen, false)
		}
	}
}

// assign picks the next flusher round-robin. Sticky for the egress's life,
// so one connection's frames are never reordered across flushers.
func (p *FlusherPool) assign() *flusher {
	return p.flushers[p.next.Add(1)%uint64(len(p.flushers))]
}

// flusher is one pool member: a notify ring of egresses with pending
// frames, the parker it sleeps on, and the generation/in-flight state the
// escalation protocol reads.
type flusher struct {
	pool   *FlusherPool
	notify *queue.MPSC[*Egress]
	parker *queue.Parker

	// consumeMu serializes notify.PopInto across generations: the MPSC
	// consumer side is single-owner, and ownership moves from a deposed
	// goroutine to its replacement.
	consumeMu sync.Mutex
	// gen is the current owner generation; a goroutine whose generation
	// fell behind has been deposed and must stop touching the notify ring.
	gen atomic.Uint64
	// inFlight is the UnixNano start time of the owner's current write
	// (0 when none); enqueues compare it against EscalateAfter.
	inFlight atomic.Int64
	// writing is the egress the in-flight write is for. A full-ring enqueue
	// on that same egress skips escalation: at most one goroutine processes
	// an egress, so a replacement flusher could not drain that ring either —
	// the producer's only options are the ones it already has (shed or wait).
	writing atomic.Pointer[Egress]
}

// run drains the notify ring until the pool closes or this goroutine is
// deposed by an escalation: pop a ready egress, process it to empty, repeat,
// and park when the ring is empty.
func (fl *flusher) run(gen uint64) {
	ready := func() bool {
		return !fl.notify.Empty() || fl.pool.closed.Load() || fl.gen.Load() != gen
	}
	for fl.gen.Load() == gen {
		if e := fl.popNotify(gen); e != nil {
			fl.process(e, gen, true)
			continue
		}
		if fl.pool.closed.Load() {
			return
		}
		if fl.pool.busyPoll && fl.parker.Spin(ready, flusherSpins) {
			continue
		}
		fl.parker.Park(ready)
	}
}

// popNotify takes one queued egress, or nil when the ring is empty or gen
// was deposed.
func (fl *flusher) popNotify(gen uint64) *Egress {
	fl.consumeMu.Lock()
	defer fl.consumeMu.Unlock()
	if fl.gen.Load() != gen {
		return nil
	}
	var e *Egress
	fl.notify.PopInto(func(p **Egress) { e, *p = *p, nil })
	return e
}

// submit hands an egress that just flipped idle→queued to the flusher.
// Callers hold no locks. The notify ring holds each egress at most once,
// so a full ring means more assigned egresses than NotifyDepth went ready
// at once; spin until the flusher (or its replacement) makes room.
func (fl *flusher) submit(e *Egress) {
	if fl.pool.closed.Load() {
		// Shutdown stray: no flusher will visit, so drain it here.
		go fl.process(e, fl.gen.Load(), false)
		return
	}
	for !fl.notify.PushInPlace(func(p **Egress) { *p = e }) {
		fl.maybeEscalate(e)
		runtime.Gosched()
	}
	fl.parker.Unpark()
}

// process drains one egress to empty: collect a batch under its mutex,
// write outside it, repeat. Exactly one goroutine runs process per egress
// at a time (the egQueued handoff guarantees it).
//
// With canLinger, a drained egress is not idled on the spot: the first
// empty visit keeps it egQueued and re-pushes it onto the notify ring, so
// a connection that was hot this sweep gets one more look after the rest
// of the ready rings. While it lingers, producers skip the submit and
// unpark — the flusher is already coming back, and the run loop will not
// park while the notify ring is non-empty. The second consecutive empty
// visit idles it for real. Custody stays in the shared ring the whole
// time, so escalation hands lingering egresses to the replacement flusher
// like any other queued entry.
func (fl *flusher) process(e *Egress, gen uint64, canLinger bool) {
	for {
		e.mu.Lock()
		n := e.collectLocked()
		if n == 0 {
			if canLinger && !e.lingered && !e.closed && !fl.pool.closed.Load() &&
				fl.notify.PushInPlace(func(p **Egress) { *p = e }) {
				e.lingered = true
				e.mu.Unlock()
				// Usually the requeuer is the ring's owner and cannot be
				// parked, but a deposed goroutine requeues into a ring its
				// replacement owns — and that owner may already be asleep.
				// Unpark is one atomic load when nobody is.
				fl.parker.Unpark()
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
		if err := fl.flushStamped(e, gen, n); err != nil {
			// flushBatch closed and drained the egress; nothing further
			// will be queued, so finalize here.
			e.mu.Lock()
			e.state = egIdle
			e.mu.Unlock()
			e.finalize()
			return
		}
	}
}

// flushStamped writes e's collected batch of n frames with the escalation
// stamp armed — but only while still the owner generation, so a deposed
// goroutine nursing a wedged connection does not retrigger escalation of
// its replacement. Enqueues that find their ring full age the stamp and
// depose the flusher if the write wedges.
func (fl *flusher) flushStamped(e *Egress, gen uint64, n int) error {
	var stamp int64
	if fl.gen.Load() == gen {
		fl.writing.Store(e)
		stamp = time.Now().UnixNano()
		fl.inFlight.Store(stamp)
	}
	err := e.flushBatch(n)
	if stamp != 0 {
		fl.inFlight.CompareAndSwap(stamp, 0)
		fl.writing.CompareAndSwap(e, nil)
	}
	return err
}

// maybeEscalate spawns a replacement flusher when the owner's current
// write has been in flight past the pool's EscalateAfter bound. The CAS on
// gen makes exactly one caller win per wedge. from is the caller's own
// egress: when the aged write is on that very ring, escalation is skipped —
// a replacement could not touch it either (one processor per egress), and
// spawning one per full-ring probe under a fast producer is pure goroutine
// churn.
func (fl *flusher) maybeEscalate(from *Egress) {
	ts := fl.inFlight.Load()
	if ts == 0 {
		return
	}
	if fl.writing.Load() == from {
		return
	}
	if time.Now().UnixNano()-ts < int64(fl.pool.escalateAfter) {
		return
	}
	// The stamp may be aged only because the flusher lost its CPU — on a
	// saturated or single-core box a preempted goroutine easily sits
	// runnable past EscalateAfter with its stamp still set. Yield first: a
	// merely-descheduled flusher gets the processor, finishes its write,
	// and clears (or replaces) the stamp; one parked in a wedged write
	// cannot. Only an unchanged stamp after the yield means a real wedge.
	runtime.Gosched()
	gen := fl.gen.Load()
	if fl.inFlight.Load() != ts {
		return // the write finished (or a new one started); re-age later
	}
	if !fl.gen.CompareAndSwap(gen, gen+1) {
		return // another enqueue escalated first
	}
	fl.pool.escalations.Add(1)
	fl.pool.wg.Add(1)
	go func() {
		defer fl.pool.wg.Done()
		fl.run(gen + 1)
	}()
}
