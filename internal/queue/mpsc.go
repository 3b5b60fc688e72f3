// Bounded lock-free multi-producer single-consumer ring, plus the
// park/unpark primitive its consumers sleep on.
//
// The broker's publish intake used to hand every frame to its lane under a
// sync.Mutex + sync.Cond pair, so N publisher sessions serialized on one
// lock per lane and every publish paid a broadcast. MPSC replaces that
// handoff with a Vyukov-style sequence-stamped ring: producers claim slots
// with a single CAS on the tail cursor and never block each other or the
// consumer; the consumer pops without any atomics beyond the slot stamps.
// The idle path still sleeps — Parker keeps the "wake only when someone is
// parked" discipline with one atomic load on the producer fast path.
//
// Memory model notes (why there are no missed wakeups and no torn slots):
//
//   - A producer publishes a slot by storing val first, then releasing the
//     slot's sequence stamp (atomic.Uint64.Store has release semantics in
//     the Go memory model). The consumer acquires the stamp before reading
//     val, so val is never read torn.
//   - Park/unpark uses the classic Dekker pattern under Go's sequentially
//     consistent sync/atomic: the producer stores the item (seq stamp) and
//     THEN loads parked; the consumer stores parked and THEN re-checks
//     ready() before waiting. Whatever order the two sides interleave in,
//     at least one observes the other: either the producer sees parked and
//     posts a token into the one-slot wake channel (a token posted before
//     the consumer reaches its receive waits there for it), or the
//     consumer's ready() sees the item and it never sleeps.
package queue

import (
	"sync/atomic"
)

// cacheLinePad separates hot cursors so producers hammering tail do not
// false-share with the consumer's head.
type cacheLinePad [64]byte

// mpscSlot pairs a value with its sequence stamp. The stamp encodes the
// slot's state relative to the ring cursors:
//
//	seq == pos          → free, a producer at position pos may claim it
//	seq == pos+1        → full, the consumer at position pos may take it
//	seq <  pos          → still occupied from a lap ago: ring is full
type mpscSlot[T any] struct {
	seq atomic.Uint64
	val T
}

// MPSC is a bounded lock-free multi-producer single-consumer ring.
//
// Any number of goroutines may call PushInPlace concurrently. PopInto must
// be serialized by the caller — in the broker that serialization already
// exists (the lane worker holds its lane mutex; a flusher's notify ring is
// popped only by that flusher's goroutine). Empty and Len are safe from any goroutine:
// broker workers probe a lane's intake from park ready() checks while a
// sibling worker may be popping under the lane mutex.
//
// Values are filled in place inside the slot (PushInPlace hands the caller
// a *T to overwrite), the same discipline as ringbuf.PushInPlace.
type MPSC[T any] struct {
	_     cacheLinePad
	tail  atomic.Uint64 // next position to claim; producers CAS this
	_     cacheLinePad
	head  atomic.Uint64 // next position to consume; advanced by one consumer, read anywhere
	_     cacheLinePad
	slots []mpscSlot[T]
	mask  uint64
}

// NewMPSC returns a ring holding up to capacity values. Capacity is rounded
// up to a power of two (minimum 2) so slot indexing is a mask.
func NewMPSC[T any](capacity int) *MPSC[T] {
	c := uint64(2)
	for c < uint64(capacity) {
		c <<= 1
	}
	q := &MPSC[T]{slots: make([]mpscSlot[T], c), mask: c - 1}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// Cap returns the ring's fixed capacity.
func (q *MPSC[T]) Cap() int { return len(q.slots) }

// PushInPlace claims a slot, lets fill overwrite its value in place, and
// publishes it. It returns false without calling fill when the ring is
// full. Safe to call from any number of goroutines.
func (q *MPSC[T]) PushInPlace(fill func(*T)) bool {
	for {
		pos := q.tail.Load()
		s := &q.slots[pos&q.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			// Free: try to claim it. Losing the CAS means another
			// producer took pos; retry at the new tail.
			if q.tail.CompareAndSwap(pos, pos+1) {
				fill(&s.val)
				s.seq.Store(pos + 1) // release: publish to the consumer
				return true
			}
		case seq < pos:
			// The slot still holds the value from one lap ago: full.
			return false
		default:
			// seq > pos: tail moved under us between Load and Load;
			// reread.
		}
	}
}

// PopInto hands the head slot's value to consume and frees the slot. It
// returns false when no published value is ready. Single consumer only.
//
// consume borrows the *T only for the duration of the call; the slot (and
// any storage hanging off it) is recycled for a future push as soon as
// PopInto returns, so consume must copy anything it keeps.
func (q *MPSC[T]) PopInto(consume func(*T)) bool {
	head := q.head.Load()
	s := &q.slots[head&q.mask]
	if s.seq.Load() != head+1 { // acquire: pairs with the producer's store
		return false
	}
	consume(&s.val)
	s.seq.Store(head + q.mask + 1) // free the slot for the next lap
	q.head.Store(head + 1)
	return true
}

// Empty reports whether no published value is ready at the head. Safe from
// any goroutine. For the consumer, a false return guarantees PopInto will
// succeed; a true return is transient whenever a producer is mid-claim, but
// any such producer published its claim with a tail CAS *before* filling,
// and unparks the consumer after publishing — so Empty is safe as a Parker
// ready() check.
func (q *MPSC[T]) Empty() bool {
	head := q.head.Load()
	return q.slots[head&q.mask].seq.Load() != head+1
}

// Len approximates the number of published-but-unconsumed values. Exact
// when quiescent; producers mid-fill are counted as present.
func (q *MPSC[T]) Len() int {
	n := int64(q.tail.Load()) - int64(q.head.Load())
	if n < 0 {
		return 0
	}
	if n > int64(len(q.slots)) {
		return len(q.slots)
	}
	return int(n)
}

// Parker puts one consumer goroutine to sleep until a producer signals new
// work, without the producers paying more than one atomic load when the
// consumer is awake — the common case on a busy ring.
//
// Protocol: the consumer calls Park(ready) when it finds no work; Park
// advertises the sleeper, re-checks ready, and only then waits for a
// token, closing the check-to-sleep race. Producers call Unpark after
// making work visible; it posts a token only while the consumer is
// advertised. Every Parker has exactly one consumer.
type Parker struct {
	parked atomic.Bool
	wake   chan struct{} // one slot: a pending token is never lost, never doubled
}

// NewParker returns a ready-to-use Parker.
func NewParker() *Parker {
	return &Parker{wake: make(chan struct{}, 1)}
}

// Park blocks until a producer Unparks, unless ready() already reports
// work. The atomics are sequentially consistent, so a producer that made
// work visible either sees parked set (and posts a token) or its work is
// seen by the re-check. A token left over from an Unpark that raced an
// earlier re-check wakes the next Park spuriously; callers loop.
func (p *Parker) Park(ready func() bool) {
	p.parked.Store(true)
	if !ready() {
		<-p.wake
	}
	p.parked.Store(false)
}

// Unpark wakes the parked consumer. When it is awake — the hot-path common
// case — this is one atomic load.
func (p *Parker) Unpark() {
	if !p.parked.Load() {
		return
	}
	select {
	case p.wake <- struct{}{}:
	default: // a token is already pending
	}
}
