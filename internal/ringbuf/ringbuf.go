// Package ringbuf implements the fixed-capacity ring buffers that back
// FRAME's Message Buffer, Backup Buffer, and publisher Retention Buffer
// (paper §V: "The Message Buffer, Backup Buffer, and Retention Buffer are
// all implemented as ring buffers").
//
// The buffer keeps the most recent Capacity entries: pushing into a full
// buffer evicts the oldest entry, matching retention semantics where a
// publisher retains only the Ni latest messages. Entries are addressable by
// a stable, monotonically increasing index so that schedulers can hold a
// reference to "the message at position p" and later detect that it has been
// evicted — this is how dispatch/replication jobs refer to the message
// store without copying payloads.
//
// A ring allocates its slot array on the first push, so a buffer that is
// never written — a Primary's Backup Buffer, or the Message Buffer of a
// Backup that is never promoted — costs only its header.
package ringbuf

import "fmt"

// Ring is a generic most-recent-K buffer. The zero value is unusable; use
// New. Ring is not safe for concurrent use; callers synchronize.
type Ring[T any] struct {
	buf      []T // nil until the first push
	capacity int
	first    uint64 // stable index of the oldest retained entry
	n        int    // number of retained entries
}

// New returns a ring that retains the capacity most recent entries. It
// records the capacity only; the slots are allocated on the first push.
func New[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("ringbuf: capacity %d must be positive", capacity))
	}
	return &Ring[T]{capacity: capacity}
}

// Capacity returns the fixed capacity of the ring.
func (r *Ring[T]) Capacity() int { return r.capacity }

// Allocated reports whether the ring holds its slot array, that is whether
// anything was ever pushed.
func (r *Ring[T]) Allocated() bool { return r.buf != nil }

// slots returns the slot array, allocating it on first use.
func (r *Ring[T]) slots() []T {
	if r.buf == nil {
		r.buf = make([]T, r.capacity)
	}
	return r.buf
}

// Len returns the number of entries currently retained.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v, evicting the oldest entry if the ring is full. It returns
// the stable index assigned to v and whether an eviction occurred.
func (r *Ring[T]) Push(v T) (idx uint64, evicted bool) {
	buf := r.slots()
	if r.n == r.capacity {
		// Full: the slot of the oldest entry is exactly the slot the new
		// index maps to, since idx ≡ first (mod capacity) when n == capacity.
		idx = r.first + uint64(r.n)
		buf[r.pos(idx)] = v
		r.first++
		return idx, true
	}
	idx = r.first + uint64(r.n)
	buf[r.pos(idx)] = v
	r.n++
	return idx, false
}

// PushInPlace advances the ring exactly like Push but lets the caller
// construct the new entry directly in the slot: fill receives the slot still
// holding the evicted (or zero) value, so the caller can dispose of what it
// owns — this is how the engine's Message and Backup Buffers release an
// evicted entry's payload buffer. fill must not call back into the ring.
func (r *Ring[T]) PushInPlace(fill func(*T)) (idx uint64, evicted bool) {
	buf := r.slots()
	idx = r.first + uint64(r.n)
	if r.n == r.capacity {
		r.first++
		evicted = true
	} else {
		r.n++
	}
	fill(&buf[r.pos(idx)])
	return idx, evicted
}

// Get returns the entry at stable index idx, or false if it was evicted or
// never pushed.
func (r *Ring[T]) Get(idx uint64) (T, bool) {
	var zero T
	if !r.Contains(idx) {
		return zero, false
	}
	return r.buf[r.pos(idx)], true
}

// Set overwrites the entry at stable index idx in place, returning false if
// the index is no longer (or not yet) retained.
func (r *Ring[T]) Set(idx uint64, v T) bool {
	if !r.Contains(idx) {
		return false
	}
	r.buf[r.pos(idx)] = v
	return true
}

// Update applies fn to the entry at idx in place. It returns false if the
// index is not retained.
func (r *Ring[T]) Update(idx uint64, fn func(*T)) bool {
	if !r.Contains(idx) {
		return false
	}
	fn(&r.buf[r.pos(idx)])
	return true
}

// Contains reports whether stable index idx is currently retained.
func (r *Ring[T]) Contains(idx uint64) bool {
	return idx >= r.first && idx < r.first+uint64(r.n)
}

// FirstIndex returns the stable index of the oldest retained entry. It is
// meaningful only when Len() > 0.
func (r *Ring[T]) FirstIndex() uint64 { return r.first }

// NextIndex returns the stable index the next Push will receive.
func (r *Ring[T]) NextIndex() uint64 { return r.first + uint64(r.n) }

// PopOldest removes and returns the oldest entry, or false if empty.
func (r *Ring[T]) PopOldest() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	p := r.pos(r.first)
	v := r.buf[p]
	r.buf[p] = zero
	r.first++
	r.n--
	return v, true
}

// Clear discards all entries but keeps stable indices advancing: the next
// Push receives the index it would have received without the Clear.
func (r *Ring[T]) Clear() {
	var zero T
	for i := uint64(0); i < uint64(r.n); i++ {
		r.buf[r.pos(r.first+i)] = zero
	}
	r.first += uint64(r.n)
	r.n = 0
}

// Snapshot returns the retained entries, oldest first. The slice is freshly
// allocated; mutating it does not affect the ring.
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, 0, r.n)
	for i := uint64(0); i < uint64(r.n); i++ {
		out = append(out, r.buf[r.pos(r.first+i)])
	}
	return out
}

// Do calls fn for each retained entry, oldest first, with its stable index.
// fn must not mutate the ring.
func (r *Ring[T]) Do(fn func(idx uint64, v T)) {
	for i := uint64(0); i < uint64(r.n); i++ {
		idx := r.first + i
		fn(idx, r.buf[r.pos(idx)])
	}
}

func (r *Ring[T]) pos(idx uint64) int { return int(idx % uint64(r.capacity)) }
