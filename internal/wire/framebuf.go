// Pooled, reference-counted frame bodies: the unit a payload travels in from
// the publisher's socket to the subscribers'. A broker session copies a
// received message into one (CopyMessage); the intake, the Message or Backup
// Buffer entry and the dispatcher's Work hold references; and because a
// Dispatch or Replicate body is the Publish body with another type byte and
// an 8-byte trailer, the dispatcher turns that very buffer into the outgoing
// frame (Reframe). The pool lives next to the layout it depends on, so
// package core can hold references without importing package transport.
//
// A FrameBuf starts with one reference, its creator's. Handing it to an
// egress ring transfers one (Retain first to queue it on several); the ring
// releases it once the frame is flushed, shed, or dropped at close. The last
// Release returns the buffer to the pool.
package wire

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// MsgHeaderLen is the length of everything that precedes the payload in
	// a Publish, Resend, Dispatch or Replicate body:
	// type ‖ topic ‖ seq ‖ created ‖ len.
	MsgHeaderLen = 1 + 4 + 8 + 8 + 4
	// MsgTrailerLen is the length of the stamp a Dispatch (dispatch time) or
	// Replicate (Primary arrival time) body carries after the payload.
	MsgTrailerLen = 8
)

// FrameBuf is a pooled, reference-counted frame body; B holds one encoded
// frame.
type FrameBuf struct {
	B    []byte
	refs atomic.Int32
}

// The pool's one capacity rule: an array is handed out only if it is at most
// frameBufSlack times the body it is asked to hold, or no larger than
// frameBufSmall; anything else is dropped to the GC, so a message never pins
// an array far larger than itself while it sits in a ring. Two size classes
// keep small control frames and large payloads from thrashing each other.
const (
	frameBufSmall = 4 << 10
	frameBufSlack = 4
	frameBufMin   = 256 // a fresh array holds a typical small body without growing
)

var frameBufPools [2]sync.Pool

func frameBufClass(n int) *sync.Pool {
	if n <= frameBufSmall {
		return &frameBufPools[0]
	}
	return &frameBufPools[1]
}

// frameBufRefs counts FrameBufs out of the pool: buffers, not references, so
// Retain and the non-final Releases — the fan-out hot path — stay off this
// shared cache line, while leak tests keep the property they need: once all
// traffic drains, the count is back at its baseline.
var frameBufRefs atomic.Int64

// FrameBufRefs reports the number of FrameBufs currently checked out of the
// pool anywhere in the process; for tests.
func FrameBufRefs() int64 { return frameBufRefs.Load() }

// GetFrameBuf returns a pooled buffer holding one reference, with zero
// length and room for a body of n bytes.
func GetFrameBuf(n int) *FrameBuf {
	fb, _ := frameBufClass(n).Get().(*FrameBuf)
	if fb == nil {
		fb = new(FrameBuf)
	}
	if c := cap(fb.B); c < n || (c > frameBufSmall && c/frameBufSlack > n) {
		fb.B = make([]byte, 0, max(n, frameBufMin))
	}
	fb.refs.Store(1)
	frameBufRefs.Add(1)
	return fb
}

// Retain adds a reference. The caller must already hold one: retaining a
// released buffer is a use-after-free and panics.
func (b *FrameBuf) Retain() { b.RetainN(1) }

// RetainN adds n references with one atomic add (one per subscriber ring).
func (b *FrameBuf) RetainN(n int) {
	if n <= 0 {
		return
	}
	if b.refs.Add(int32(n)) <= int32(n) {
		panic("wire: FrameBuf.Retain on released buffer")
	}
}

// Release drops one reference; the last one returns the buffer to the pool.
func (b *FrameBuf) Release() {
	switch n := b.refs.Add(-1); {
	case n < 0:
		panic("wire: FrameBuf.Release without a reference")
	case n == 0:
		frameBufRefs.Add(-1)
		b.B = b.B[:0]
		frameBufClass(cap(b.B)).Put(b)
	}
}

// Exclusive reports whether the caller's reference is the only one. A true
// answer is stable for as long as the caller alone can add holders; a false
// one may turn true at any moment, as other holders release.
func (b *FrameBuf) Exclusive() bool { return b.refs.Load() == 1 }

// CopyMessage copies m, as the body of a frame of type t, into a pooled
// buffer with room for a trailer, and re-points m.Payload at the copy: the
// payload then lives as long as a reference to the returned buffer does.
func CopyMessage(t Type, m *Message) *FrameBuf {
	fb := GetFrameBuf(MsgHeaderLen + len(m.Payload) + MsgTrailerLen)
	fb.B = AppendMessageBody(fb.B, t, m)
	m.Payload = fb.B[MsgHeaderLen:]
	return fb
}

// Reframe rewrites, in place, the message body b holds (built by CopyMessage,
// possibly reframed before) as the Dispatch or Replicate frame t of the same
// message: type byte and trailer are written, the payload is not touched.
// Only the sole user of b's bytes may call it — a queued frame has a reader.
func (b *FrameBuf) Reframe(t Type, trailer time.Duration) {
	n := MsgHeaderLen + int(binary.LittleEndian.Uint32(b.B[MsgHeaderLen-4:]))
	b.B[0] = byte(t)
	b.B = binary.LittleEndian.AppendUint64(b.B[:n], uint64(trailer))
}
