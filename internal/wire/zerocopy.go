// Zero-allocation codec entry points.
//
// DecodeInto is the one frame decoder. Decode wraps it with a fresh Frame
// per call, fine for control traffic, but the broker's hot path decodes one
// frame per published message and that garbage would inflate tail latency
// exactly where the paper's deadline analysis (Lemmas 1–2) is tightest. So
// hot paths own a reused Frame whose variable-length fields are either
// recycled (ModeCopy) or aliased into the read buffer (ModeAlias). The Append*Body helpers are the encode
// side of the same idea: they build a frame body once, so a sender can fan
// the identical bytes out to every subscriber instead of re-encoding per
// connection (see FrameBuf, and FrameBuf.Reframe for the broker's way of not
// encoding at all).
package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/spec"
)

// DecodeMode selects who owns the variable-length fields DecodeInto fills.
type DecodeMode int

const (
	// ModeCopy copies Payload bytes into storage owned by the destination
	// frame, reusing its existing capacity. The decoded frame stays valid
	// after buf is overwritten; steady state needs no allocation once the
	// frame's buffers have grown to the workload's sizes.
	ModeCopy DecodeMode = iota
	// ModeAlias points Payload directly into buf: zero copies, but the
	// frame is only valid until the caller reuses buf (e.g. the next
	// transport read into the same receive buffer). Whoever retains the
	// message beyond that point must copy the payload first — the broker's
	// sessions do, once, with CopyMessage.
	ModeAlias
)

// DecodeInto parses one frame from buf into f, which the caller owns and may
// reuse across calls. Every field of f is overwritten; Payload and Topics
// storage is recycled per mode (Topics always copies — it is a typed slice,
// not raw bytes). On error f's contents are unspecified.
func DecodeInto(buf []byte, f *Frame, mode DecodeMode) error {
	payload := f.Msg.Payload[:0]
	topics := f.Topics[:0]
	shards := f.Shards[:0]
	*f = Frame{}
	d := decoder{buf: buf}
	t := d.u8()
	if d.err != nil {
		return d.err
	}
	f.Type = Type(t)
	switch f.Type {
	case TypePublish, TypeResend:
		d.messageInto(&f.Msg, payload, mode)
	case TypeDispatch:
		d.messageInto(&f.Msg, payload, mode)
		f.Dispatched = time.Duration(d.u64())
	case TypeReplicate:
		d.messageInto(&f.Msg, payload, mode)
		f.ArrivedPrimary = time.Duration(d.u64())
	case TypePrune, TypeCancel, TypePubAck:
		f.Topic = spec.TopicID(d.u32())
		f.Seq = d.u64()
	case TypePoll, TypePollReply:
		f.Nonce = d.u64()
	case TypeHello:
		f.Role = Role(d.u8())
		n := int(d.u16())
		f.Name = string(d.bytes(n))
	case TypeSubscribe:
		n := d.u32()
		if n > MaxTopics {
			return fmt.Errorf("%w: %d topics", ErrTooLarge, n)
		}
		if d.err == nil {
			for i := uint32(0); i < n; i++ {
				topics = append(topics, spec.TopicID(d.u32()))
			}
			f.Topics = topics
		}
	case TypeTimeReq:
		f.Nonce = d.u64()
		f.T1 = time.Duration(d.u64())
	case TypeTimeResp:
		f.Nonce = d.u64()
		f.T1 = time.Duration(d.u64())
		f.T2 = time.Duration(d.u64())
		f.T3 = time.Duration(d.u64())
	case TypeRouteReq:
		f.Nonce = d.u64()
	case TypeRouteResp:
		f.Nonce = d.u64()
		f.Epoch = d.u64()
		n := d.u32()
		if n > MaxShards {
			return fmt.Errorf("%w: %d shards", ErrTooLarge, n)
		}
		if d.err == nil {
			for i := uint32(0); i < n && d.err == nil; i++ {
				shards = append(shards, d.shardEntry())
			}
			f.Shards = shards
		}
	case TypeWrongShard:
		f.Topic = spec.TopicID(d.u32())
		f.Epoch = d.u64()
	case TypePromoted:
	default:
		return fmt.Errorf("%w: %d", ErrBadType, t)
	}
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != d.off {
		return fmt.Errorf("wire: %d trailing bytes after %v frame", len(d.buf)-d.off, f.Type)
	}
	return nil
}

// messageInto decodes a message body into m, its payload copied into the
// caller-supplied storage (ModeCopy) or aliased into the input (ModeAlias).
func (d *decoder) messageInto(m *Message, payload []byte, mode DecodeMode) {
	m.Topic = spec.TopicID(d.u32())
	m.Seq = d.u64()
	m.Created = time.Duration(d.u64())
	n := d.u32()
	if n > MaxPayload {
		d.err = fmt.Errorf("%w: payload %d bytes", ErrTooLarge, n)
		return
	}
	if !d.need(int(n)) {
		return
	}
	src := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	if mode == ModeAlias {
		m.Payload = src
		return
	}
	m.Payload = append(payload, src...)
}

// AppendMessageBody appends the body of a Publish or Resend frame (t says
// which) for m — exactly the bytes Encode produces for Frame{Type: t, Msg: m}.
// Publishers encode each message once into a pooled buffer with it and queue
// the buffer on their uplink ring. The payload is copied, so the caller may
// reuse it as soon as this returns.
func AppendMessageBody(dst []byte, t Type, m *Message) []byte {
	dst = append(dst, byte(t))
	return encodeMessage(dst, m)
}

// AppendDispatchBody appends the body of a Dispatch frame for m — exactly
// the bytes Encode produces for Frame{Type: TypeDispatch, Msg: m,
// Dispatched: dispatched}. The gateway builds this once per message and fans
// the same bytes out to every client. Size limits are enforced where Encode
// enforces them: on the transport's send path.
func AppendDispatchBody(dst []byte, m *Message, dispatched time.Duration) []byte {
	dst = append(dst, byte(TypeDispatch))
	dst = encodeMessage(dst, m)
	return binary.LittleEndian.AppendUint64(dst, uint64(dispatched))
}

// AppendReplicateBody appends the body of a Replicate frame for m with the
// original Primary arrival time tp.
func AppendReplicateBody(dst []byte, m *Message, arrivedPrimary time.Duration) []byte {
	dst = append(dst, byte(TypeReplicate))
	dst = encodeMessage(dst, m)
	return binary.LittleEndian.AppendUint64(dst, uint64(arrivedPrimary))
}

// AppendPruneBody appends the body of a Prune frame for (topic, seq).
func AppendPruneBody(dst []byte, topic spec.TopicID, seq uint64) []byte {
	dst = append(dst, byte(TypePrune))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(topic))
	return binary.LittleEndian.AppendUint64(dst, seq)
}

// AppendPubAckBody appends the body of a PubAck frame for (topic, seq),
// the durable broker's "your publish is on stable storage" answer.
func AppendPubAckBody(dst []byte, topic spec.TopicID, seq uint64) []byte {
	dst = append(dst, byte(TypePubAck))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(topic))
	return binary.LittleEndian.AppendUint64(dst, seq)
}

// AppendPromotedBody appends the body of a Promoted frame, the promoted
// Backup's notice to a publisher that it is the Primary now.
func AppendPromotedBody(dst []byte) []byte {
	return append(dst, byte(TypePromoted))
}
