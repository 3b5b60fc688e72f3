// Package wire defines FRAME's message model and binary wire protocol.
//
// The paper implements FRAME inside the TAO real-time event service, where
// messages travel as CORBA events. This reproduction replaces that substrate
// with a compact, self-describing binary protocol: every unit on the wire is
// a Frame — publish, dispatch, replicate, prune (the dispatch–replicate
// coordination signal of Table 3), fail-over re-send, status polling for
// failure detection, the promoted Backup's notice to its publishers, and
// session setup.
//
// Frames are encoded little-endian with a one-byte type tag and carried over
// stream transports with a uint32 length prefix (see FrameReader/Writer in
// package transport).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/spec"
)

// Type tags a frame's meaning.
type Type uint8

// Frame types.
const (
	// TypePublish carries a fresh message from a publisher to the Primary.
	TypePublish Type = iota + 1
	// TypeResend carries a retained message re-sent by a publisher to the
	// Backup during fail-over (§III-B).
	TypeResend
	// TypeDispatch carries a message from a broker to a subscriber.
	TypeDispatch
	// TypeReplicate carries a message copy from the Primary to the Backup.
	TypeReplicate
	// TypePrune asks the Backup to set the Discard flag for a message copy
	// after the original was dispatched (Table 3).
	TypePrune
	// TypeCancel revokes a pending replication job on the Primary; it never
	// crosses hosts but is representable for symmetric tooling and logs.
	TypeCancel
	// TypePoll is the Backup's periodic liveness probe of the Primary.
	TypePoll
	// TypePollReply answers a TypePoll.
	TypePollReply
	// TypeHello opens a session and declares the peer's role and identity.
	TypeHello
	// TypeSubscribe registers interest in a set of topics.
	TypeSubscribe
	// TypeTimeReq is a clock-sync probe: the client records T1 locally and
	// sends the request (see package clocksync).
	TypeTimeReq
	// TypeTimeResp answers a TypeTimeReq with the server's receive (T2) and
	// transmit (T3) timestamps.
	TypeTimeResp
	// TypeRouteReq asks a routing-plane endpoint (the cluster directory, or
	// any broker that holds the table) for the current cluster routing table.
	TypeRouteReq
	// TypeRouteResp answers a TypeRouteReq with the epoch-versioned shard
	// table: one entry per shard, in shard-index order.
	TypeRouteResp
	// TypeWrongShard tells a publisher its frame named a topic this broker's
	// shard does not own, carrying the broker's routing epoch so the client
	// can detect a stale cached table and refresh (package cluster).
	TypeWrongShard
	// TypePubAck tells a publisher its (Topic, Seq) publish reached stable
	// storage — sent only by brokers running the opt-in durable mode, after
	// the group-commit fsync covering the record completes.
	TypePubAck
	// TypePromoted tells a publisher that the Backup it holds a standby
	// link to has promoted itself to Primary: the publisher fails over. It
	// has no body.
	TypePromoted

	maxType = TypePromoted
)

// String returns a protocol-stable label for the type.
func (t Type) String() string {
	switch t {
	case TypePublish:
		return "PUBLISH"
	case TypeResend:
		return "RESEND"
	case TypeDispatch:
		return "DISPATCH"
	case TypeReplicate:
		return "REPLICATE"
	case TypePrune:
		return "PRUNE"
	case TypeCancel:
		return "CANCEL"
	case TypePoll:
		return "POLL"
	case TypePollReply:
		return "POLL_REPLY"
	case TypeHello:
		return "HELLO"
	case TypeSubscribe:
		return "SUBSCRIBE"
	case TypeTimeReq:
		return "TIME_REQ"
	case TypeTimeResp:
		return "TIME_RESP"
	case TypeRouteReq:
		return "ROUTE_REQ"
	case TypeRouteResp:
		return "ROUTE_RESP"
	case TypeWrongShard:
		return "WRONG_SHARD"
	case TypePubAck:
		return "PUB_ACK"
	case TypePromoted:
		return "PROMOTED"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Role identifies a session peer in a Hello frame.
type Role uint8

// Session roles.
const (
	RolePublisher Role = iota + 1
	RoleSubscriber
	RoleBrokerPeer // the other broker (Primary↔Backup link)
)

// String returns the role label.
func (r Role) String() string {
	switch r {
	case RolePublisher:
		return "publisher"
	case RoleSubscriber:
		return "subscriber"
	case RoleBrokerPeer:
		return "broker-peer"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// ShardEntry is one shard's broker pair in a RouteResp table: the current
// Primary address first, then the standby Backup (empty once the pair has
// lost a member — after a promotion the promoted broker moves to Primary
// and Backup empties until an operator replaces it).
type ShardEntry struct {
	Primary string
	Backup  string
}

// Message is the payload-bearing unit: one sporadic sample of one topic.
type Message struct {
	Topic spec.TopicID
	// Seq is the topic-local sequence number assigned by the publisher,
	// starting at 1. Subscribers detect losses from gaps in Seq.
	Seq uint64
	// Created is tc: creation time at the publisher, in the synchronized
	// timebase (nanoseconds).
	Created time.Duration
	// Payload is the application payload (16 bytes in the paper's runs).
	Payload []byte
}

// Frame is the wire-level union. Exactly the fields implied by Type are
// meaningful; the rest stay zero.
type Frame struct {
	Type Type

	// Msg is set for Publish, Resend, Dispatch, and Replicate frames.
	Msg Message

	// Dispatched is td for Dispatch frames: when the broker handed the
	// message to the subscriber link (for ΔBS measurement).
	Dispatched time.Duration
	// ArrivedPrimary is tp for Replicate frames: the original arrival time
	// at the Primary, letting the Backup reconstruct deadlines on recovery.
	ArrivedPrimary time.Duration

	// Topic and Seq identify the target of Prune, Cancel, and PubAck frames.
	Topic spec.TopicID
	Seq   uint64

	// Nonce correlates Poll and PollReply frames.
	Nonce uint64

	// Role and Name describe the peer in a Hello frame.
	Role Role
	Name string

	// Topics lists subscriptions in a Subscribe frame.
	Topics []spec.TopicID

	// T1, T2, T3 are clock-sync timestamps: T1 is the client's transmit
	// time (TimeReq and echoed in TimeResp); T2 and T3 are the server's
	// receive and transmit times (TimeResp).
	T1, T2, T3 time.Duration

	// Epoch versions the cluster routing table (RouteResp), and reports the
	// replying broker's view of it in a WrongShard redirect.
	Epoch uint64
	// Shards is the routing table of a RouteResp, in shard-index order.
	Shards []ShardEntry
}

// Wire-format sanity limits. Frames larger than these are corrupt or
// hostile, not legitimate: the evaluation payload is 16 bytes and topic
// counts stay in the tens of thousands.
const (
	// MaxPayload bounds a message payload.
	MaxPayload = 1 << 20
	// MaxTopics bounds a subscription list.
	MaxTopics = 1 << 20
	// MaxName bounds a Hello name.
	MaxName = 256
	// MaxShards bounds a RouteResp shard table.
	MaxShards = 1 << 16
	// MaxAddr bounds one shard-entry address.
	MaxAddr = 256
)

// Errors returned by Decode.
var (
	ErrTruncated = errors.New("wire: truncated frame")
	ErrBadType   = errors.New("wire: unknown frame type")
	ErrTooLarge  = errors.New("wire: field exceeds limit")
)

// Encode appends the frame's encoding to dst and returns the extended slice.
// The data-path frames are the Append*Body helpers' bytes.
func Encode(dst []byte, f *Frame) ([]byte, error) {
	switch f.Type {
	case TypePublish, TypeResend:
		return AppendMessageBody(dst, f.Type, &f.Msg), nil
	case TypeDispatch:
		return AppendDispatchBody(dst, &f.Msg, f.Dispatched), nil
	case TypeReplicate:
		return AppendReplicateBody(dst, &f.Msg, f.ArrivedPrimary), nil
	case TypePrune:
		return AppendPruneBody(dst, f.Topic, f.Seq), nil
	case TypePubAck:
		return AppendPubAckBody(dst, f.Topic, f.Seq), nil
	}
	if f.Type < TypePublish || f.Type > maxType {
		return dst, fmt.Errorf("%w: %d", ErrBadType, uint8(f.Type))
	}
	dst = append(dst, byte(f.Type))
	switch f.Type {
	case TypeCancel:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Topic))
		dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	case TypePoll, TypePollReply:
		dst = binary.LittleEndian.AppendUint64(dst, f.Nonce)
	case TypeHello:
		if len(f.Name) > MaxName {
			return dst, fmt.Errorf("%w: name %d bytes", ErrTooLarge, len(f.Name))
		}
		dst = append(dst, byte(f.Role))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Name)))
		dst = append(dst, f.Name...)
	case TypeSubscribe:
		if len(f.Topics) > MaxTopics {
			return dst, fmt.Errorf("%w: %d topics", ErrTooLarge, len(f.Topics))
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Topics)))
		for _, id := range f.Topics {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
		}
	case TypeTimeReq:
		dst = binary.LittleEndian.AppendUint64(dst, f.Nonce)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.T1))
	case TypeTimeResp:
		dst = binary.LittleEndian.AppendUint64(dst, f.Nonce)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.T1))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.T2))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.T3))
	case TypeRouteReq:
		dst = binary.LittleEndian.AppendUint64(dst, f.Nonce)
	case TypeRouteResp:
		if len(f.Shards) > MaxShards {
			return dst, fmt.Errorf("%w: %d shards", ErrTooLarge, len(f.Shards))
		}
		dst = binary.LittleEndian.AppendUint64(dst, f.Nonce)
		dst = binary.LittleEndian.AppendUint64(dst, f.Epoch)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Shards)))
		for _, s := range f.Shards {
			if len(s.Primary) > MaxAddr || len(s.Backup) > MaxAddr {
				return dst, fmt.Errorf("%w: shard address", ErrTooLarge)
			}
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s.Primary)))
			dst = append(dst, s.Primary...)
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s.Backup)))
			dst = append(dst, s.Backup...)
		}
	case TypeWrongShard:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Topic))
		dst = binary.LittleEndian.AppendUint64(dst, f.Epoch)
	}
	return dst, nil
}

func encodeMessage(dst []byte, m *Message) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Topic))
	dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Created))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Payload)))
	return append(dst, m.Payload...)
}

// Decode parses one frame from buf, which must contain exactly one frame
// (the transport strips length prefixes), into a fresh Frame. It is
// DecodeInto in ModeCopy, so Payload and Topics never alias buf, and an
// empty payload, topic list or shard table decodes as nil.
func Decode(buf []byte) (*Frame, error) {
	f := new(Frame)
	if err := DecodeInto(buf, f, ModeCopy); err != nil {
		return nil, err
	}
	return f, nil
}

// decoder is a cursor over an immutable buffer; the first error sticks.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, d.off, len(d.buf))
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) bytes(n int) []byte {
	if n < 0 || !d.need(n) {
		if d.err == nil {
			d.err = fmt.Errorf("%w: negative length", ErrTruncated)
		}
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += n
	return out
}

// shardEntry decodes one RouteResp table entry, enforcing MaxAddr on both
// addresses so a corrupt length cannot force a giant allocation.
func (d *decoder) shardEntry() ShardEntry {
	var e ShardEntry
	n := int(d.u16())
	if n > MaxAddr {
		d.err = fmt.Errorf("%w: shard address %d bytes", ErrTooLarge, n)
		return e
	}
	e.Primary = string(d.bytes(n))
	n = int(d.u16())
	if n > MaxAddr {
		d.err = fmt.Errorf("%w: shard address %d bytes", ErrTooLarge, n)
		return e
	}
	e.Backup = string(d.bytes(n))
	return e
}
