// Durable publish path ("ACK = durable"), a three-stage pipeline in which no
// stage waits for the next on the session goroutine:
//
//   - read:  the session decodes a Publish and calls stageDurable;
//   - stage: the committer copies the record into its staging buffer (that
//     copy is what frees the session's receive buffer) and the session goes
//     back to its socket;
//   - ack:   once a batch's fsync has returned nil the committer goroutine
//     calls onDurable with the whole batch, which encodes one PubAck per
//     message and hands each publisher connection its acks in one run, on
//     that connection's own egress ring. The shared flushers write them.
package broker

import (
	"sync/atomic"
	"time"

	"repro/internal/diskstore"
	"repro/internal/obsv"
	"repro/internal/transport"
	"repro/internal/wire"
)

// session is the broker-side state of one accepted connection.
type session struct {
	conn *transport.Conn
	// acks is the connection's reply ring: its PubAcks, and on a promoted
	// Backup the promotion notice. It is opened under Broker.ackMu on the
	// first durable publish or notice, and never replaced; nil before that.
	acks atomic.Pointer[transport.Egress]
	// told marks a publisher session that was sent the promotion notice.
	// Guarded by Broker.ackMu.
	told bool
	// pend gathers this connection's acks while onDurable walks one batch.
	// Committer goroutine only.
	pend []*transport.FrameBuf
}

// ackLossTolerance is the loss tolerance of every PubAck: none. A full ack
// ring therefore sheds nothing and evicts the publisher at once — one that
// has stopped reading costs its own connection, never the committer's time
// or a neighbour's acks.
const ackLossTolerance = 0

// ackRingDepth is the most acks one committed batch can carry, so a
// publisher that keeps reading is never evicted by a single large batch.
const ackRingDepth = diskstore.MaxBatchWaiters

// stageDurable hands one validated publish to the group-commit writer. It
// returns as soon as the record is staged; the ack follows from onDurable.
// A log failure is deliberately not a session error: the message is already
// in flight through the in-memory plane (Table 3 replication still covers
// it), the broker just withholds the durability ack and counts it.
func (b *Broker) stageDurable(s *session, m wire.Message, arrived time.Duration) {
	if s.acks.Load() == nil {
		b.ackMu.Lock()
		b.openAckRingLocked(s)
		b.ackMu.Unlock()
	}
	w := diskstore.Waiter{Owner: s, Topic: m.Topic, Seq: m.Seq, Arrived: arrived}
	if err := b.committer.Stage(m, w); err != nil {
		b.commitFailed(1, err)
	}
}

// openAckRingLocked gives the session its reply ring, unless it has one,
// and returns it. The ring drains through the same flusher pool as the
// subscriber rings but counts into its own meter. Caller holds ackMu.
func (b *Broker) openAckRingLocked(s *session) *transport.Egress {
	if eg := s.acks.Load(); eg != nil {
		return eg
	}
	eg := transport.NewEgress(s.conn, transport.EgressConfig{
		Depth: ackRingDepth,
		Shed:  true,
		Stall: b.opts.EgressWriteTimeout,
		Meter: &b.ackMeter,
		Pool:  b.pool,
	})
	s.acks.Store(eg)
	return eg
}

// removeAckRing drops the session from the publishers a promotion
// notifies and returns its reply ring (nil if it never opened one) for the
// caller to retire.
func (b *Broker) removeAckRing(s *session) *transport.Egress {
	b.ackMu.Lock()
	defer b.ackMu.Unlock()
	delete(b.publishers, s)
	return s.acks.Load()
}

// onDurable is the committer's completion callback: it runs on the
// committer goroutine, once per batch, after the fsync covering every record
// of the batch has returned (err == nil) or the log has failed. Nothing in
// it blocks on a publisher: acks are enqueued, never written, here.
func (b *Broker) onDurable(batch []diskstore.Waiter, err error) {
	if err != nil {
		b.commitFailed(len(batch), err)
		return
	}
	now := b.opts.Clock()
	touched := b.ackTouched[:0]
	for i := range batch {
		w := &batch[i]
		s := w.Owner.(*session)
		b.obs.StageDurable.Observe(now - w.Arrived)
		b.obs.Trace(obsv.TraceEvent{Stage: obsv.StageDurable, Topic: uint64(w.Topic), Seq: w.Seq, At: now})
		if s.acks.Load() == nil {
			continue
		}
		fb := transport.GetFrameBuf()
		fb.B = wire.AppendPubAckBody(fb.B[:0], w.Topic, w.Seq)
		if len(s.pend) == 0 {
			touched = append(touched, s)
		}
		s.pend = append(s.pend, fb)
	}
	b.durableAcks.Add(uint64(len(batch)))
	for _, s := range touched {
		if s.acks.Load().EnqueueBatch(s.pend, ackLossTolerance) == transport.EnqueueEvicted {
			b.log.Warn("publisher evicted: it stopped reading its durable acks",
				"addr", s.conn.RemoteAddr())
		}
		clear(s.pend)
		s.pend = s.pend[:0]
	}
	clear(touched)
	b.ackTouched = touched[:0]
}

// commitFailed accounts n publishes whose durability ack is withheld
// because the log failed. The failure is sticky in the committer, so it is
// logged once, on the transition, and counted from then on.
func (b *Broker) commitFailed(n int, err error) {
	b.commitFailures.Add(uint64(n))
	if b.commitDown.CompareAndSwap(false, true) {
		b.log.Warn("durable commit failed; withholding durable acks from here on", "err", err)
	}
}
