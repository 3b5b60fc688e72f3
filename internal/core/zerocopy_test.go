package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/wire"
)

// received stands in for the broker session: m's payload aliases a transport
// receive window (rbuf), and the session makes the broker's one copy of it
// with wire.CopyMessage before the engine sees the message.
func received(topic spec.TopicID, seq uint64, rbuf []byte) (wire.Message, *wire.FrameBuf) {
	m := wire.Message{Topic: topic, Seq: seq, Created: time.Duration(seq), Payload: rbuf}
	buf := wire.CopyMessage(wire.TypePublish, &m)
	return m, buf
}

// nextKind pops work until one of the wanted kind appears, completing (and
// releasing) the others, and returns it still holding its reference.
func nextKind(t *testing.T, e *Engine, kind WorkKind) Work {
	t.Helper()
	for {
		w, ok := e.NextWorkLane(0)
		if !ok {
			t.Fatalf("no work of kind %d", kind)
		}
		if w.Kind == kind {
			return w
		}
		done(e, w)
	}
}

// done completes w the way the broker's dispatcher does.
func done(e *Engine, w Work) {
	switch w.Kind {
	case WorkDispatch:
		e.OnDispatched(w.Job)
	case WorkReplicate:
		e.OnReplicated(w.Job)
	}
	if w.Buf != nil {
		w.Buf.Release()
	}
}

func wantRefs(t *testing.T, base int64, what string) {
	t.Helper()
	if got := wire.FrameBufRefs(); got != base {
		t.Errorf("%s: %d buffers checked out, want %d", what, got, base)
	}
}

// TestOnPublishCopiesAliasedPayload: the copy that keeps a payload alive past
// the next read on its connection is the session's, made before OnPublishBuf;
// the engine hands that very buffer to the dispatcher, uncopied, and lets go
// of it once the message is dispatched.
func TestOnPublishCopiesAliasedPayload(t *testing.T) {
	base := wire.FrameBufRefs()
	e := newEngine(t, FRAMEConfig(timing.PaperParams()), paperTopic(t, 0, 0))
	rbuf := []byte("live-payload-aaa")
	m, buf := received(0, 1, rbuf)
	if err := e.OnPublishBuf(m, buf, 0); err != nil {
		t.Fatal(err)
	}
	copy(rbuf, "XXXXXXXXXXXXXXXX") // next frame lands in the receive window

	w := nextKind(t, e, WorkDispatch)
	if !bytes.Equal(w.Msg.Payload, []byte("live-payload-aaa")) {
		t.Errorf("dispatched payload = %q: the entry aliased the publisher's receive window", w.Msg.Payload)
	}
	if w.Buf != buf || &w.Msg.Payload[0] != &buf.B[wire.MsgHeaderLen] {
		t.Error("the dispatcher was not handed the session's buffer")
	}
	if !w.InPlace {
		t.Error("InPlace = false with no frame of the message queued")
	}
	done(e, w)
	wantRefs(t, base, "after dispatch of a topic that does not replicate")
}

// TestOnReplicaCopiesAliasedPayload: same ownership rule on the Backup —
// recovery after promotion dispatches the bytes that were replicated, not
// whatever the peer connection's window holds by then.
func TestOnReplicaCopiesAliasedPayload(t *testing.T) {
	base := wire.FrameBufRefs()
	backup := newEngine(t, FRAMEConfig(timing.PaperParams()), paperTopic(t, 2, 2))
	rbuf := []byte("replica-payload!")
	m, buf := received(2, 1, rbuf)
	if err := backup.OnReplicaBuf(m, buf, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	copy(rbuf, "XXXXXXXXXXXXXXXX")

	backup.Promote()
	w, ok := backup.NextWork()
	if !ok || w.Kind != WorkDispatch || !w.Job.Recovery {
		t.Fatalf("work = %+v, want recovery dispatch", w)
	}
	if !bytes.Equal(w.Msg.Payload, []byte("replica-payload!")) {
		t.Errorf("recovered payload = %q: backup buffer aliased the peer's receive window", w.Msg.Payload)
	}
	if w.Buf != buf || !w.InPlace {
		t.Error("the recovery dispatch was not handed the replica's buffer to send in place")
	}
	done(backup, w)
	wantRefs(t, base, "after the recovery dispatch")
}

// TestWorkReferenceSurvivesSlotReuse: a Work keeps its message's bytes while
// later publishes wrap the ring and evict the entry it came from — the race
// the concurrent broker's dispatchers face once the lane lock is released.
func TestWorkReferenceSurvivesSlotReuse(t *testing.T) {
	base := wire.FrameBufRefs()
	cfg := FRAMEConfig(timing.PaperParams())
	cfg.MessageBufferCap = 1 // every publish evicts the one before
	e := newEngine(t, cfg, paperTopic(t, 0, 0))
	m, buf := received(0, 1, []byte("first-message!!!"))
	if err := e.OnPublishBuf(m, buf, 0); err != nil {
		t.Fatal(err)
	}
	w := nextKind(t, e, WorkDispatch)
	for seq := uint64(2); seq <= 4; seq++ {
		m, buf := received(0, seq, []byte("later-message!!!"))
		if err := e.OnPublishBuf(m, buf, time.Duration(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().EvictedMessages; got != 3 {
		t.Fatalf("evicted %d entries, want 3", got)
	}
	if !bytes.Equal(w.Msg.Payload, []byte("first-message!!!")) {
		t.Errorf("payload = %q after its entry was evicted", w.Msg.Payload)
	}
	// Evicted entries let go of their buffers: the held Work and the one
	// live entry are all that is left.
	wantRefs(t, base+2, "with one Work out and one entry live")
	done(e, w)
	e.ReleaseBuffers()
	wantRefs(t, base, "after ReleaseBuffers")
}

// TestEntryReleasesAsSoonAsUnreadable walks a replicating topic through both
// job orders: the entry keeps its reference exactly until no job can be
// handed out for it again, and a second job that finds the first one's frame
// still held is told not to write in place.
func TestEntryReleasesAsSoonAsUnreadable(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cfg          Config
		first        WorkKind
		secondRuns   bool // the other job is handed out too (else coordination aborts it)
		releaseAfter int  // completed jobs after which the entry holds nothing
	}{
		{"replicate-then-dispatch", FRAMEConfig(timing.PaperParams()), WorkReplicate, true, 2},
		{"dispatch-aborts-replicate", func() Config {
			c := FCFSConfig(timing.PaperParams())
			c.ReplicateFirst = false
			return c
		}(), WorkDispatch, false, 1},
		{"uncoordinated-dispatch-then-replicate", func() Config {
			c := FCFSMinusConfig(timing.PaperParams())
			c.ReplicateFirst = false
			return c
		}(), WorkDispatch, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := wire.FrameBufRefs()
			e := newEngine(t, tc.cfg, paperTopic(t, 2, 2))
			m, buf := received(2, 1, []byte("0123456789abcdef"))
			if err := e.OnPublishBuf(m, buf, 0); err != nil {
				t.Fatal(err)
			}
			w1, ok := e.NextWork()
			if !ok || w1.Kind != tc.first || !w1.InPlace {
				t.Fatalf("first work = %+v, want kind %d in place", w1, tc.first)
			}
			// Complete the job but keep its reference, as a frame queued on
			// an egress ring would.
			queued := w1.Buf
			w1.Buf = nil
			done(e, w1)
			if got, want := queued.Exclusive(), tc.releaseAfter == 1; got != want {
				t.Errorf("after the first job: entry released = %v, want %v", got, want)
			}

			w2, ok := e.NextWork()
			if ok != tc.secondRuns {
				t.Fatalf("second work handed out = %v, want %v", ok, tc.secondRuns)
			}
			if ok {
				if w2.Kind == tc.first || w2.InPlace {
					t.Errorf("second work = kind %d, in place %v: must encode while the first frame is queued", w2.Kind, w2.InPlace)
				}
				done(e, w2)
			}
			if !queued.Exclusive() {
				t.Error("after the last job: the entry still holds its reference")
			}
			queued.Release()
			wantRefs(t, base, "after the queued frame was flushed")
		})
	}
}

// TestSecondJobWritesInPlaceOnceFirstFrameFlushed: when the first job's frame
// has left its ring before the second job is popped, the buffer is exclusive
// again and the second frame is built in place too.
func TestSecondJobWritesInPlaceOnceFirstFrameFlushed(t *testing.T) {
	base := wire.FrameBufRefs()
	e := newEngine(t, FRAMEConfig(timing.PaperParams()), paperTopic(t, 2, 2))
	m, buf := received(2, 1, []byte("0123456789abcdef"))
	if err := e.OnPublishBuf(m, buf, 0); err != nil {
		t.Fatal(err)
	}
	done(e, nextKind(t, e, WorkReplicate))
	w := nextKind(t, e, WorkDispatch)
	if !w.InPlace {
		t.Error("dispatch after a flushed replicate frame was told to encode")
	}
	done(e, w)
	wantRefs(t, base, "after both jobs")
}

// TestDiscardedAndEvictedReplicasReleaseAtOnce: the Backup Buffer lets go of
// a copy when its prune arrives (before or after the copy) and when the ring
// evicts it, and a recovery job queued before a late prune resolves to
// nothing instead of a message without bytes.
func TestDiscardedAndEvictedReplicasReleaseAtOnce(t *testing.T) {
	base := wire.FrameBufRefs()
	cfg := FRAMEConfig(timing.PaperParams())
	cfg.BackupBufferCap = 2
	backup := newEngine(t, cfg, paperTopic(t, 2, 2))
	store := func(seq uint64) {
		t.Helper()
		m, buf := received(2, seq, []byte("0123456789abcdef"))
		if err := backup.OnReplicaBuf(m, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	store(1)
	backup.OnPrune(2, 1)
	wantRefs(t, base, "after a prune found its copy")
	backup.OnPrune(2, 2)
	store(2)
	wantRefs(t, base, "after a copy found its pending prune")
	store(3)
	store(4)
	store(5) // evicts seq 3, the first live copy to go
	wantRefs(t, base+2, "with two live copies in a two-slot Backup Buffer")

	backup.Promote()     // recovery jobs for seq 4 and 5
	backup.OnPrune(2, 4) // a prune still in flight when the Primary died
	w, ok := backup.NextWork()
	if !ok || w.Msg.Seq != 5 || len(w.Msg.Payload) == 0 {
		t.Fatalf("recovery work = %+v, want seq 5 with its payload", w)
	}
	done(backup, w)
	if w, ok := backup.NextWork(); ok {
		t.Fatalf("a discarded copy was handed out for recovery: %+v", w)
	}
	wantRefs(t, base, "after recovery")
}

// TestUnknownTopicLeavesReferenceWithCaller: a rejected message is not stored,
// so its buffer stays the caller's to release.
func TestUnknownTopicLeavesReferenceWithCaller(t *testing.T) {
	base := wire.FrameBufRefs()
	e := newEngine(t, FRAMEConfig(timing.PaperParams()), paperTopic(t, 0, 0))
	m, buf := received(9, 1, []byte("0123456789abcdef"))
	if e.OnPublishBuf(m, buf, 0) == nil || e.OnReplicaBuf(m, buf, 0) == nil {
		t.Fatal("unknown topic accepted")
	}
	buf.Release()
	wantRefs(t, base, "after the caller released it")
}
