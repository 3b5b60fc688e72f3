package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/racedetect"
	"repro/internal/spec"
)

// checkInPlaceFrames takes the broker's path for one message — the session's
// copy, then a Replicate and a Dispatch frame written into that same buffer —
// and holds each against the encoder it replaces.
func checkInPlaceFrames(t *testing.T, m Message, arrived, dispatched time.Duration) {
	t.Helper()
	want := append([]byte(nil), m.Payload...)
	src := m
	fb := CopyMessage(TypePublish, &m)
	defer fb.Release()
	for i := range src.Payload {
		src.Payload[i] ^= 0xFF // the receive window moves on
	}
	if !bytes.Equal(m.Payload, want) || (len(want) > 0 && &m.Payload[0] != &fb.B[MsgHeaderLen]) {
		t.Fatalf("CopyMessage left the payload at %q, want a copy of %q inside the buffer", m.Payload, want)
	}
	if publish := AppendMessageBody(nil, TypePublish, &m); !bytes.Equal(fb.B, publish) {
		t.Fatalf("copied body\n %x\nwant the Publish body\n %x", fb.B, publish)
	}
	array := &fb.B[0]
	var got Frame
	for _, step := range []struct {
		t       Type
		trailer time.Duration
		encode  func([]byte, *Message, time.Duration) []byte
	}{
		{TypeReplicate, arrived, AppendReplicateBody},
		{TypeDispatch, dispatched, AppendDispatchBody},
		{TypeReplicate, arrived, AppendReplicateBody}, // reframing a frame, not only a bare body
	} {
		fb.Reframe(step.t, step.trailer)
		if enc := step.encode(nil, &m, step.trailer); !bytes.Equal(fb.B, enc) {
			t.Fatalf("in-place %v frame\n %x\nwant\n %x", step.t, fb.B, enc)
		}
		if &fb.B[0] != array {
			t.Fatalf("Reframe(%v) moved the buffer: CopyMessage left no room for the trailer", step.t)
		}
		if !bytes.Equal(m.Payload, want) {
			t.Fatalf("Reframe(%v) disturbed the payload", step.t)
		}
		if err := DecodeInto(fb.B, &got, ModeAlias); err != nil {
			t.Fatalf("in-place %v frame does not decode: %v", step.t, err)
		}
		if got.Type != step.t || got.Msg.Topic != m.Topic || got.Msg.Seq != m.Seq || got.Msg.Created != m.Created ||
			!bytes.Equal(got.Msg.Payload, want) || got.Dispatched+got.ArrivedPrimary != step.trailer {
			t.Fatalf("in-place %v frame decoded to %+v", step.t, got)
		}
	}
}

// TestInPlaceFramesMatchEncoders: for arbitrary messages and trailers the
// frame built in the message's own buffer is byte-identical to
// AppendDispatchBody / AppendReplicateBody, and decodes back to the message.
func TestInPlaceFramesMatchEncoders(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		size := rng.Intn(64)
		switch i % 10 {
		case 0:
			size = 0
		case 1:
			size = 1 + rng.Intn(32<<10)
		}
		payload := make([]byte, size)
		rng.Read(payload)
		m := Message{Topic: spec.TopicID(rng.Uint32()), Seq: rng.Uint64(), Created: time.Duration(rng.Int63()), Payload: payload}
		checkInPlaceFrames(t, m, time.Duration(rng.Int63()), time.Duration(rng.Int63()))
	}
}

func FuzzInPlaceFrames(f *testing.F) {
	f.Add(uint32(1), uint64(2), int64(3), int64(4), int64(5), []byte("0123456789abcdef"))
	f.Add(uint32(0), uint64(0), int64(0), int64(0), int64(0), []byte{})
	f.Fuzz(func(t *testing.T, topic uint32, seq uint64, created, arrived, dispatched int64, payload []byte) {
		if len(payload) > MaxPayload {
			return
		}
		m := Message{Topic: spec.TopicID(topic), Seq: seq, Created: time.Duration(created),
			Payload: append([]byte(nil), payload...)} // the check scribbles over it
		checkInPlaceFrames(t, m, time.Duration(arrived), time.Duration(dispatched))
	})
}

// TestFrameBufPoolHandsOutNoOversizedStorage is the pool's one capacity rule:
// whatever was released before, a request is never answered with an array
// far larger than the body it is to hold, and never with one too small.
func TestFrameBufPoolHandsOutNoOversizedStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sizes := []int{0, 13, 49, 300, frameBufSmall, frameBufSmall + 1, 16<<10 + 33, 256 << 10, MaxPayload}
	var out []*FrameBuf
	for i := 0; i < 2000; i++ {
		n := sizes[rng.Intn(len(sizes))]
		fb := GetFrameBuf(n)
		if len(fb.B) != 0 || cap(fb.B) < n {
			t.Fatalf("GetFrameBuf(%d) returned len %d cap %d", n, len(fb.B), cap(fb.B))
		}
		if c := cap(fb.B); c > frameBufSmall && c > frameBufSlack*n+frameBufSlack {
			t.Fatalf("GetFrameBuf(%d) handed out %d bytes of storage", n, c)
		}
		fb.B = fb.B[:n]
		if out = append(out, fb); len(out) == 8 {
			for _, fb := range out {
				fb.Release()
			}
			out = out[:0]
		}
	}
	for _, fb := range out {
		fb.Release()
	}
}

// TestFrameBufPoolReusesStorage: in steady state a workload of one size —
// small control frames beside large payloads included — takes nothing from
// the allocator.
func TestFrameBufPoolReusesStorage(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("sync.Pool drops entries under -race")
	}
	payload := make([]byte, 16<<10)
	m := Message{Topic: 1, Seq: 1, Payload: payload}
	round := func() {
		big := CopyMessage(TypePublish, &Message{Topic: m.Topic, Seq: m.Seq, Payload: payload})
		small := GetFrameBuf(0)
		small.B = AppendPruneBody(small.B, m.Topic, m.Seq)
		big.Reframe(TypeDispatch, 1)
		small.Release()
		big.Release()
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("%.1f allocations per message with its prune, want 0", avg)
	}
}

func TestFrameBufRefcountGuards(t *testing.T) {
	base := FrameBufRefs()
	fb := GetFrameBuf(0)
	if !fb.Exclusive() {
		t.Error("a fresh buffer is not exclusive")
	}
	fb.RetainN(2)
	if fb.Exclusive() {
		t.Error("a buffer with three holders is exclusive")
	}
	fb.Release()
	fb.Release()
	if !fb.Exclusive() || FrameBufRefs() != base+1 {
		t.Errorf("after the other holders released: exclusive %v, %d buffers out, want true and %d", fb.Exclusive(), FrameBufRefs(), base+1)
	}
	fb.Release()
	if FrameBufRefs() != base {
		t.Errorf("%d buffers out after the last release, want %d", FrameBufRefs(), base)
	}
	for _, misuse := range []struct {
		name string
		call func()
	}{{"Release", fb.Release}, {"Retain", fb.Retain}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released buffer did not panic", misuse.name)
				}
			}()
			misuse.call()
		}()
	}
}
