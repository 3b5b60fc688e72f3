package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/spec"
)

// dirtyFrame returns a frame full of stale garbage, as a reused hot-path
// frame would be: DecodeInto must overwrite every field, not just the ones
// the incoming type carries.
func dirtyFrame() *Frame {
	return &Frame{
		Type:           TypeTimeResp,
		Msg:            Message{Topic: 999, Seq: 888, Created: 777, Payload: append(make([]byte, 0, 128), "stale-payload"...)},
		Dispatched:     123,
		ArrivedPrimary: 456,
		Topic:          11,
		Seq:            22,
		Nonce:          33,
		Role:           RoleBrokerPeer,
		Name:           "stale",
		Topics:         append(make([]spec.TopicID, 0, 16), 5, 6, 7),
		T1:             1, T2: 2, T3: 3,
		Epoch:  44,
		Shards: append(make([]ShardEntry, 0, 4), ShardEntry{Primary: "stale-p", Backup: "stale-b"}),
	}
}

// assertEquivalent checks that a DecodeInto result carries exactly the same
// information as Decode's by re-encoding both: the codec is canonical
// (FuzzDecode), so byte equality is field equality without tripping over
// nil-vs-empty slice differences between the two decoders.
func assertEquivalent(t *testing.T, buf []byte, got *Frame) {
	t.Helper()
	want, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	wantBytes, err := Encode(nil, want)
	if err != nil {
		t.Fatalf("re-encode Decode result: %v", err)
	}
	gotBytes, err := Encode(nil, got)
	if err != nil {
		t.Fatalf("re-encode DecodeInto result: %v", err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("DecodeInto disagrees with Decode:\n got  %x\n want %x", gotBytes, wantBytes)
	}
}

func TestDecodeIntoEquivalenceAllTypes(t *testing.T) {
	msg := Message{Topic: 42, Seq: 9, Created: 123456 * time.Nanosecond, Payload: []byte("0123456789abcdef")}
	frames := []*Frame{
		{Type: TypePublish, Msg: msg},
		{Type: TypeResend, Msg: msg},
		{Type: TypeDispatch, Msg: msg, Dispatched: 999 * time.Microsecond},
		{Type: TypeReplicate, Msg: msg, ArrivedPrimary: 5 * time.Millisecond},
		{Type: TypePrune, Topic: 7, Seq: 88},
		{Type: TypeCancel, Topic: 8, Seq: 99},
		{Type: TypePoll, Nonce: 0xDEADBEEF},
		{Type: TypePollReply, Nonce: 0xDEADBEEF},
		{Type: TypeHello, Role: RolePublisher, Name: "edge-proxy-1"},
		{Type: TypeSubscribe, Topics: []spec.TopicID{1, 2, 3, 100000}},
		{Type: TypeTimeReq, Nonce: 5, T1: 100 * time.Millisecond},
		{Type: TypeTimeResp, Nonce: 5, T1: 100 * time.Millisecond, T2: 101 * time.Millisecond, T3: 102 * time.Millisecond},
		{Type: TypeRouteReq, Nonce: 77},
		{Type: TypeRouteResp, Nonce: 77, Epoch: 3, Shards: []ShardEntry{
			{Primary: "shard0-primary:7001", Backup: "shard0-backup:7002"},
			{Primary: "shard1-primary:7003"},
		}},
		{Type: TypeWrongShard, Topic: 42, Epoch: 3},
		{Type: TypePromoted},
	}
	for _, f := range frames {
		for _, mode := range []DecodeMode{ModeCopy, ModeAlias} {
			name := f.Type.String() + "/copy"
			if mode == ModeAlias {
				name = f.Type.String() + "/alias"
			}
			t.Run(name, func(t *testing.T) {
				buf, err := Encode(nil, f)
				if err != nil {
					t.Fatal(err)
				}
				dst := dirtyFrame()
				if err := DecodeInto(buf, dst, mode); err != nil {
					t.Fatalf("DecodeInto: %v", err)
				}
				assertEquivalent(t, buf, dst)
			})
		}
	}
}

// TestDecodeIntoEquivalenceProperty: random frames decoded into dirty reused
// targets agree with Decode in both modes.
func TestDecodeIntoEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	copyDst, aliasDst := dirtyFrame(), dirtyFrame()
	for i := 0; i < 500; i++ {
		orig := randomFrame(rng)
		buf, err := Encode(nil, orig)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(buf, copyDst, ModeCopy); err != nil {
			t.Fatalf("DecodeInto(copy, %v): %v", orig.Type, err)
		}
		assertEquivalent(t, buf, copyDst)
		if err := DecodeInto(buf, aliasDst, ModeAlias); err != nil {
			t.Fatalf("DecodeInto(alias, %v): %v", orig.Type, err)
		}
		assertEquivalent(t, buf, aliasDst)
	}
}

func TestDecodeIntoCopyDoesNotAlias(t *testing.T) {
	buf, err := Encode(nil, &Frame{Type: TypePublish, Msg: Message{Topic: 1, Seq: 1, Payload: []byte("aaaa")}})
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := DecodeInto(buf, &f, ModeCopy); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	if !bytes.Equal(f.Msg.Payload, []byte("aaaa")) {
		t.Error("ModeCopy payload aliases the input buffer")
	}
}

func TestDecodeIntoAliasPointsIntoInput(t *testing.T) {
	buf, err := Encode(nil, &Frame{Type: TypePublish, Msg: Message{Topic: 1, Seq: 1, Payload: []byte("aaaa")}})
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := DecodeInto(buf, &f, ModeAlias); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Msg.Payload, []byte("aaaa")) {
		t.Fatalf("payload = %q", f.Msg.Payload)
	}
	// Mutating the input must show through the alias — that is the contract
	// callers opt into with ModeAlias.
	copy(buf[len(buf)-4:], "bbbb")
	if !bytes.Equal(f.Msg.Payload, []byte("bbbb")) {
		t.Error("ModeAlias payload does not alias the input buffer")
	}
}

// TestDecodeIntoCopySteadyStateAllocs: once the destination frame's buffers
// have grown to the workload size, ModeCopy decoding allocates nothing.
func TestDecodeIntoCopySteadyStateAllocs(t *testing.T) {
	buf, err := Encode(nil, &Frame{
		Type: TypeDispatch,
		Msg:  Message{Topic: 3, Seq: 4, Created: time.Millisecond, Payload: make([]byte, 256)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := DecodeInto(buf, &f, ModeCopy); err != nil {
		t.Fatal(err) // warm-up grows f's payload storage
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeInto(buf, &f, ModeCopy); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state ModeCopy DecodeInto allocates %.1f/op, want 0", allocs)
	}
}

func TestDecodeIntoRejectsBadInput(t *testing.T) {
	var f Frame
	if err := DecodeInto(nil, &f, ModeCopy); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty: err = %v, want ErrTruncated", err)
	}
	if err := DecodeInto([]byte{0xFF}, &f, ModeCopy); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type: err = %v, want ErrBadType", err)
	}
	full, err := Encode(nil, &Frame{Type: TypePoll, Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeInto(append(full, 0x00), &f, ModeCopy); err == nil {
		t.Error("trailing byte accepted")
	}
	full, err = Encode(nil, &Frame{
		Type: TypeDispatch,
		Msg:  Message{Topic: 3, Seq: 4, Created: time.Millisecond, Payload: []byte("abcdef")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		if err := DecodeInto(full[:cut], &f, ModeAlias); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", cut)
		}
	}
}

// TestDecodeIntoRejectsWhatDecodeRejects: the two decoders accept exactly
// the same input set, probed with structured near-valid garbage.
func TestDecodeIntoRejectsWhatDecodeRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dst := dirtyFrame()
	for i := 0; i < 2000; i++ {
		n := rng.Intn(40)
		buf := make([]byte, n)
		rng.Read(buf)
		if n > 0 {
			buf[0] = byte(rng.Intn(int(maxType) + 3)) // bias toward real types
		}
		_, decErr := Decode(buf)
		intoErr := DecodeInto(buf, dst, DecodeMode(rng.Intn(2)))
		if (decErr == nil) != (intoErr == nil) {
			t.Fatalf("accept mismatch on %x: Decode err=%v, DecodeInto err=%v", buf, decErr, intoErr)
		}
		if decErr == nil {
			assertEquivalent(t, buf, dst)
		}
	}
}

// TestAppendBodyHelpersMatchEncode: the Append*Body fast paths must produce
// byte-identical output to Encode for the corresponding frame, or receivers
// would see different frames depending on which send path the broker took.
func TestAppendBodyHelpersMatchEncode(t *testing.T) {
	m := Message{Topic: 42, Seq: 9, Created: 123456, Payload: []byte("0123456789abcdef")}
	prefix := []byte("prefix") // helpers append, like Encode

	want, err := Encode(nil, &Frame{Type: TypeDispatch, Msg: m, Dispatched: 999 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	got := AppendDispatchBody(append([]byte(nil), prefix...), &m, 999*time.Microsecond)
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Errorf("AppendDispatchBody:\n got  %x\n want %x", got, want)
	}

	want, err = Encode(nil, &Frame{Type: TypeReplicate, Msg: m, ArrivedPrimary: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	got = AppendReplicateBody(nil, &m, 5*time.Millisecond)
	if !bytes.Equal(got, want) {
		t.Errorf("AppendReplicateBody:\n got  %x\n want %x", got, want)
	}

	want, err = Encode(nil, &Frame{Type: TypePrune, Topic: 7, Seq: 88})
	if err != nil {
		t.Fatal(err)
	}
	got = AppendPruneBody(nil, 7, 88)
	if !bytes.Equal(got, want) {
		t.Errorf("AppendPruneBody:\n got  %x\n want %x", got, want)
	}

	want, err = Encode(nil, &Frame{Type: TypePromoted})
	if err != nil {
		t.Fatal(err)
	}
	if got = AppendPromotedBody(nil); !bytes.Equal(got, want) || len(got) != 1 {
		t.Errorf("AppendPromotedBody:\n got  %x\n want %x (the type byte alone)", got, want)
	}

	for _, typ := range []Type{TypePublish, TypeResend} {
		want, err = Encode(nil, &Frame{Type: typ, Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		got = AppendMessageBody(nil, typ, &m)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendMessageBody(%v):\n got  %x\n want %x", typ, got, want)
		}
	}
}

// TestAppendBodyRoundTrip: helper-built bodies decode back to the frames
// they stand for, via both Decode and DecodeInto.
func TestAppendBodyRoundTrip(t *testing.T) {
	m := Message{Topic: 3, Seq: 17, Created: time.Second, Payload: []byte("xyz")}
	body := AppendDispatchBody(nil, &m, 2*time.Millisecond)
	f, err := Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != TypeDispatch || f.Msg.Seq != 17 || f.Dispatched != 2*time.Millisecond {
		t.Errorf("dispatch round trip: %+v", f)
	}
	var ff Frame
	if err := DecodeInto(AppendPruneBody(nil, 9, 100), &ff, ModeAlias); err != nil {
		t.Fatal(err)
	}
	if ff.Type != TypePrune || ff.Topic != 9 || ff.Seq != 100 {
		t.Errorf("prune round trip: %+v", ff)
	}
}

func BenchmarkDecodeIntoCopy(b *testing.B) {
	buf, err := Encode(nil, &Frame{Type: TypeDispatch, Msg: Message{Topic: 1, Seq: 1, Created: time.Millisecond, Payload: make([]byte, 256)}, Dispatched: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	var f Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(buf, &f, ModeCopy); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeIntoAlias(b *testing.B) {
	buf, err := Encode(nil, &Frame{Type: TypeDispatch, Msg: Message{Topic: 1, Seq: 1, Created: time.Millisecond, Payload: make([]byte, 256)}, Dispatched: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	var f Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(buf, &f, ModeAlias); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendDispatchBody(b *testing.B) {
	m := Message{Topic: 1, Seq: 1, Created: time.Millisecond, Payload: make([]byte, 256)}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendDispatchBody(buf[:0], &m, time.Millisecond)
	}
}
