package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/spec"
)

func roundTrip(t *testing.T, f *Frame) *Frame {
	t.Helper()
	buf, err := Encode(nil, f)
	if err != nil {
		t.Fatalf("Encode(%v): %v", f.Type, err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode(%v): %v", f.Type, err)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
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
			{Primary: "shard1-primary:7003", Backup: ""}, // pair that lost its Backup
		}},
		{Type: TypeWrongShard, Topic: 42, Epoch: 3},
		{Type: TypePubAck, Topic: 7, Seq: 88},
		{Type: TypePromoted},
	}
	for _, f := range frames {
		t.Run(f.Type.String(), func(t *testing.T) {
			got := roundTrip(t, f)
			if !reflect.DeepEqual(got, f) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, f)
			}
		})
	}
}

func TestRoundTripEmptyPayloadAndTopics(t *testing.T) {
	got := roundTrip(t, &Frame{Type: TypePublish, Msg: Message{Topic: 1, Seq: 1}})
	if len(got.Msg.Payload) != 0 {
		t.Errorf("payload = %v, want empty", got.Msg.Payload)
	}
	got = roundTrip(t, &Frame{Type: TypeSubscribe})
	if len(got.Topics) != 0 {
		t.Errorf("topics = %v, want empty", got.Topics)
	}
	got = roundTrip(t, &Frame{Type: TypeHello, Role: RoleBrokerPeer})
	if got.Name != "" {
		t.Errorf("name = %q, want empty", got.Name)
	}
	got = roundTrip(t, &Frame{Type: TypeRouteResp, Nonce: 1, Epoch: 2})
	if len(got.Shards) != 0 {
		t.Errorf("shards = %v, want empty", got.Shards)
	}
}

func TestDecodeRejectsUnknownType(t *testing.T) {
	if _, err := Decode([]byte{0xFF}); !errors.Is(err, ErrBadType) {
		t.Errorf("err = %v, want ErrBadType", err)
	}
	if _, err := Decode([]byte{0}); !errors.Is(err, ErrBadType) {
		t.Errorf("err = %v, want ErrBadType", err)
	}
}

func TestEncodeRejectsUnknownType(t *testing.T) {
	if _, err := Encode(nil, &Frame{Type: Type(99)}); !errors.Is(err, ErrBadType) {
		t.Errorf("err = %v, want ErrBadType", err)
	}
}

func TestDecodeRejectsEmpty(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestDecodeRejectsTruncations(t *testing.T) {
	full, err := Encode(nil, &Frame{
		Type: TypeDispatch,
		Msg:  Message{Topic: 3, Seq: 4, Created: time.Millisecond, Payload: []byte("abcdef")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		if _, err := Decode(full[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", cut)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	full, err := Encode(nil, &Frame{Type: TypePoll, Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(full, 0x00)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestDecodeRejectsOversizedDeclaredLengths(t *testing.T) {
	// A publish frame whose declared payload length exceeds MaxPayload.
	buf := []byte{byte(TypePublish)}
	buf = append(buf, make([]byte, 4+8+8)...) // topic, seq, created
	buf = append(buf, 0xFF, 0xFF, 0xFF, 0xFF) // length = 2^32-1
	if _, err := Decode(buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
	// A subscribe frame declaring more topics than MaxTopics.
	buf = []byte{byte(TypeSubscribe), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := Decode(buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
	// A route response declaring more shards than MaxShards.
	buf = []byte{byte(TypeRouteResp)}
	buf = append(buf, make([]byte, 8+8)...)   // nonce, epoch
	buf = append(buf, 0xFF, 0xFF, 0xFF, 0xFF) // count = 2^32-1
	if _, err := Decode(buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
	// A shard entry declaring an address longer than MaxAddr.
	buf = []byte{byte(TypeRouteResp)}
	buf = append(buf, make([]byte, 8+8)...)   // nonce, epoch
	buf = append(buf, 0x01, 0x00, 0x00, 0x00) // count = 1
	buf = append(buf, 0xFF, 0xFF)             // primary length = 65535
	if _, err := Decode(buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestEncodeRejectsOversizedShardTable(t *testing.T) {
	f := &Frame{Type: TypeRouteResp, Shards: make([]ShardEntry, MaxShards+1)}
	if _, err := Encode(nil, f); !errors.Is(err, ErrTooLarge) {
		t.Errorf("shard count: err = %v, want ErrTooLarge", err)
	}
	f = &Frame{Type: TypeRouteResp, Shards: []ShardEntry{{Primary: string(make([]byte, MaxAddr+1))}}}
	if _, err := Encode(nil, f); !errors.Is(err, ErrTooLarge) {
		t.Errorf("address length: err = %v, want ErrTooLarge", err)
	}
}

func TestEncodeRejectsOversizedName(t *testing.T) {
	f := &Frame{Type: TypeHello, Role: RolePublisher, Name: string(make([]byte, MaxName+1))}
	if _, err := Encode(nil, f); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestDecodeDoesNotAliasInput(t *testing.T) {
	f := &Frame{Type: TypePublish, Msg: Message{Topic: 1, Seq: 1, Payload: []byte("aaaa")}}
	buf, err := Encode(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	if !bytes.Equal(got.Msg.Payload, []byte("aaaa")) {
		t.Error("decoded payload aliases input buffer")
	}
}

func TestEncodeAppends(t *testing.T) {
	prefix := []byte("prefix")
	buf, err := Encode(prefix, &Frame{Type: TypePoll, Nonce: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, prefix) {
		t.Error("Encode did not append to dst")
	}
	got, err := Decode(buf[len(prefix):])
	if err != nil || got.Nonce != 5 {
		t.Errorf("decode after prefix: %+v, %v", got, err)
	}
}

func TestTypeAndRoleStrings(t *testing.T) {
	if TypePublish.String() != "PUBLISH" || TypePrune.String() != "PRUNE" {
		t.Error("type labels wrong")
	}
	if Type(200).String() != "Type(200)" {
		t.Error("unknown type label wrong")
	}
	if RoleSubscriber.String() != "subscriber" || Role(9).String() != "Role(9)" {
		t.Error("role labels wrong")
	}
}

// randomFrame builds a valid random frame for property testing.
func randomFrame(rng *rand.Rand) *Frame {
	msg := Message{
		Topic:   spec.TopicID(rng.Uint32()),
		Seq:     rng.Uint64(),
		Created: time.Duration(rng.Int63()),
		Payload: randBytes(rng, rng.Intn(64)),
	}
	switch Type(rng.Intn(int(maxType)) + 1) {
	case TypePublish:
		return &Frame{Type: TypePublish, Msg: msg}
	case TypeResend:
		return &Frame{Type: TypeResend, Msg: msg}
	case TypeDispatch:
		return &Frame{Type: TypeDispatch, Msg: msg, Dispatched: time.Duration(rng.Int63())}
	case TypeReplicate:
		return &Frame{Type: TypeReplicate, Msg: msg, ArrivedPrimary: time.Duration(rng.Int63())}
	case TypePrune:
		return &Frame{Type: TypePrune, Topic: spec.TopicID(rng.Uint32()), Seq: rng.Uint64()}
	case TypeCancel:
		return &Frame{Type: TypeCancel, Topic: spec.TopicID(rng.Uint32()), Seq: rng.Uint64()}
	case TypePoll:
		return &Frame{Type: TypePoll, Nonce: rng.Uint64()}
	case TypePollReply:
		return &Frame{Type: TypePollReply, Nonce: rng.Uint64()}
	case TypeHello:
		return &Frame{Type: TypeHello, Role: Role(rng.Intn(3) + 1), Name: string(randBytes(rng, rng.Intn(32)))}
	case TypeTimeReq:
		return &Frame{Type: TypeTimeReq, Nonce: rng.Uint64(), T1: time.Duration(rng.Int63())}
	case TypeTimeResp:
		return &Frame{Type: TypeTimeResp, Nonce: rng.Uint64(), T1: time.Duration(rng.Int63()), T2: time.Duration(rng.Int63()), T3: time.Duration(rng.Int63())}
	case TypeRouteReq:
		return &Frame{Type: TypeRouteReq, Nonce: rng.Uint64()}
	case TypeRouteResp:
		n := rng.Intn(8)
		shards := make([]ShardEntry, 0, n)
		for i := 0; i < n; i++ {
			shards = append(shards, ShardEntry{
				Primary: string(randBytes(rng, rng.Intn(24))),
				Backup:  string(randBytes(rng, rng.Intn(24))),
			})
		}
		return &Frame{Type: TypeRouteResp, Nonce: rng.Uint64(), Epoch: rng.Uint64(), Shards: shards}
	case TypeWrongShard:
		return &Frame{Type: TypeWrongShard, Topic: spec.TopicID(rng.Uint32()), Epoch: rng.Uint64()}
	case TypePubAck:
		return &Frame{Type: TypePubAck, Topic: spec.TopicID(rng.Uint32()), Seq: rng.Uint64()}
	case TypePromoted:
		return &Frame{Type: TypePromoted}
	default:
		n := rng.Intn(16)
		topics := make([]spec.TopicID, 0, n)
		for i := 0; i < n; i++ {
			topics = append(topics, spec.TopicID(rng.Uint32()))
		}
		return &Frame{Type: TypeSubscribe, Topics: topics}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestRoundTripProperty: every randomly generated frame survives
// encode→decode byte-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := randomFrame(rng)
		buf, err := Encode(nil, orig)
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		// Normalize nil vs empty for comparison.
		if len(got.Msg.Payload) == 0 {
			got.Msg.Payload = nil
		}
		if len(orig.Msg.Payload) == 0 {
			orig.Msg.Payload = nil
		}
		if len(got.Topics) == 0 {
			got.Topics = nil
		}
		if len(orig.Topics) == 0 {
			orig.Topics = nil
		}
		if len(got.Shards) == 0 {
			got.Shards = nil
		}
		if len(orig.Shards) == 0 {
			orig.Shards = nil
		}
		return reflect.DeepEqual(got, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDecodeNeverPanicsOnGarbage: arbitrary bytes either decode or error.
func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	f := func(buf []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", buf, r)
			}
		}()
		_, _ = Decode(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodePublish(b *testing.B) {
	f := &Frame{Type: TypePublish, Msg: Message{Topic: 1, Seq: 1, Created: time.Millisecond, Payload: make([]byte, 16)}}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Encode(buf[:0], f)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePublish(b *testing.B) {
	buf, err := Encode(nil, &Frame{Type: TypePublish, Msg: Message{Topic: 1, Seq: 1, Created: time.Millisecond, Payload: make([]byte, 16)}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
