package client

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"
	"unsafe"

	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// subscribedLink starts a Subscriber against a one-connection broker stub and
// returns the broker's end of the link once the Subscribe frame is in.
func subscribedLink(t *testing.T, onDeliver func(Delivery)) *transport.Conn {
	t.Helper()
	n := transport.NewMem()
	ln, err := n.Listen("broker")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	link := make(chan *transport.Conn, 1) // one accept
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(link)
			return
		}
		conn := transport.NewConn(nc)
		for _, want := range []wire.Type{wire.TypeHello, wire.TypeSubscribe} {
			if f, err := conn.Recv(); err != nil || f.Type != want {
				t.Errorf("subscriber opened with %+v, %v; want %v", f, err, want)
			}
		}
		link <- conn
	}()
	sub, err := NewSubscriber(SubscriberOptions{
		Name: "s", Topics: []spec.TopicID{7}, BrokerAddrs: []string{"broker"},
		Network: n, Clock: clock(), Logger: quiet(), OnDeliver: onDeliver,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	conn, ok := <-link
	if !ok {
		t.Fatal("subscriber never connected")
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func dispatchBody(seq uint64, payload string) []byte {
	return wire.AppendDispatchBody(nil, &wire.Message{Topic: 7, Seq: seq, Created: 1, Payload: []byte(payload)}, 2)
}

// TestSubscriberDecodesBatchedFramesInPlace: Dispatch frames that arrive in
// one read are decoded where they lie in the receive window, and each reaches
// OnDeliver with its own bytes.
func TestSubscriberDecodesBatchedFramesInPlace(t *testing.T) {
	type seen struct {
		seq     uint64
		payload string
	}
	got := make(chan seen, 8)
	var at []uintptr // where each non-empty payload lay, in delivery order
	conn := subscribedLink(t, func(d Delivery) {
		if len(d.Msg.Payload) > 0 {
			at = append(at, uintptr(unsafe.Pointer(&d.Msg.Payload[0])))
		}
		got <- seen{d.Msg.Seq, string(d.Msg.Payload)}
	})
	want := []seen{{1, "first-payload-aaaa"}, {2, "second-bbbb"}, {3, ""}, {4, "fourth-payload-cccccccc"}}
	var batch net.Buffers
	total := 0
	for _, w := range want {
		body := dispatchBody(w.seq, w.payload)
		batch = append(batch, binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body)
		total += 4 + len(body)
	}
	// One write on the pipe, so one read on the other side.
	if err := conn.WriteBuffers(batch, len(want), total); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		select {
		case s := <-got:
			if s != w {
				t.Errorf("delivered seq %d with %q, want seq %d with %q", s.seq, s.payload, w.seq, w.payload)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("seq %d never delivered", w.seq)
		}
	}
	// In place means the second payload lies one frame further down the same
	// window than the first: trailer, length prefix and header apart.
	gap := uintptr(len(want[0].payload) + wire.MsgTrailerLen + 4 + wire.MsgHeaderLen)
	if len(at) != 3 || at[1]-at[0] != gap {
		t.Errorf("payloads at %x: want the second %d bytes behind the first, in the receive window", at, gap)
	}
}

// TestDeliveryPayloadDiesWithTheCallback pins the Delivery contract from the
// consumer's side: the payload is the link's receive window, so a slice kept
// past the callback reads whatever arrived next. Consumers copy or encode
// before returning (the gateway's fan-out does).
func TestDeliveryPayloadDiesWithTheCallback(t *testing.T) {
	var kept []byte
	delivered := make(chan string, 2)
	conn := subscribedLink(t, func(d Delivery) {
		if kept == nil {
			kept = d.Msg.Payload // against the contract
		}
		delivered <- string(d.Msg.Payload)
	})
	for seq, payload := range []string{"kept-past-return", "the-next-message"} {
		m := wire.Message{Topic: 7, Seq: uint64(seq + 1), Created: 1, Payload: []byte(payload)}
		if err := conn.Send(&wire.Frame{Type: wire.TypeDispatch, Msg: m, Dispatched: 2}); err != nil {
			t.Fatal(err)
		}
		select {
		case s := <-delivered:
			if s != payload {
				t.Fatalf("delivered %q, want %q", s, payload)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%q never delivered", payload)
		}
	}
	// Both callbacks ran on the link's one receive goroutine and the channel
	// hand-over orders them before this read.
	if !bytes.Equal(kept, []byte("the-next-message")) {
		t.Errorf("slice kept from the first delivery reads %q: the payload outlived its callback", kept)
	}
}
