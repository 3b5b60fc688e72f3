// Edge cases of the routing plane's failure containment: a Directory
// gone wrong (empty tables, stray frames) must never erase a client's
// working routes, and the cluster-wide subscriber must absorb the
// duplicate low-sequence stream a re-homed topic legally produces.
package cluster

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// scriptedDirectory is a fake routing plane: it speaks just enough of the
// protocol to answer RouteReq, with the served table chosen per request by
// the script function. It lets tests serve tables a real Directory
// refuses to hold (empty ones) and interleave stray frames.
type scriptedDirectory struct {
	ln     interface{ Close() error }
	script func(req int) (uint64, []wire.ShardEntry)
}

func startScriptedDirectory(t *testing.T, n transport.Network, addr string, script func(req int) (uint64, []wire.ShardEntry)) *scriptedDirectory {
	t.Helper()
	ln, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	d := &scriptedDirectory{ln: ln, script: script}
	var req atomic.Int64
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conn := transport.NewConn(nc)
			go func() {
				defer conn.Close()
				for {
					f, err := conn.Recv()
					if err != nil {
						return
					}
					if f.Type != wire.TypeRouteReq {
						continue
					}
					epoch, shards := script(int(req.Add(1)))
					// A stray frame first: fetch must skip frames that are
					// not its RouteResp (wrong type, then wrong nonce).
					_ = conn.Send(&wire.Frame{Type: wire.TypePollReply, Nonce: f.Nonce})
					_ = conn.Send(&wire.Frame{Type: wire.TypeRouteResp, Nonce: f.Nonce + 1000, Epoch: 1, Shards: nil})
					if err := conn.Send(&wire.Frame{Type: wire.TypeRouteResp, Nonce: f.Nonce, Epoch: epoch, Shards: shards}); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return d
}

// TestRouterRefusesEmptyTable serves a good two-shard table once and then
// a strictly-newer empty one. The cache must keep the working routes: an
// empty table routes nothing, so installing it would turn a routing-plane
// bug into a full outage (the guard mirrors Publisher.rehome's).
func TestRouterRefusesEmptyTable(t *testing.T) {
	n := transport.NewMem()
	good := []wire.ShardEntry{{Primary: "p0", Backup: "b0"}, {Primary: "p1", Backup: "b1"}}
	startScriptedDirectory(t, n, "dir", func(req int) (uint64, []wire.ShardEntry) {
		if req == 1 {
			return 1, good
		}
		return 99, nil // a "newer" table that would erase every route
	})

	r, err := NewRouter(RouterOptions{DirectoryAddr: "dir", Network: n, Logger: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Table(); got.Epoch != 1 || len(got.Shards) != 2 {
		t.Fatalf("initial table = epoch %d, %d shards; want epoch 1, 2 shards", got.Epoch, len(got.Shards))
	}

	got, err := r.Refresh()
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if got.Epoch != 1 || len(got.Shards) != 2 {
		t.Fatalf("after empty refresh: epoch %d, %d shards; want the cached epoch-1 table intact", got.Epoch, len(got.Shards))
	}

	// The in-band path — a WrongShard redirect advertising epoch 99, on
	// which a publisher's refresher calls Refresh whatever the epoch — must
	// hit the same guard.
	if _, err := r.Refresh(); err != nil {
		t.Fatalf("refresh after a redirect: %v", err)
	}
	if got := r.Table(); got.Epoch != 1 || len(got.Shards) != 2 {
		t.Fatalf("after the redirect's refresh: epoch %d, %d shards; want the cached table intact", got.Epoch, len(got.Shards))
	}
	if e := r.Epoch(); e != 1 {
		t.Fatalf("epoch = %d, want 1", e)
	}
}

// TestNewRouterRejectsEmptyFirstFetch points a fresh Router at a plane
// that only ever serves empty tables: construction must fail rather than
// hand callers a router that routes nothing.
func TestNewRouterRejectsEmptyFirstFetch(t *testing.T) {
	n := transport.NewMem()
	startScriptedDirectory(t, n, "empty-dir", func(int) (uint64, []wire.ShardEntry) {
		return 7, nil
	})
	if _, err := NewRouter(RouterOptions{DirectoryAddr: "empty-dir", Network: n, Logger: quietLog()}); err == nil {
		t.Fatal("NewRouter accepted a directory serving an empty table")
	} else if !strings.Contains(err.Error(), "empty routing table") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestNewRouterValidation covers the cheap construction failures.
func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(RouterOptions{DirectoryAddr: "dir"}); err == nil {
		t.Fatal("NewRouter accepted a nil network")
	}
	n := transport.NewMem()
	if _, err := NewRouter(RouterOptions{DirectoryAddr: "nobody-home", Network: n, Logger: quietLog()}); err == nil {
		t.Fatal("NewRouter accepted an unreachable directory")
	}
}

// TestDirectoryServeToleratesStrays drives the real Directory's session
// loop with the frame types the wild sends it: Hello (session setup), a
// liveness Poll, a frame that has no business on the routing plane, and
// finally a RouteReq that must still be answered.
func TestDirectoryServeToleratesStrays(t *testing.T) {
	n := transport.NewMem()
	d := startDirectory(t, n, threePairs())
	defer d.Close()

	nc, err := n.Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(nc)
	defer conn.Close()
	// Mem pipes rendezvous on every write, so the sender must not block the
	// reader: pump the frames from a goroutine while the test drains replies.
	go func() {
		for _, f := range []*wire.Frame{
			{Type: wire.TypeHello, Role: wire.RoleSubscriber, Name: "stray-test"},
			{Type: wire.TypeDispatch, Topic: 1, Seq: 1},
			{Type: wire.TypePoll, Nonce: 41},
			{Type: wire.TypeRouteReq, Nonce: 42},
		} {
			if conn.Send(f) != nil {
				return
			}
		}
	}()
	sawPollReply := false
	for {
		f, err := conn.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if f.Type == wire.TypePollReply && f.Nonce == 41 {
			sawPollReply = true
			continue
		}
		if f.Type == wire.TypeRouteResp && f.Nonce == 42 {
			if len(f.Shards) != 3 {
				t.Fatalf("got %d shards, want 3", len(f.Shards))
			}
			break
		}
	}
	if !sawPollReply {
		t.Fatal("directory never answered the liveness poll")
	}
}

// TestPublisherRehomeGuards drives rehome's refusal branches directly: a
// stale epoch and a newer-but-empty table must both leave the installed
// table untouched.
func TestPublisherRehomeGuards(t *testing.T) {
	p := &Publisher{
		log:      quietLog(),
		table:    Table{Epoch: 5, Shards: threePairs()},
		topics:   map[spec.TopicID]spec.Topic{},
		topicPub: map[spec.TopicID]string{},
		pubs:     map[string]*client.Publisher{},
	}
	p.rehome(Table{Epoch: 5, Shards: threePairs()}) // not newer
	p.rehome(Table{Epoch: 9})                       // newer but empty
	if got := p.Epoch(); got != 5 {
		t.Fatalf("table epoch = %d after guarded rehomes, want 5", got)
	}

	p.closed = true
	p.rehome(Table{Epoch: 9, Shards: threePairs()}) // closed publisher: no-op
	if got := p.Epoch(); got != 5 {
		t.Fatalf("closed publisher installed a table (epoch %d)", got)
	}
}

// TestPublisherUnknownTopic covers the not-owned branches of the routing
// accessors.
func TestPublisherUnknownTopic(t *testing.T) {
	p := &Publisher{
		log:      quietLog(),
		topicPub: map[spec.TopicID]string{},
		pubs:     map[string]*client.Publisher{},
	}
	if _, err := p.Publish(99, []byte("x")); err == nil {
		t.Fatal("Publish accepted a topic the publisher does not own")
	}
	if got := p.LastSeq(99); got != 0 {
		t.Fatalf("LastSeq(unknown) = %d, want 0", got)
	}
}

// TestEndpointValidation covers the cheap constructor failures of the
// cluster-wide publisher, including the empty-table refusal against a
// hand-built empty router cache.
func TestEndpointValidation(t *testing.T) {
	n := transport.NewMem()
	emptyRouter := &Router{log: quietLog()} // zero-value cache: no shards
	topic := spec.Topic{ID: 1, Period: 20 * time.Millisecond, Deadline: time.Second,
		LossTolerance: 1, Retention: 4, Destination: spec.DestEdge}

	if _, err := NewPublisher(PublisherOptions{}); err == nil {
		t.Error("NewPublisher accepted missing router/network/clock")
	}
	if _, err := NewPublisher(PublisherOptions{Publisher: pubTemplate(n, testClock(), nil), Router: emptyRouter}); err == nil {
		t.Error("NewPublisher accepted zero topics")
	}
	if _, err := NewPublisher(PublisherOptions{Publisher: pubTemplate(n, testClock(), []spec.Topic{topic}), Router: emptyRouter}); err == nil {
		t.Error("NewPublisher accepted an empty routing table")
	}
	if _, err := NewPublisher(PublisherOptions{Publisher: pubTemplate(n, testClock(), []spec.Topic{{ID: 2}}), Router: emptyRouter}); err == nil {
		t.Error("NewPublisher accepted an invalid topic spec")
	}
}
