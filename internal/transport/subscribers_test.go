package transport

import (
	"net"
	"slices"
	"sync"
	"testing"

	"repro/internal/spec"
)

// newTestSubscribers returns a registry on its own pool, closed (with every
// ring it still holds) when the test ends.
func newTestSubscribers(t *testing.T) *Subscribers {
	t.Helper()
	pool := NewFlusherPool(FlusherPoolConfig{Flushers: 1})
	t.Cleanup(pool.Close)
	return NewSubscribers(EgressConfig{Depth: 4, Shed: true, Pool: pool})
}

// subConn returns one end of an in-process pipe whose other end is closed
// when the test ends.
func subConn(t *testing.T) *Conn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { b.Close() })
	return NewConn(a)
}

// TestSubscribersDedupsRepeatedTopics: a connection that names a topic in
// two Subscribe frames holds it once, on its one ring.
func TestSubscribersDedupsRepeatedTopics(t *testing.T) {
	subs := newTestSubscribers(t)
	conn := subConn(t)
	subs.Subscribe(conn, []spec.TopicID{1, 2})
	subs.Subscribe(conn, []spec.TopicID{1, 3, 3})
	var ring *Egress
	for _, id := range []spec.TopicID{1, 2, 3} {
		rings := subs.Rings(id, nil)
		if len(rings) != 1 {
			t.Fatalf("topic %d has %d rings, want 1", id, len(rings))
		}
		if ring == nil {
			ring = rings[0]
		} else if rings[0] != ring {
			t.Fatalf("topic %d has a second ring for the same conn", id)
		}
	}
	if n := subs.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

// TestSubscribersRemoveKeepsOtherConns: Remove takes the conn's ring off
// every topic it held and leaves the other conns' lists as they were.
func TestSubscribersRemoveKeepsOtherConns(t *testing.T) {
	subs := newTestSubscribers(t)
	a, b, c := subConn(t), subConn(t), subConn(t)
	subs.Subscribe(a, []spec.TopicID{1, 2, 3, 4})
	subs.Subscribe(b, []spec.TopicID{2, 3})
	subs.Subscribe(c, []spec.TopicID{3})
	ringB, ringC := subs.Rings(2, nil)[1], subs.Rings(3, nil)[2]

	ringA := subs.Remove(a)
	if ringA == nil || ringA.Conn() != a {
		t.Fatalf("Remove returned %v, want a's ring", ringA)
	}
	Retire(ringA)
	want := map[spec.TopicID][]*Egress{1: nil, 2: {ringB}, 3: {ringB, ringC}, 4: nil}
	for id, w := range want {
		if got := subs.Rings(id, nil); !slices.Equal(got, w) {
			t.Errorf("topic %d rings after Remove(a) = %v, want %v", id, got, w)
		}
	}
	if n := subs.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
	if again := subs.Remove(a); again != nil {
		t.Errorf("a second Remove returned %v, want nil", again)
	}
	if never := subs.Remove(subConn(t)); never != nil {
		t.Errorf("Remove of a conn that never subscribed returned %v, want nil", never)
	}
}

// TestSubscribersRingsDoesNotAllocate: the delivery path's lookup copies
// into warm scratch and allocates nothing.
func TestSubscribersRingsDoesNotAllocate(t *testing.T) {
	subs := newTestSubscribers(t)
	for range 8 {
		subs.Subscribe(subConn(t), []spec.TopicID{1})
	}
	scratch := subs.Rings(1, nil)
	if allocs := testing.AllocsPerRun(100, func() { scratch = subs.Rings(1, scratch) }); allocs != 0 {
		t.Fatalf("Rings allocated %.1f times per call with warm scratch, want 0", allocs)
	}
	if len(scratch) != 8 {
		t.Fatalf("Rings returned %d rings, want 8", len(scratch))
	}
}

// TestSubscribersConcurrentUse runs sessions subscribing and removing
// their own conns while delivery paths look topics up and scrapes count
// rings; under -race it is the registry's locking proof.
func TestSubscribersConcurrentUse(t *testing.T) {
	base := FrameBufRefs()
	subs := newTestSubscribers(t)
	const sessions, rounds = 8, 50
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				conn := subConn(t)
				subs.Subscribe(conn, []spec.TopicID{spec.TopicID(i % 3), spec.TopicID(r % 3)})
				subs.Subscribe(conn, []spec.TopicID{spec.TopicID(r % 3)})
				Retire(subs.Remove(conn))
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var scratch []*Egress
			for {
				select {
				case <-stop:
					return
				default:
				}
				for id := range spec.TopicID(3) {
					scratch = subs.Rings(id, scratch)
					for _, eg := range scratch {
						eg.Enqueue(pruneBuf(id, 1), id, spec.LossUnbounded)
					}
				}
				_ = subs.Len() + subs.Queued()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if n := subs.Len(); n != 0 {
		t.Fatalf("Len = %d after every session left, want 0", n)
	}
	for id := range spec.TopicID(3) {
		if rings := subs.Rings(id, nil); len(rings) != 0 {
			t.Fatalf("topic %d keeps %d rings after every session left", id, len(rings))
		}
	}
	if refs := FrameBufRefs(); refs != base {
		t.Fatalf("leaked %d FrameBuf references", refs-base)
	}
}
