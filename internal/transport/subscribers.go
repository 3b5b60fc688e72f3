package transport

import (
	"sync"

	"repro/internal/spec"
)

// Subscribers is a fan-out node's topic → ring index: the broker's
// subscriber sessions and the gateway's thin clients. Each connection gets
// one ring, opened from the registry's one EgressConfig on its first
// Subscribe. Subscribe and Remove run on the connection's own session
// goroutine; Rings runs on the delivery paths, which enqueue outside the
// registry's lock (a blocking ring may wait there for space).
type Subscribers struct {
	cfg EgressConfig

	mu      sync.Mutex
	byTopic map[spec.TopicID][]*Egress
	byConn  map[*Conn]*subscription
}

// subscription is one connection's ring and the topics it holds.
type subscription struct {
	eg     *Egress
	topics map[spec.TopicID]struct{}
}

// NewSubscribers returns an empty registry whose rings are made from cfg.
func NewSubscribers(cfg EgressConfig) *Subscribers {
	return &Subscribers{
		cfg:     cfg,
		byTopic: make(map[spec.TopicID][]*Egress),
		byConn:  make(map[*Conn]*subscription),
	}
}

// Subscribe adds topics to conn's subscription, opening its ring on first
// use. A topic the conn already holds is skipped, so a repeated Subscribe
// never queues one message twice on the same ring.
func (s *Subscribers) Subscribe(conn *Conn, topics []spec.TopicID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub := s.byConn[conn]
	if sub == nil {
		sub = &subscription{eg: NewEgress(conn, s.cfg), topics: make(map[spec.TopicID]struct{}, len(topics))}
		s.byConn[conn] = sub
	}
	for _, id := range topics {
		if _, ok := sub.topics[id]; ok {
			continue
		}
		sub.topics[id] = struct{}{}
		s.byTopic[id] = append(s.byTopic[id], sub.eg)
	}
}

// Remove drops conn from its topics' fan-out lists, walking only those
// topics, and returns its ring (nil if it never subscribed, or on a repeated
// call) for the caller to retire.
func (s *Subscribers) Remove(conn *Conn) *Egress {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub := s.byConn[conn]
	if sub == nil {
		return nil
	}
	delete(s.byConn, conn)
	for id := range sub.topics {
		rings := s.byTopic[id]
		kept := rings[:0]
		for _, e := range rings {
			if e != sub.eg {
				kept = append(kept, e)
			}
		}
		clear(rings[len(kept):])
		if len(kept) == 0 {
			delete(s.byTopic, id)
			continue
		}
		s.byTopic[id] = kept
	}
	return sub.eg
}

// Rings copies the rings subscribed to topic into scratch, reused from its
// first element, and returns it: the caller enqueues outside the lock.
func (s *Subscribers) Rings(topic spec.TopicID, scratch []*Egress) []*Egress {
	s.mu.Lock()
	scratch = append(scratch[:0], s.byTopic[topic]...)
	s.mu.Unlock()
	return scratch
}

// Len returns the number of subscribed connections.
func (s *Subscribers) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byConn)
}

// Queued sums the frames currently queued across every ring.
func (s *Subscribers) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sub := range s.byConn {
		n += sub.eg.Depth()
	}
	return n
}
