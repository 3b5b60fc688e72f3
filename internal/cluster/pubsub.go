// The cluster-aware publisher: it routes each topic to its owning shard and
// re-homes topics when the routing table moves them. The subscribing side
// needs no cluster type: one client.Subscriber over Table.Addrs holds a
// link to every broker, and its one delivery log dedups across pairs.
package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/spec"
	"repro/internal/wire"
)

// PublisherOptions configures a sharded publisher.
type PublisherOptions struct {
	// Publisher is the template every per-pair client.Publisher is built
	// from (see openPubLocked). Its Topics are the proxy's topics,
	// cluster-wide; the cluster fills in each pair's share of them,
	// PrimaryAddr, BackupAddr and OnWrongShard. Name, Network, Clock,
	// DurableAcks, AckTimeout and Logger (nil means slog.Default) pass
	// through, so ACK = durable holds on every shard.
	Publisher client.PublisherOptions
	// Router supplies and refreshes the routing table.
	Router *Router
	// RefreshInterval, when positive, polls the Directory on this period so
	// the cache converges even without in-band redirects (e.g. a promotion
	// the client never trips over). Zero disables polling; redirects still
	// refresh.
	RefreshInterval time.Duration
}

// pairKey identifies a broker pair by the addresses a client dials — the
// unit a per-pair client.Publisher is bound to.
func pairKey(e wire.ShardEntry) string { return e.Primary + "|" + e.Backup }

// Publisher routes topics across the cluster: one client.Publisher per
// broker pair the cached table points at, with topics moving between them
// (carrying sequence numbers and retained messages, §III-B style) whenever
// a refreshed table changes their owner. Safe for concurrent use.
type Publisher struct {
	opts   PublisherOptions
	log    *slog.Logger
	router *Router

	stop chan struct{}
	kick chan struct{} // capacity 1: a refresh is pending
	wg   sync.WaitGroup

	redirects atomic.Uint64 // WrongShard frames observed

	mu       sync.Mutex
	table    Table
	topics   map[spec.TopicID]spec.Topic
	pubs     map[string]*client.Publisher // by pairKey
	topicPub map[spec.TopicID]string      // topic -> pairKey currently carrying it
	closed   bool

	rehomed uint64 // topic moves executed
}

// NewPublisher builds the per-pair publishers for the router's current
// table and starts the optional refresh poller.
func NewPublisher(opts PublisherOptions) (*Publisher, error) {
	tmpl := &opts.Publisher
	if opts.Router == nil || tmpl.Network == nil || tmpl.Clock == nil {
		return nil, errors.New("cluster: publisher needs router, network, and clock")
	}
	if len(tmpl.Topics) == 0 {
		return nil, errors.New("cluster: publisher needs at least one topic")
	}
	if tmpl.Logger == nil {
		tmpl.Logger = slog.Default()
	}
	p := &Publisher{
		opts:     opts,
		log:      tmpl.Logger.With("cluster-publisher", tmpl.Name),
		router:   opts.Router,
		stop:     make(chan struct{}),
		kick:     make(chan struct{}, 1),
		topics:   make(map[spec.TopicID]spec.Topic, len(tmpl.Topics)),
		pubs:     make(map[string]*client.Publisher),
		topicPub: make(map[spec.TopicID]string, len(tmpl.Topics)),
	}
	for _, t := range tmpl.Topics {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		p.topics[t.ID] = t
	}
	table := opts.Router.Table()
	if len(table.Shards) == 0 {
		return nil, errors.New("cluster: empty routing table")
	}
	p.mu.Lock()
	p.table = table
	// Group topics by owning pair and open one publisher per pair.
	byKey := make(map[string][]spec.Topic)
	for _, t := range tmpl.Topics {
		key := pairKey(table.Shards[table.ShardFor(t.ID)])
		byKey[key] = append(byKey[key], t)
		p.topicPub[t.ID] = key
	}
	for key, group := range byKey {
		pub, err := p.openPubLocked(key, group)
		if err != nil {
			p.mu.Unlock()
			p.Close()
			return nil, err
		}
		p.pubs[key] = pub
	}
	p.mu.Unlock()
	// The refresher: the only goroutine that fetches tables and re-homes
	// topics in response to redirects. Keeping it off the per-pair receive
	// goroutines means the recv loops always drain — rehome does network
	// I/O under p.mu, and a recv callback blocking on that mutex would
	// jam the very pipes rehome needs.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			select {
			case <-p.kick:
				// Always fetch, even when the advertised epoch is not newer
				// than the cache: a redirect at our own epoch means the route
				// we used is wrong regardless — the Directory may have moved
				// past the broker's view. Refresh installs only if the
				// fetched table is genuinely newer.
				t, err := p.router.Refresh()
				if err != nil {
					p.log.Warn("route refresh after redirect failed", "err", err)
					continue
				}
				p.rehome(t)
			case <-p.stop:
				return
			}
		}
	}()
	if opts.RefreshInterval > 0 {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			ticker := time.NewTicker(opts.RefreshInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if t, err := p.router.Refresh(); err == nil {
						p.rehome(t)
					}
				case <-p.stop:
					return
				}
			}
		}()
	}
	return p, nil
}

// splitPairKey recovers the address tuple from a pairKey.
func splitPairKey(key string) wire.ShardEntry {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '|' {
			return wire.ShardEntry{Primary: key[:i], Backup: key[i+1:]}
		}
	}
	return wire.ShardEntry{Primary: key}
}

// pairsOverlap reports whether two pair keys share a broker address — the
// signature of an intra-pair promotion rather than a shard move.
func pairsOverlap(a, b string) bool {
	ea, eb := splitPairKey(a), splitPairKey(b)
	for _, x := range []string{ea.Primary, ea.Backup} {
		if x == "" {
			continue
		}
		if x == eb.Primary || x == eb.Backup {
			return true
		}
	}
	return false
}

// openPubLocked dials one pair, with a client.Publisher built from the
// template. Callers hold p.mu.
func (p *Publisher) openPubLocked(key string, topics []spec.Topic) (*client.Publisher, error) {
	e := splitPairKey(key)
	o := p.opts.Publisher
	o.Topics, o.PrimaryAddr, o.BackupAddr, o.OnWrongShard = topics, e.Primary, e.Backup, p.onWrongShard
	pub, err := client.NewPublisher(o)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial pair %s: %w", e.Primary, err)
	}
	return pub, nil
}

// onWrongShard runs on a per-pair receive goroutine: a broker told us our
// table is stale. It must never block — a stalled recv loop stops
// draining broker replies (including the redirects themselves) and
// deadlocks the synchronous transports — so it only counts the redirect
// and kicks the refresher. The rejected message is covered by the topic's
// retained ring: AdoptTopic re-sends it to the right shard, and
// subscriber dedup absorbs any overlap.
func (p *Publisher) onWrongShard(spec.TopicID, uint64) {
	p.redirects.Add(1)
	select {
	case p.kick <- struct{}{}:
	default: // a refresh is already pending; it will see the latest table
	}
}

// rehome moves topics whose owning pair changed under the new table.
func (p *Publisher) rehome(t Table) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || t.Epoch <= p.table.Epoch || len(t.Shards) == 0 {
		if t.Epoch > p.table.Epoch {
			p.log.Warn("refusing empty routing table", "epoch", t.Epoch)
		}
		return
	}
	p.table = t
	// First pass: intra-pair promotions re-key the pair's publisher in
	// place. The underlying client already fails over to the surviving
	// member (on the promoted Backup's notice, or on its dead Primary
	// link); a Drop/Adopt resend here would interleave a duplicate
	// low-sequence stream with its live traffic. Re-keying is sound only
	// when every topic on the old pair moves to the same new pair and the
	// pairs share a member — anything else falls through to the Drop/Adopt
	// path below.
	wants := make(map[spec.TopicID]string, len(p.topics))
	byCur := make(map[string][]spec.TopicID)
	for id := range p.topics {
		wants[id] = pairKey(t.Shards[t.ShardFor(id)])
		byCur[p.topicPub[id]] = append(byCur[p.topicPub[id]], id)
	}
	for cur, ids := range byCur {
		want := wants[ids[0]]
		if want == cur || p.pubs[cur] == nil || p.pubs[want] != nil || !pairsOverlap(cur, want) {
			continue
		}
		uniform := true
		for _, id := range ids {
			if wants[id] != want {
				uniform = false
				break
			}
		}
		if !uniform {
			continue
		}
		p.pubs[want] = p.pubs[cur]
		delete(p.pubs, cur)
		for _, id := range ids {
			p.topicPub[id] = want
		}
		p.log.Info("pair re-keyed after promotion", "from", cur, "to", want, "epoch", t.Epoch)
	}
	for id, topic := range p.topics {
		want := wants[id]
		cur := p.topicPub[id]
		if want == cur {
			continue
		}
		dst, ok := p.pubs[want]
		if !ok {
			var err error
			if dst, err = p.openPubLocked(want, nil); err != nil {
				p.log.Warn("re-home dial failed; topic stays put until next refresh", "topic", id, "err", err)
				continue
			}
			p.pubs[want] = dst
		}
		lastSeq, retained, err := p.pubs[cur].DropTopic(id)
		if err != nil {
			p.log.Warn("re-home drop failed", "topic", id, "err", err)
			continue
		}
		if err := dst.AdoptTopic(topic, lastSeq, retained, true); err != nil {
			p.log.Warn("re-home adopt failed", "topic", id, "err", err)
		}
		p.topicPub[id] = want
		p.rehomed++
		p.log.Info("topic re-homed", "topic", id, "from", cur, "to", want, "epoch", t.Epoch)
	}
	// Close pairs that no longer carry any topic.
	inUse := make(map[string]bool, len(p.topicPub))
	for _, key := range p.topicPub {
		inUse[key] = true
	}
	for key, pub := range p.pubs {
		if !inUse[key] {
			pub.Close()
			delete(p.pubs, key)
		}
	}
}

// Publish routes the message to the topic's current shard.
func (p *Publisher) Publish(topic spec.TopicID, payload []byte) (uint64, error) {
	p.mu.Lock()
	key, ok := p.topicPub[topic]
	if !ok {
		p.mu.Unlock()
		return 0, fmt.Errorf("cluster: publisher does not own topic %d", topic)
	}
	pub := p.pubs[key]
	p.mu.Unlock()
	return pub.Publish(topic, payload)
}

// LastSeq returns the highest sequence number created for the topic.
func (p *Publisher) LastSeq(topic spec.TopicID) uint64 {
	p.mu.Lock()
	key, ok := p.topicPub[topic]
	if !ok {
		p.mu.Unlock()
		return 0
	}
	pub := p.pubs[key]
	p.mu.Unlock()
	return pub.LastSeq(topic)
}

// Epoch returns the epoch of the table the publisher currently routes by.
func (p *Publisher) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.table.Epoch
}

// Redirects returns how many WrongShard redirects were observed.
func (p *Publisher) Redirects() uint64 { return p.redirects.Load() }

// Rehomed returns how many topic moves were executed.
func (p *Publisher) Rehomed() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rehomed
}

// Close shuts every per-pair publisher down. As on a client.Publisher,
// LastSeq still answers afterwards and Publish fails.
func (p *Publisher) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	pubs := make([]*client.Publisher, 0, len(p.pubs))
	for _, pub := range p.pubs {
		pubs = append(pubs, pub)
	}
	p.mu.Unlock()
	close(p.stop)
	for _, pub := range pubs {
		pub.Close()
	}
	p.wg.Wait()
}
