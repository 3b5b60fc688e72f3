package chaos

import (
	"fmt"
	"sync"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/spec"
)

// linkID identifies one delivery stream: a topic arriving over one link.
// FIFO is per link — a subscriber's two broker links may interleave.
type linkID struct {
	topic  spec.TopicID
	source string
}

// linkRecord tracks the arrival order on one delivery stream. A "rewind" is
// an arrival below its predecessor: zero on a healthy link; crash recovery
// and publisher resend restart the ascending run a bounded number of times.
type linkRecord struct {
	frames  int
	prev    uint64
	rewinds int
}

// Recorder sees every dispatch frame a subscriber receives (duplicates
// included, via OnFrame) and keeps the per-link order records the FIFO
// invariant is checked against and the sequences seen per topic.
type Recorder struct {
	mu    sync.Mutex
	links map[linkID]*linkRecord
	seen  map[spec.TopicID]map[uint64]bool
}

// NewRecorder returns an empty frame recorder.
func NewRecorder() *Recorder {
	return &Recorder{links: make(map[linkID]*linkRecord), seen: make(map[spec.TopicID]map[uint64]bool)}
}

// Note ingests one received frame. Safe for concurrent use; wire it as the
// subscriber's OnFrame callback.
func (r *Recorder) Note(d client.Delivery) {
	id := linkID{topic: d.Msg.Topic, source: d.Source}
	r.mu.Lock()
	lr := r.links[id]
	if lr == nil {
		lr = &linkRecord{}
		r.links[id] = lr
	}
	lr.frames++
	if d.Msg.Seq < lr.prev {
		lr.rewinds++
	}
	lr.prev = max(lr.prev, d.Msg.Seq)
	if r.seen[d.Msg.Topic] == nil {
		r.seen[d.Msg.Topic] = make(map[uint64]bool)
	}
	r.seen[d.Msg.Topic][d.Msg.Seq] = true
	r.mu.Unlock()
}

// has reports whether a frame of (topic, seq) arrived.
func (r *Recorder) has(topic spec.TopicID, seq uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[topic][seq]
}

// framesFrom counts the frames that arrived over links from source.
func (r *Recorder) framesFrom(source string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for id, lr := range r.links {
		if id.source == source {
			n += lr.frames
		}
	}
	return n
}

// fifoViolations returns one message per link whose rewind count exceeds
// the scenario's budget.
func (r *Recorder) fifoViolations(allowed int) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var v []string
	for id, lr := range r.links {
		if lr.rewinds > allowed {
			v = append(v, fmt.Sprintf("FIFO broken on topic %d from %s: %d rewinds (budget %d) over %d frames",
				id.topic, id.source, lr.rewinds, allowed, lr.frames))
		}
	}
	return v
}

// judge evaluates every post-run assertion, in the package comment's
// order, and returns the failures (empty means the scenario passed).
func (e *Env) judge() []string {
	sc := e.sc
	var failures []string
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	for _, tp := range sc.Topics {
		if e.lastSeq(tp.ID) == 0 {
			fail("topic %d: nothing was published — load pump broken", tp.ID)
		}
	}

	// Per-receiver budgets; negative bounds skip a check for the
	// deliberately degraded parties, and wedged receivers carry none.
	for _, r := range e.recv {
		for _, tp := range sc.Topics {
			last := e.lastSeq(tp.ID)
			if r.sub == nil || last == 0 {
				continue
			}
			got := r.sub.Received(tp.ID)
			if r.MaxConsecutiveLoss >= 0 && got == 0 {
				fail("%s, topic %d: published %d, delivered none", r.Name, tp.ID, last)
				continue
			}
			if r.RequireAll && got != last {
				fail("%s, topic %d: published %d, delivered %d distinct", r.Name, tp.ID, last, got)
			}
			if loss := r.sub.MaxConsecutiveLoss(tp.ID, last); r.MaxConsecutiveLoss >= 0 && loss > r.MaxConsecutiveLoss {
				fail("%s, topic %d: max consecutive loss %d exceeds Li bound %d", r.Name, tp.ID, loss, r.MaxConsecutiveLoss)
			}
		}
		if r.sub != nil && r.AllowedRewinds >= 0 {
			for _, v := range r.rec.fifoViolations(r.AllowedRewinds) {
				fail("%s: %s", r.Name, v)
			}
		}
	}

	// Promotion: the expected shard within the detector bound of the first
	// broker fault, and no other shard at all — a promotion anywhere else
	// means the blast radius leaked.
	e.mu.Lock()
	bound := e.sc.Detector.WorstCaseDetection() + PromotionSlack
	if at, ok := e.promoted[sc.PromoteShard]; sc.ExpectPromotion {
		switch {
		case !ok:
			fail("shard %d backup never promoted", sc.PromoteShard)
		case !e.faultSet:
			fail("scenario expects promotion but scripted no broker fault")
		case at-e.faultAt > bound:
			fail("shard %d promotion took %v after the fault, bound %v (detector worst case %v + %v slack)",
				sc.PromoteShard, at-e.faultAt, bound, e.sc.Detector.WorstCaseDetection(), PromotionSlack)
		}
	}
	for _, p := range e.Cluster.Pairs {
		if at, ok := e.promoted[p.Index]; ok && (!sc.ExpectPromotion || p.Index != sc.PromoteShard) {
			fail("shard %d backup promoted at %v in a scenario that must not promote it", p.Index, at)
		}
	}
	publishErrs := e.publishErrs
	e.mu.Unlock()

	for _, t := range e.traces {
		failures = append(failures, t.violations()...)
	}

	// Gateway isolation: connection-plane faults must be invisible one
	// plane up — no publish errors on the direct broker path and clean
	// broker-side egress.
	if sc.Gateway != nil && !sc.ExpectPromotion {
		if publishErrs > 0 {
			fail("publisher saw %d errors on the direct broker path — the gateway fault leaked into the durability plane", publishErrs)
		}
		for _, p := range e.Cluster.Pairs {
			for _, b := range []*broker.Broker{p.Primary, p.Backup} {
				if es := b.EgressStats(); es.Shed > 0 || es.Evictions > 0 {
					fail("shard %d %s broker shed %d / evicted %d on its own egress — client backpressure leaked past the gateway",
						p.Index, b.Role(), es.Shed, es.Evictions)
				}
			}
		}
	}

	if sc.Durable != nil {
		failures = append(failures, e.durableViolations()...)
	}
	if sc.Check != nil {
		failures = append(failures, sc.Check(e)...)
	}
	return failures
}
