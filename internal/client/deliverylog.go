package client

import (
	"math"
	"sync"

	"repro/internal/spec"
)

// DedupWindow is how many sequence numbers below a topic's highest seen
// one are remembered individually. A re-delivery inside the window is
// recognised exactly; fail-over resends (at most Ni retained messages) and
// recovery dispatches (at most a Backup Buffer) reach back tens of
// sequence numbers, never this far. Memory per topic is fixed by it:
// DedupWindow/8 bytes of bitmap plus four counters, 160 B, however long
// the subscriber lives.
const DedupWindow = 1024

// DeliveryLog is the per-topic record every subscriber runtime keeps of
// what it has delivered: duplicate detection, delivery counts and the
// longest run of lost sequence numbers, in constant memory per topic.
// Latency is not kept here: it rides on every Delivery handed to
// OnDeliver and OnFrame, for callers that want it. It is safe for
// concurrent use.
//
// Per topic it holds a high-water mark and a sliding bitmap over the
// DedupWindow sequence numbers ending there. An arrival above the mark
// slides the window; one inside it is a duplicate iff its bit is set; one
// below it is older than anything a FRAME broker re-sends and is reported
// as a duplicate without being looked up. Sequence numbers are judged
// lost or delivered for good when they slide out of the window, which is
// when they enter the consecutive-loss tally.
//
// The records sit in one contiguous slice, reached through a slot index,
// so a subscriber to thousands of topics holds no heap object per topic.
type DeliveryLog struct {
	mu     sync.Mutex
	slot   map[spec.TopicID]int32
	topics []topicLog
	dups   uint64
}

type topicLog struct {
	high     uint64 // highest sequence number delivered
	received uint64
	bits     [DedupWindow / 64]uint64 // bit seq%DedupWindow: seq in (high-DedupWindow, high] delivered
	// Loss tally over the sequence numbers that have left the window:
	// the run of losses ending at the window's lower edge, and the longest
	// run anywhere below it.
	run, maxRun uint64
}

// NewDeliveryLog returns an empty log.
func NewDeliveryLog() *DeliveryLog {
	return &DeliveryLog{slot: make(map[spec.TopicID]int32)}
}

// lookup returns the topic's record, or nil if nothing arrived for it.
// Callers hold l.mu; the pointer is valid until the next record is added.
func (l *DeliveryLog) lookup(topic spec.TopicID) *topicLog {
	if i, ok := l.slot[topic]; ok {
		return &l.topics[i]
	}
	return nil
}

// Record notes one arrival of (topic, seq) and reports whether it is a
// duplicate. A first delivery is counted.
func (l *DeliveryLog) Record(topic spec.TopicID, seq uint64) (dup bool) {
	l.mu.Lock()
	t := l.lookup(topic)
	if t == nil {
		l.slot[topic] = int32(len(l.topics))
		l.topics = append(l.topics, topicLog{})
		t = &l.topics[len(l.topics)-1]
	}
	if t.admit(seq) {
		t.received++
	} else {
		l.dups++
		dup = true
	}
	l.mu.Unlock()
	return dup
}

// admit marks seq delivered and reports whether this is its first
// delivery.
func (t *topicLog) admit(seq uint64) bool {
	switch {
	case seq > t.high:
		t.slideTo(seq)
	case t.high-seq >= DedupWindow:
		return false // below the window: older than any legitimate re-send
	case t.has(seq):
		return false
	}
	t.bits[seq%DedupWindow/64] |= 1 << (seq % 64)
	return true
}

func (t *topicLog) has(seq uint64) bool {
	return t.bits[seq%DedupWindow/64]&(1<<(seq%64)) != 0
}

// low is the lowest sequence number still inside the window.
func (t *topicLog) low() uint64 {
	if t.high < DedupWindow {
		return 1
	}
	return t.high - DedupWindow + 1
}

// slideTo moves the high-water mark up to seq. Every sequence number that
// drops out of the window is tallied as delivered or lost; every one that
// enters it starts out not delivered.
func (t *topicLog) slideTo(seq uint64) {
	if seq-t.high >= DedupWindow {
		// The whole window leaves, followed by sequence numbers that were
		// never inside it and so never arrived.
		for s := t.low(); s <= t.high; s++ {
			t.retire(s)
		}
		t.lose(seq - t.high - DedupWindow)
		t.bits = [DedupWindow / 64]uint64{}
	} else {
		for s := t.high + 1; s <= seq; s++ {
			if s > DedupWindow {
				t.retire(s - DedupWindow) // shares its bit with s
			}
			t.bits[s%DedupWindow/64] &^= 1 << (s % 64)
		}
	}
	t.high = seq
}

func (t *topicLog) retire(seq uint64) {
	if t.has(seq) {
		t.run = 0
	} else {
		t.lose(1)
	}
}

func (t *topicLog) lose(n uint64) {
	t.run += n
	if t.run > t.maxRun {
		t.maxRun = t.run
	}
}

// Received returns how many distinct messages arrived for the topic.
func (l *DeliveryLog) Received(topic spec.TopicID) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t := l.lookup(topic); t != nil {
		return t.received
	}
	return 0
}

// Duplicates returns how many arrivals were reported as duplicates.
func (l *DeliveryLog) Duplicates() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dups
}

// MaxConsecutiveLoss returns the longest run of sequence numbers in
// 1..highestCreated that never arrived. Runs among the numbers that have
// left the window were tallied as they left; the window itself is scanned
// here. (A highestCreated below the window answers for everything that has
// left it.)
func (l *DeliveryLog) MaxConsecutiveLoss(topic spec.TopicID, highestCreated uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.lookup(topic)
	if t == nil {
		return int(min(highestCreated, math.MaxInt))
	}
	tally := topicLog{run: t.run, maxRun: t.maxRun}
	for s := t.low(); s <= t.high && s <= highestCreated; s++ {
		if t.has(s) {
			tally.run = 0
		} else {
			tally.lose(1)
		}
	}
	if highestCreated > t.high {
		tally.lose(highestCreated - t.high)
	}
	return int(min(tally.maxRun, math.MaxInt))
}
