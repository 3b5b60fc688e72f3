package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/spec"
)

// The span ledger follows one message in sampleEvery from the moment it was
// due to every subscriber's OnDeliver. All stamps are taken outside the
// program under test: around client calls, and in the broker's public
// lifecycle hook (obsv.BrokerMetrics.SetTracer). Brokers and clients share
// one clock, so stamps subtract directly.
//
// One root span per (topic, seq, subscriber) runs from the due time to
// OnDeliver and is tiled by five children that share its request id:
//
//	gen_late          due            -> Publish entered
//	ingress           Publish entered-> StagePublish  (client encode, socket, session read, decode)
//	queue_wait        StagePublish   -> StagePop      (lane intake + EDF queue)
//	dispatch          StagePop       -> StageAck      (core, wire encode, egress enqueue)
//	egress_to_client  StageAck       -> OnDeliver     (ring residency, flusher write, wire, client decode/dedup)
//
// Off the delivery path, per message: replicate (StagePop -> StageAck of the
// replication job), durable (StagePublish -> StageDurable) and ack_return
// (StageDurable -> Publish returned).
const (
	sampleEvery = 16
	maxSubs     = 8
	// maxRootsWritten bounds the span file; statistics use every root.
	maxRootsWritten = 20000
)

var childNames = [5]string{"gen_late", "ingress", "queue_wait", "dispatch", "egress_to_client"}

// spanRec holds the stamps of one sampled message. Zero means not seen.
type spanRec struct {
	mu                       sync.Mutex
	seq                      uint64
	due, pubEnter, pubReturn int64
	arrive                   int64 // StagePublish
	popD, ackD               int64 // dispatch job
	popR, ackR               int64 // replication job
	durable                  int64 // StageDurable
	// A message with a replication job fires StagePop and StageAck twice,
	// possibly from two workers at once. pend holds pops not yet claimed by
	// the StageDispatch or StageReplicate that follows on the same worker;
	// an order that cannot be told apart marks the record ambiguous.
	pend         [2]int64
	npend        int
	openD, openR bool
	ambiguous    bool
	deliver      [maxSubs]int64
}

func (r *spanRec) claimPop() int64 {
	if r.npend != 1 {
		r.ambiguous = true
	}
	if r.npend == 0 {
		return 0
	}
	r.npend--
	return r.pend[r.npend]
}

// ledger is the pre-allocated span table. Nothing is allocated or written
// out while a window is being measured.
type ledger struct {
	on      atomic.Bool
	offset  []uint8  // per topic: which residue of seq is sampled
	base    []uint64 // per topic: ordinal of the first record
	recs    [][]spanRec
	dropped atomic.Uint64 // sampled messages past the end of the table
}

// newLedger allocates perTopic records for each of topics dense topic ids.
func newLedger(topics, perTopic int) *ledger {
	l := &ledger{
		offset: make([]uint8, topics),
		base:   make([]uint64, topics),
		recs:   make([][]spanRec, topics),
	}
	for t := range l.recs {
		// A multiplicative hash of the topic spreads the sampled residues, so
		// every position of a burst is sampled at some sequence number.
		l.offset[t] = uint8((uint32(t) * 2654435761) >> 28)
		l.recs[t] = make([]spanRec, perTopic)
	}
	return l
}

// rec returns the record of (topic, seq), or nil when the message is not
// sampled or falls outside the table.
func (l *ledger) rec(topic spec.TopicID, seq uint64) *spanRec {
	if int(topic) >= len(l.recs) {
		return nil
	}
	k := seq + uint64(l.offset[topic])
	if k%sampleEvery != 0 {
		return nil
	}
	ord := k / sampleEvery
	if ord < l.base[topic] {
		return nil
	}
	i := ord - l.base[topic]
	if i >= uint64(len(l.recs[topic])) {
		l.dropped.Add(1)
		return nil
	}
	return &l.recs[topic][i]
}

// start begins recording. nextSeq gives, per topic, the first sequence
// number that may still be published.
func (l *ledger) start(nextSeq func(spec.TopicID) uint64) {
	for t := range l.base {
		l.base[t] = (nextSeq(spec.TopicID(t)) + uint64(l.offset[t])) / sampleEvery
	}
	l.on.Store(true)
}

func (l *ledger) published(topic spec.TopicID, seq uint64, due, enter, ret int64) {
	if !l.on.Load() {
		return
	}
	if r := l.rec(topic, seq); r != nil {
		r.mu.Lock()
		r.seq, r.due, r.pubEnter, r.pubReturn = seq, due, enter, ret
		r.mu.Unlock()
	}
}

func (l *ledger) delivered(sub int, topic spec.TopicID, seq uint64, at int64) {
	if !l.on.Load() {
		return
	}
	if r := l.rec(topic, seq); r != nil {
		r.mu.Lock()
		r.deliver[sub] = at
		r.mu.Unlock()
	}
}

// trace is the broker lifecycle hook. It runs inline on broker goroutines
// for every message, so the unsampled path is one load and one modulo.
func (l *ledger) trace(ev obsv.TraceEvent) {
	if !l.on.Load() {
		return
	}
	r := l.rec(spec.TopicID(ev.Topic), ev.Seq)
	if r == nil {
		return
	}
	at := int64(ev.At)
	r.mu.Lock()
	switch ev.Stage {
	case obsv.StagePublish:
		r.arrive = at
	case obsv.StagePop:
		if r.npend == len(r.pend) {
			r.ambiguous = true
		} else {
			r.pend[r.npend] = at
			r.npend++
		}
	case obsv.StageDispatch:
		r.popD, r.openD = r.claimPop(), true
	case obsv.StageReplicate:
		r.popR, r.openR = r.claimPop(), true
	case obsv.StageAck:
		switch {
		case r.openD && r.openR:
			r.ambiguous = true
		case r.openD:
			r.ackD, r.openD = at, false
		case r.openR:
			r.ackR, r.openR = at, false
		}
	case obsv.StageDurable:
		r.durable = at
	}
	r.mu.Unlock()
}

// tile cuts the root span [bounds[0], bounds[5]] into its five children.
// Stamps come from different goroutines, so a boundary can fall outside its
// neighbours (a subscriber can receive a frame before the dispatching worker
// stamps StageAck); such a boundary is moved to the nearest admissible
// instant and the distance moved is returned. The children always sum to
// the root.
func tile(bounds [6]int64) (children [5]int64, moved int64) {
	b := bounds
	for i := 1; i < 5; i++ {
		v := b[i]
		if v < b[i-1] {
			v = b[i-1]
		}
		if v > b[5] {
			v = b[5]
		}
		if d := v - b[i]; d > 0 {
			moved += d
		} else {
			moved -= d
		}
		b[i] = v
	}
	for i := range children {
		children[i] = b[i+1] - b[i]
	}
	return children, moved
}

// spanStats is what the ledger reports after a run.
type spanStats struct {
	child         [5][]sample // durations of complete roots, per child
	replicate     []sample
	durable       []sample
	ackReturn     []sample
	roots         int // (message, subscriber) pairs published while tracing
	complete      int // roots with every stamp, unambiguous, moved <= 2 % of the root
	completeRatio float64
}

// tiledWithin is the acceptance bound: boundaries may have been moved by at
// most this share of the root for the root to count as complete.
const tiledWithin = 0.02

// collect tiles every recorded root. When w is non-nil it also writes the
// spans, one per line, as request,span,parent,start_ns,end_ns.
func (l *ledger) collect(subs int, w *bufio.Writer) spanStats {
	var st spanStats
	written := 0
	if w != nil {
		fmt.Fprintln(w, "request,span,parent,start_ns,end_ns")
	}
	for t := range l.recs {
		for i := range l.recs[t] {
			r := &l.recs[t][i]
			if r.pubEnter == 0 {
				continue
			}
			if r.popR != 0 && r.ackR > r.popR && !r.ambiguous {
				st.replicate = append(st.replicate, toSample(time.Duration(r.ackR-r.popR)))
			}
			if r.durable != 0 && r.arrive != 0 {
				st.durable = append(st.durable, toSample(time.Duration(r.durable-r.arrive)))
				st.ackReturn = append(st.ackReturn, toSample(time.Duration(r.pubReturn-r.durable)))
			}
			for s := 0; s < subs; s++ {
				st.roots++
				bounds := [6]int64{r.due, r.pubEnter, r.arrive, r.popD, r.ackD, r.deliver[s]}
				if r.ambiguous || r.arrive == 0 || r.popD == 0 || r.ackD == 0 || r.deliver[s] == 0 {
					continue
				}
				root := bounds[5] - bounds[0]
				children, moved := tile(bounds)
				if root <= 0 || float64(moved) > tiledWithin*float64(root) {
					continue
				}
				st.complete++
				for c, d := range children {
					st.child[c] = append(st.child[c], toSample(time.Duration(d)))
				}
				if w != nil && written < maxRootsWritten {
					written++
					req := fmt.Sprintf("%d:%d:%d", t, r.seq, s)
					fmt.Fprintf(w, "%s,deliver,,%d,%d\n", req, bounds[0], bounds[5])
					at := bounds[0]
					for c, d := range children {
						fmt.Fprintf(w, "%s,%s,deliver,%d,%d\n", req, childNames[c], at, at+d)
						at += d
					}
				}
			}
		}
	}
	if st.roots > 0 {
		st.completeRatio = float64(st.complete) / float64(st.roots)
	}
	return st
}

// p50p99 sorts s in place.
func p50p99(s []sample) (p50, p99 float64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, 0.50), percentile(s, 0.99)
}

// writeSpans collects the ledger and writes the span file under dir.
func (l *ledger) writeSpans(dir, name string, subs int) (spanStats, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return spanStats{}, "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return spanStats{}, "", err
	}
	w := bufio.NewWriter(f)
	st := l.collect(subs, w)
	if err := w.Flush(); err != nil {
		f.Close()
		return st, path, err
	}
	return st, path, f.Close()
}
