package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/diskstore"
	"repro/internal/spec"
	"repro/internal/wire"
)

// maxDiagnosed caps the per-seq lines a lost-ack diagnosis writes.
const maxDiagnosed = 64

// KillPair is the dual crash of the pair deployment, the failure promotion
// (§IV-A) cannot cover: with the pumps still publishing — so it lands on
// staged records, half-written batches and acks in flight — it resets
// every connection touching either broker and fail-stops both, Backup
// first so it cannot promote mid-teardown, then ends the load; only what
// was acknowledged is judged. On a durable deployment a second life then
// replaces the drain: a broker restarted on the Primary's log must recover
// every acked-but-undispatched message, never re-dispatch one whose prune
// marker reached the log (Table 3 on disk), and with the first life
// deliver every publish acked as durable.
func KillPair() func(*Env) error {
	return func(e *Env) error {
		p := e.Cluster.Pairs[0]
		e.Net.ResetNode(NodeBackup)
		e.Net.ResetNode(NodePrimary)
		p.Backup.Kill()
		p.Primary.Kill()
		e.crashed[p.Backup] = true
		e.crashed[p.Primary] = true
		e.killed = true
		e.endLoad()
		for _, r := range e.recv {
			r.close()
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		e.Tr.Logf(e.Clock(), "kill done: acked=%v publishErrs=%d", e.acked, e.publishErrs)
		return nil
	}
}

// orphanTopic is the topic that carries only grafted orphan records.
func (e *Env) orphanTopic() spec.TopicID { return spec.TopicID(len(e.sc.Topics) + 1) }

// secondLife is what survived the dual crash on disk and what the broker
// restarted from it did.
type secondLife struct {
	logged, pruned map[spec.TopicID]map[uint64]bool
	segments       int
	sub            *client.Subscriber
	rec            *Recorder
	traces         *traceRecorder
}

// runSecondLife grafts the orphan cohort, reads the crashed log's ground
// truth, restarts the Primary on it with recovery held until a fresh
// subscriber is attached, releases recovery and drains.
func (e *Env) runSecondLife() error {
	d := e.sc.Durable
	logDir := filepath.Join(e.logDir, NodePrimary) // the cluster's per-Primary log
	if d.Orphans > 0 {
		if err := graftOrphans(logDir, e.orphanTopic(), d.Orphans, e.Clock()); err != nil {
			return fmt.Errorf("grafting orphan segment: %w", err)
		}
		e.Tr.Logf(e.Clock(), "grafted %d orphan records on topic %d (records synced, prune markers lost)", d.Orphans, e.orphanTopic())
	}
	// Read what actually survived on disk — the ground truth the second
	// life is judged against. OpenSegmented also truncates any torn tail,
	// exactly as the restarted broker's open will.
	seg, replay, err := diskstore.OpenSegmented(logDir, diskstore.SegmentOptions{SegmentBytes: d.SegmentBytes})
	if err != nil {
		return fmt.Errorf("reading crashed log: %w", err)
	}
	s := &secondLife{
		logged:   make(map[spec.TopicID]map[uint64]bool),
		pruned:   make(map[spec.TopicID]map[uint64]bool),
		segments: seg.Segments(),
		rec:      NewRecorder(),
	}
	if err := seg.Close(); err != nil {
		return fmt.Errorf("closing crashed log: %w", err)
	}
	mark := func(m map[spec.TopicID]map[uint64]bool, id spec.TopicID, seq uint64) {
		if m[id] == nil {
			m[id] = make(map[uint64]bool)
		}
		m[id][seq] = true
	}
	for _, m := range replay.Messages {
		mark(s.logged, m.Topic, m.Seq)
	}
	for _, pr := range replay.Prunes {
		mark(s.pruned, pr.Topic, pr.Seq)
	}
	e.Tr.Logf(e.Clock(), "crashed log: %d messages, %d prunes, %d segments", len(replay.Messages), len(replay.Prunes), s.segments)

	primary, err := e.Cluster.RestartPrimary(0)
	if err != nil {
		return fmt.Errorf("restart primary: %w", err)
	}
	s.traces = e.traceBroker("second-life primary", primary.Obs())
	ids := topicIDs(e.topics)
	s.sub, err = client.NewSubscriber(client.SubscriberOptions{
		Name:        "sub2",
		Topics:      ids,
		BrokerAddrs: []string{primary.Addr()},
		Network:     e.Net.Node("sub2"),
		Clock:       e.Clock,
		OnFrame:     s.rec.Note,
		Logger:      e.log,
	})
	if err != nil {
		return fmt.Errorf("second-life subscriber: %w", err)
	}
	defer s.sub.Close()
	primary.RecoverFromLog()
	e.Tr.Logf(e.Clock(), "second life up at %s; recovery scheduled from log", primary.Addr())

	// The recovery backlog is exactly the logged-but-unpruned set.
	want := make(map[spec.TopicID]int)
	for id, seqs := range s.logged {
		for seq := range seqs {
			if !s.pruned[id][seq] {
				want[id]++
			}
		}
	}
	got := make(map[spec.TopicID]int, len(ids))
	drain(func() (total uint64, complete bool) {
		complete = true
		for _, id := range ids {
			got[id] = int(s.sub.Received(id))
			total += uint64(got[id])
			complete = complete && got[id] >= want[id]
		}
		return total, complete
	})
	e.Tr.Logf(e.Clock(), "second-life drain done: delivered=%v want=%v", got, want)
	e.second = s
	return nil
}

// durableViolations judges the second life against the crashed log's
// ground truth and the first life's acks.
func (e *Env) durableViolations() []string {
	s := e.second
	if s == nil {
		return []string{"durable deployment never killed the pair — not a dual-crash run"}
	}
	var v []string
	e.mu.Lock()
	defer e.mu.Unlock()
	acked := e.acked
	delivered := func(id spec.TopicID, seq uint64) bool {
		for _, r := range e.recv {
			if r.rec.has(id, seq) {
				return true
			}
		}
		return s.rec.has(id, seq)
	}

	// Table 3 on disk: the tracer covers the prunes the second life saw;
	// the crashed log's prune records are the durable ground truth, so
	// check the recovery dispatches against them directly too.
	s.traces.mu.Lock()
	defer s.traces.mu.Unlock()
	recovered := s.traces.recovered
	for key := range recovered {
		if s.pruned[spec.TopicID(key[0])][key[1]] {
			v = append(v, fmt.Sprintf("topic %d seq %d: prune record survived on disk yet the second life recovery-dispatched it", key[0], key[1]))
		}
	}
	// The orphan cohort is the positive half of the replay contract: a
	// record with no prune marker MUST be recovery-dispatched (once — the
	// Table 3 check flags duplicates) and reach the new subscriber.
	for seq, id := uint64(1), e.orphanTopic(); seq <= uint64(e.sc.Durable.Orphans); seq++ {
		if recovered[[2]uint64{uint64(id), seq}] == 0 {
			v = append(v, fmt.Sprintf("orphan seq %d: record survived without a prune marker yet was never recovery-dispatched", seq))
		} else if !s.rec.has(id, seq) {
			v = append(v, fmt.Sprintf("orphan seq %d: recovery-dispatched but never delivered to the second life's subscriber", seq))
		}
	}
	for _, tp := range e.sc.Topics {
		id := tp.ID
		if acked[id] == 0 {
			v = append(v, fmt.Sprintf("topic %d: no publish was acked before the kill — load or ack path broken", id))
			continue
		}
		// ACK = durable: the log covers every acked publish, and one life
		// or the other delivers it, within Li consecutive losses.
		var lost []uint64
		run, maxRun := 0, 0
		for seq := uint64(1); seq <= acked[id]; seq++ {
			if !s.logged[id][seq] {
				v = append(v, fmt.Sprintf("topic %d seq %d: acked as durable but absent from the surviving segments", id, seq))
			}
			if delivered(id, seq) {
				run = 0
				continue
			}
			run++
			lost = append(lost, seq)
			maxRun = max(maxRun, run)
		}
		if maxRun > tp.LossTolerance {
			v = append(v, fmt.Sprintf("topic %d: %d consecutive acked messages lost across both lives (Li=%d, acked through seq %d)",
				id, maxRun, tp.LossTolerance, acked[id]))
			e.diagnoseLost(id, lost)
		}
		// Recovery completeness: everything logged and unpruned reached life 2.
		for seq := range s.logged[id] {
			if !s.pruned[id][seq] && !s.rec.has(id, seq) {
				v = append(v, fmt.Sprintf("topic %d seq %d: in the log, not pruned, yet never recovery-dispatched to the second life", id, seq))
			}
		}
	}
	if s.segments == 0 {
		v = append(v, "no log segments survived the crash")
	}
	return v
}

// diagnoseLost writes where each acked (topic, seq) that neither life
// delivered died — whether its record and its prune marker reached the
// crashed log, and whether the first life's Primary had dispatched it — so
// a lost-ack failure names its cause without a rerun.
func (e *Env) diagnoseLost(id spec.TopicID, lost []uint64) {
	primary := e.lifeOne
	for i, seq := range lost {
		if i == maxDiagnosed {
			e.Tr.Logf(e.Clock(), "lost topic %d: %d more lost seqs not listed", id, len(lost)-i)
			return
		}
		primary.mu.Lock()
		dispatched := primary.dispatched[[2]uint64{uint64(id), seq}]
		primary.mu.Unlock()
		e.Tr.Logf(e.Clock(), "lost topic %d seq %d: in crashed log=%t, prune marker on disk=%t, dispatched by life-1 primary=%t, delivered by life 1=false, by life 2=false",
			id, seq, e.second.logged[id][seq], e.second.pruned[id][seq], dispatched)
	}
}

// graftOrphans writes a sealed segment of count message records on topic
// id into dir, named to sort after every segment the crashed broker
// wrote. The resulting file state is byte-identical to a crash that got
// these records to stable storage but lost their prune markers — the
// page-cache loss an in-process fail-stop cannot reproduce.
func graftOrphans(dir string, id spec.TopicID, count int, created time.Duration) error {
	scratch, err := os.MkdirTemp("", "frame-chaos-orphan-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	seg, _, err := diskstore.OpenSegmented(scratch, diskstore.SegmentOptions{})
	if err != nil {
		return err
	}
	for seq := uint64(1); seq <= uint64(count); seq++ {
		if err := seg.Append(wire.Message{Topic: id, Seq: seq, Created: created, Payload: []byte("orphan")}); err != nil {
			seg.Close()
			return err
		}
	}
	if err := seg.Close(); err != nil {
		return err
	}
	return os.Rename(filepath.Join(scratch, "seg-0000000000000000.log"), filepath.Join(dir, "seg-0000000000999999.log"))
}
