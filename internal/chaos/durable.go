// Dual-crash chaos: the durability plane's reason to exist. The generic
// runner (runner.go) scripts faults against a live Primary/Backup pair and
// leans on §IV-A promotion — which assumes one broker survives. These
// scenarios kill the ENTIRE pair mid-load and judge the second life: a
// broker restarted on the Primary's segmented group-commit log must
// recover every acked-but-undispatched message from its segments, must
// never re-dispatch a message whose prune marker reached the log (Table 3,
// Recovery step 1, applied to disk), and together the two lives must
// deliver every publish the broker acked as durable.
package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/faultinject"
	"repro/internal/obsv"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DurableScenario is one scripted dual-crash run against a durable pair.
type DurableScenario struct {
	Name        string
	Description string
	// Smoke marks the scenario as part of the PR-gating smoke subset.
	Smoke  bool
	Topics []spec.Topic
	Load   Load
	// KillAt is the offset at which both brokers are fail-stopped.
	KillAt time.Duration
	// FsyncInterval is the Primary's group-commit window (0 = broker
	// default, negative = fsync per publish).
	FsyncInterval time.Duration
	// SegmentBytes forces small segments so the kill window spans several
	// rolls (0 = broker default).
	SegmentBytes int64
	// Conns and InFlight shape the publishing side: Conns publisher
	// connections share the topics round-robin, and on each of them
	// InFlight goroutines publish concurrently, every one waiting for its
	// own PubAck — so a connection has up to InFlight publishes riding one
	// group commit and acknowledged in one batch (0 = 1 for either).
	Conns    int
	InFlight int
	// Orphans grafts this many records onto the crashed log before the
	// second life opens it, on a dedicated topic the pump never publishes.
	// They model the one crash shape an in-process kill cannot produce:
	// messages whose records reached stable storage while their prune
	// markers did not (lost page cache, torn batch tail). The second life
	// must recovery-dispatch every one of them exactly once — the positive
	// half of the replay contract, which a healthy first life otherwise
	// proves only vacuously because dispatch prunes within microseconds.
	Orphans int
}

// seqSet records which sequence numbers one subscriber life actually
// received, per topic — the merged-coverage invariant needs identities,
// not counts.
type seqSet struct {
	mu   sync.Mutex
	seen map[spec.TopicID]map[uint64]bool
}

func newSeqSet() *seqSet {
	return &seqSet{seen: make(map[spec.TopicID]map[uint64]bool)}
}

func (s *seqSet) note(d client.Delivery) {
	s.mu.Lock()
	m := s.seen[d.Msg.Topic]
	if m == nil {
		m = make(map[uint64]bool)
		s.seen[d.Msg.Topic] = m
	}
	m[d.Msg.Seq] = true
	s.mu.Unlock()
}

func (s *seqSet) has(topic spec.TopicID, seq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[topic][seq]
}

func (s *seqSet) count(topic spec.TopicID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen[topic])
}

// RunDurable executes one dual-crash scenario: first life (durable Primary
// + Backup + DurableAcks publisher + subscriber) up to KillAt, a fail-stop
// of the whole pair, then a second life restarted from the Primary's log
// segments with a fresh subscriber. Runs over the Mem transport so the
// restarted brokers can rebind the crashed pair's addresses.
func RunDurable(sc DurableScenario, opts RunOptions) (*Result, error) {
	log := opts.Logger
	if log == nil {
		log = quietLogger()
	}
	logDir, err := os.MkdirTemp("", "frame-chaos-durable-*")
	if err != nil {
		return nil, fmt.Errorf("chaos: log dir: %w", err)
	}
	defer os.RemoveAll(logDir)

	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	tr := &Transcript{Scenario: sc.Name, Seed: opts.Seed}
	inner := opts.Inner
	if inner == nil {
		inner = transport.NewMem()
	}
	net := faultinject.New(inner, opts.Seed)
	tr.Logf(clock(), "run start: seed=%d scenario=%q logDir=%s", opts.Seed, sc.Name, logDir)

	cfg := core.FRAMEConfig(chaosParams())
	cfg.MessageBufferCap = 4096
	cfg.BackupBufferCap = 4096

	durableOpts := func(o *broker.Options) {
		o.Durable = true
		o.LogDir = logDir
		o.FsyncInterval = sc.FsyncInterval
		o.LogSegmentBytes = sc.SegmentBytes
	}

	// Topic layout: the pump publishes sc.Topics; when Orphans > 0 one
	// extra topic exists only to carry the grafted records, so every
	// delivery on it must come from log recovery.
	allTopics := sc.Topics
	var orphanID spec.TopicID
	if sc.Orphans > 0 {
		orphanID = spec.TopicID(len(sc.Topics) + 1)
		allTopics = append(append([]spec.Topic{}, sc.Topics...), chaosTopic(orphanID, 512))
	}

	// ---- First life -----------------------------------------------------
	backup, err := broker.New(broker.Options{
		Engine: cfg, Role: broker.RoleBackup, ListenAddr: NodeBackup,
		PeerAddr: "pending", Network: net.Node(NodeBackup), Clock: clock,
		Detector: defaultDetector(), Topics: allTopics, Logger: log,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: backup: %w", err)
	}
	popts := broker.Options{
		Engine: cfg, Role: broker.RolePrimary, ListenAddr: NodePrimary,
		PeerAddr: backup.Addr(), Network: net.Node(NodePrimary), Clock: clock,
		Detector: defaultDetector(), Topics: allTopics, Logger: log,
	}
	durableOpts(&popts)
	primary, err := broker.New(popts)
	if err != nil {
		backup.Stop()
		return nil, fmt.Errorf("chaos: primary: %w", err)
	}
	backup.SetPeerAddr(primary.Addr())
	backup.Start()
	primary.Start()
	tr.Logf(clock(), "durable pair up: primary=%s backup=%s", primary.Addr(), backup.Addr())

	topicIDs := make([]spec.TopicID, len(sc.Topics)) // pump targets
	for i, tp := range sc.Topics {
		topicIDs[i] = tp.ID
	}
	allIDs := make([]spec.TopicID, len(allTopics)) // everything subscribed/judged
	for i, tp := range allTopics {
		allIDs[i] = tp.ID
	}
	life1 := newSeqSet()
	sub1, err := client.NewSubscriber(client.SubscriberOptions{
		Name: NodeSub, Topics: allIDs,
		BrokerAddrs: []string{primary.Addr(), backup.Addr()},
		Network:     net.Node(NodeSub), Clock: clock, OnDeliver: life1.note, Logger: log,
	})
	if err != nil {
		primary.Stop()
		backup.Stop()
		return nil, fmt.Errorf("chaos: subscriber: %w", err)
	}
	conns, pending := max(sc.Conns, 1), max(sc.InFlight, 1)
	pubs := make([]*client.Publisher, conns)
	owned := make([][]spec.Topic, conns) // topic i rides connection i mod conns
	for i, tp := range sc.Topics {
		owned[i%conns] = append(owned[i%conns], tp)
	}
	closePubs := func() {
		for _, p := range pubs {
			if p != nil {
				p.Close()
			}
		}
	}
	for c := range pubs {
		pubs[c], err = client.NewPublisher(client.PublisherOptions{
			Name: NodePub, Topics: owned[c],
			PrimaryAddr: primary.Addr(), BackupAddr: backup.Addr(),
			Network: net.Node(NodePub), Clock: clock, Detector: defaultDetector(), Logger: log,
			DurableAcks: true, AckTimeout: time.Second,
		})
		if err != nil {
			closePubs()
			sub1.Close()
			primary.Stop()
			backup.Stop()
			return nil, fmt.Errorf("chaos: publisher: %w", err)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if primary.Health().EgressSubs >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Pump with ack accounting: acked[topic] is the highest sequence the
	// broker confirmed durable. A connection sends a topic's publishes in
	// sequence order and the broker stages them in arrival order, so an ack
	// for seq n certifies every lower seq of that topic as well, even one
	// whose own ack a sibling goroutine had not yet received at the kill.
	var ackMu sync.Mutex
	acked := make(map[spec.TopicID]uint64)
	publishErrs := 0
	var pumps sync.WaitGroup
	pumpStop := make(chan struct{})
	for c := range pubs {
		for g := 0; g < pending; g++ {
			pub, topics := pubs[c], owned[c]
			pumps.Add(1)
			go func() {
				defer pumps.Done()
				payload := make([]byte, sc.Load.PayloadSize)
				ticker := time.NewTicker(sc.Load.Interval)
				defer ticker.Stop()
				for i := 0; i < sc.Load.Count; i++ {
					for _, tp := range topics {
						seq, err := pub.Publish(tp.ID, payload)
						ackMu.Lock()
						if err != nil {
							publishErrs++
						} else if seq > acked[tp.ID] {
							acked[tp.ID] = seq
						}
						ackMu.Unlock()
					}
					select {
					case <-ticker.C:
					case <-pumpStop:
						return
					}
				}
			}()
		}
	}

	if wait := sc.KillAt - clock(); wait > 0 {
		time.Sleep(wait)
	}
	// The dual crash, with the pumps still publishing — so it lands on
	// staged records, half-written batches and acks in flight: reset every
	// connection touching either broker, then fail-stop both. Backup first,
	// so it cannot promote and start a recovery dispatch run of its own
	// mid-teardown. Publishes cut off by the kill return errors and count
	// as such; only what was acknowledged is judged.
	tr.Logf(clock(), "kill: fail-stopping the entire pair")
	net.ResetNode(NodeBackup)
	net.ResetNode(NodePrimary)
	backup.Kill()
	primary.Kill()
	close(pumpStop)
	closePubs() // releases the publishes still parked on an ack
	pumps.Wait()
	sub1.Close()
	ackedAtKill, errsAtKill := acked, publishErrs
	tr.Logf(clock(), "kill done: acked=%v publishErrs=%d delivered(life1)=%v",
		ackedAtKill, errsAtKill, countAll(life1, topicIDs))

	// Graft the orphan cohort: records on stable storage with no prune
	// marker, the crash shape the second life's recovery exists for.
	if sc.Orphans > 0 {
		if err := graftOrphans(logDir, orphanID, sc.Orphans, clock()); err != nil {
			return nil, fmt.Errorf("chaos: grafting orphan segment: %w", err)
		}
		tr.Logf(clock(), "grafted %d orphan records on topic %d (records synced, prune markers lost)",
			sc.Orphans, orphanID)
	}

	// Read what actually survived on disk — the ground truth the second
	// life is judged against. OpenSegmented also truncates any torn tail,
	// exactly as the restarted broker's open will.
	seg, replay, err := diskstore.OpenSegmented(logDir, diskstore.SegmentOptions{SegmentBytes: sc.SegmentBytes})
	if err != nil {
		return nil, fmt.Errorf("chaos: reading crashed log: %w", err)
	}
	segCount := seg.Segments()
	if err := seg.Close(); err != nil {
		return nil, fmt.Errorf("chaos: closing crashed log: %w", err)
	}
	logged := make(map[spec.TopicID]map[uint64]bool)
	for _, m := range replay.Messages {
		if logged[m.Topic] == nil {
			logged[m.Topic] = make(map[uint64]bool)
		}
		logged[m.Topic][m.Seq] = true
	}
	pruned := make(map[spec.TopicID]map[uint64]bool)
	for _, pr := range replay.Prunes {
		if pruned[pr.Topic] == nil {
			pruned[pr.Topic] = make(map[uint64]bool)
		}
		pruned[pr.Topic][pr.Seq] = true
	}
	tr.Logf(clock(), "crashed log: %d messages, %d prunes, %d segments",
		len(replay.Messages), len(replay.Prunes), segCount)

	// ---- Second life ----------------------------------------------------
	traces := newTraceRecorder()
	obs2 := obsv.NewBrokerMetrics()
	obs2.SetTracer(traces.note)
	p2opts := broker.Options{
		Engine: cfg, Role: broker.RolePrimary, ListenAddr: NodePrimary,
		Network: net.Node(NodePrimary), Clock: clock,
		Detector: defaultDetector(), Topics: allTopics, Logger: log,
		Obs: obs2, HoldRecovery: true,
	}
	durableOpts(&p2opts)
	primary2, err := broker.New(p2opts)
	if err != nil {
		return nil, fmt.Errorf("chaos: restart primary: %w", err)
	}
	primary2.Start()
	tr.Logf(clock(), "second life up: primary=%s", primary2.Addr())

	life2 := newSeqSet()
	rec2 := NewRecorder()
	sub2, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "sub2", Topics: allIDs,
		BrokerAddrs: []string{primary2.Addr()},
		Network:     net.Node("sub2"), Clock: clock, OnDeliver: life2.note,
		OnFrame: rec2.Note, Logger: log,
	})
	if err != nil {
		primary2.Stop()
		return nil, fmt.Errorf("chaos: second-life subscriber: %w", err)
	}
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if primary2.Health().EgressSubs >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	primary2.RecoverFromLog()
	tr.Logf(clock(), "recovery scheduled from log")

	// Drain: the recovery backlog is exactly the logged-but-unpruned set.
	want := make(map[spec.TopicID]int)
	for id, seqs := range logged {
		for seq := range seqs {
			if !pruned[id][seq] {
				want[id]++
			}
		}
	}
	drainDeadline := time.Now().Add(drainTimeout)
	lastTotal, quietSince := 0, time.Now()
	for time.Now().Before(drainDeadline) {
		total, complete := 0, true
		for _, id := range allIDs {
			got := life2.count(id)
			total += got
			if got < want[id] {
				complete = false
			}
		}
		if complete {
			break
		}
		if total != lastTotal {
			lastTotal, quietSince = total, time.Now()
		} else if time.Since(quietSince) > drainQuiet {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	tr.Logf(clock(), "second-life drain done: delivered=%v want=%v", countAll(life2, allIDs), want)

	sub2.Close()
	primary2.Stop()

	// ---- Judgment -------------------------------------------------------
	var failures []string
	// Table 3 on disk: a message whose prune record survived must never be
	// recovery-dispatched, and nothing recovers twice. violations() covers
	// trace-observed prunes; the crashed log's prune records are the
	// durable ground truth, so check the recovery dispatches against them
	// directly too.
	failures = append(failures, traces.violations()...)
	traces.mu.Lock()
	for key := range traces.recovered {
		if pruned[spec.TopicID(key[0])][key[1]] {
			failures = append(failures, fmt.Sprintf(
				"topic %d seq %d: prune record survived on disk yet the second life recovery-dispatched it", key[0], key[1]))
		}
	}
	traces.mu.Unlock()
	for _, id := range allIDs {
		if sc.Orphans > 0 && id == orphanID {
			// The orphan cohort is the positive half of the replay contract:
			// a record with no prune marker MUST be recovery-dispatched (once
			// — violations() flags duplicates) and reach the new subscriber.
			traces.mu.Lock()
			for seq := uint64(1); seq <= uint64(sc.Orphans); seq++ {
				if traces.recovered[[2]uint64{uint64(id), seq}] == 0 {
					failures = append(failures, fmt.Sprintf(
						"orphan seq %d: record survived without a prune marker yet was never recovery-dispatched", seq))
				} else if !life2.has(id, seq) {
					failures = append(failures, fmt.Sprintf(
						"orphan seq %d: recovery-dispatched but never delivered to the second life's subscriber", seq))
				}
			}
			traces.mu.Unlock()
			continue
		}
		if ackedAtKill[id] == 0 {
			failures = append(failures, fmt.Sprintf("topic %d: no publish was acked before the kill — load or ack path broken", id))
			continue
		}
		// ACK = durable: every acked sequence survives the dual crash,
		// delivered by one life or the other. Li = 0 for these topics, so
		// this is also the consecutive-loss bound over the acked range.
		loss, maxRun := 0, 0
		for seq := uint64(1); seq <= ackedAtKill[id]; seq++ {
			if life1.has(id, seq) || life2.has(id, seq) {
				loss = 0
				continue
			}
			loss++
			if loss > maxRun {
				maxRun = loss
			}
		}
		if li := lossToleranceOf(sc.Topics, id); maxRun > li {
			failures = append(failures, fmt.Sprintf(
				"topic %d: %d consecutive acked messages lost across both lives (Li=%d, acked through seq %d)",
				id, maxRun, li, ackedAtKill[id]))
		}
		// Recovery completeness: everything logged and unpruned reached
		// the second life's subscriber.
		for seq := range logged[id] {
			if !pruned[id][seq] && !life2.has(id, seq) {
				failures = append(failures, fmt.Sprintf(
					"topic %d seq %d: in the log, not pruned, yet never recovery-dispatched to the second life", id, seq))
			}
		}
		// And the log itself must cover every acked publish — fsync-before
		// -ack is the contract the whole plane sells.
		for seq := uint64(1); seq <= ackedAtKill[id]; seq++ {
			if !logged[id][seq] {
				failures = append(failures, fmt.Sprintf(
					"topic %d seq %d: acked as durable but absent from the surviving segments", id, seq))
			}
		}
	}
	if segCount == 0 {
		failures = append(failures, "no log segments survived the crash")
	}

	res := &Result{
		Scenario:    sc.Name,
		Seed:        opts.Seed,
		Failures:    failures,
		Transcript:  tr,
		Frames:      rec2.TotalFrames(),
		PublishErrs: errsAtKill,
		Elapsed:     time.Since(start),
	}
	for _, id := range allIDs {
		res.Published += ackedAtKill[id]
		res.Delivered += uint64(life1.count(id) + life2.count(id))
	}
	tr.Logf(clock(), "result: acked=%d delivered(both lives)=%d failures=%d",
		res.Published, res.Delivered, len(res.Failures))
	if !res.Passed() && opts.ArtifactsDir != "" {
		if path, err := tr.WriteFile(opts.ArtifactsDir, res.Failures); err == nil {
			res.ArtifactPath = path
		}
	}
	return res, nil
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
	payload := []byte("orphan")
	for seq := uint64(1); seq <= uint64(count); seq++ {
		if err := seg.Append(wire.Message{Topic: id, Seq: seq, Created: created, Payload: payload}); err != nil {
			seg.Close()
			return err
		}
	}
	if err := seg.Close(); err != nil {
		return err
	}
	return os.Rename(filepath.Join(scratch, "seg-0000000000000000.log"),
		filepath.Join(dir, "seg-0000000000999999.log"))
}

func countAll(s *seqSet, ids []spec.TopicID) map[spec.TopicID]int {
	out := make(map[spec.TopicID]int, len(ids))
	for _, id := range ids {
		out[id] = s.count(id)
	}
	return out
}

func lossToleranceOf(topics []spec.Topic, id spec.TopicID) int {
	for _, tp := range topics {
		if tp.ID == id {
			return tp.LossTolerance
		}
	}
	return 0
}
