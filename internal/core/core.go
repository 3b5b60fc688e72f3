// Package core implements the FRAME architecture's broker-side state
// machine (paper §IV): the Message Proxy with its Job Generator, the
// Message Buffer and Backup Buffer, deadline assignment per Lemmas 1–2,
// selective replication per Proposition 1, the dispatch–replicate
// coordination algorithm of Table 3, and the recovery procedure that prunes
// the set of message copies to re-dispatch after a promotion.
//
// The engine is a deterministic, transport-free state machine: callers feed
// it arrivals and completed work, and it hands back jobs and coordination
// commands. Two runtimes drive it — the real-time broker in package broker
// (goroutine worker pool over TCP) and the discrete-event simulator in
// package simcluster (virtual time). Keeping the contribution here, behind
// a synchronous API, is what lets both stacks share one implementation.
//
// Concurrency: with Config.Lanes ≤ 1 the engine is not safe for concurrent
// use; runtimes serialize access, as before. With Lanes > 1 the job queue
// and the per-topic state shard by topic hash (queue.LaneFor) into
// independent dispatch lanes, and the engine supports lane-parallel use
// under the following contract, which package broker implements with one
// mutex per lane:
//
//   - AddTopic completes before any concurrent use.
//   - Calls that name a topic (OnPublish, OnReplica and their Buf forms,
//     OnPrune, OnDispatched, OnReplicated, BackupBufferLen) run under the
//     lock of that topic's lane (LaneFor).
//   - NextWorkLane(l) runs under lane l's lock and only returns work for
//     topics of lane l.
//   - Promote and whole-queue calls (NextWork, QueueLen, PeekDeadline) run
//     with every lane lock held.
//   - Stats is safe anywhere: all activity counters are atomic.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/queue"
	"repro/internal/ringbuf"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/wire"
)

// ErrUnknownTopic reports a message naming a topic this engine does not
// serve. In a sharded cluster that is the routine signal that a publisher
// holds a stale routing table: the broker answers with a WrongShard
// redirect instead of treating it as a protocol fault (package cluster).
var ErrUnknownTopic = errors.New("core: unknown topic")

// Config selects the scheduling and fault-tolerance behavior of an engine.
// The four evaluation configurations of §VI map to:
//
//	FRAME:  {Policy: EDF,  SelectiveReplication: true,  Coordination: true}
//	FRAME+: same as FRAME with the workload's Ni raised (spec.BoostRetention)
//	FCFS:   {Policy: FCFS, SelectiveReplication: false, Coordination: true}
//	FCFS−:  {Policy: FCFS, SelectiveReplication: false, Coordination: false}
type Config struct {
	// Params are the deployment timing parameters used for deadline
	// computation (ΔBS per destination, ΔBB, fail-over time x).
	Params timing.Params
	// Policy picks the job queue discipline.
	Policy queue.Policy
	// SelectiveReplication enables Proposition 1: topics whose dispatch
	// deadline is no later than their replication deadline are not
	// replicated at all.
	SelectiveReplication bool
	// Coordination enables the Table 3 dispatch–replicate coordination:
	// dispatched messages abort their pending replication and prune their
	// Backup copy.
	Coordination bool
	// ReplicateFirst makes the Job Generator enqueue the replication job
	// before the dispatch job for each arrival, as the FCFS baselines do
	// ("the Primary first performed replication and then dispatch", §VI-A).
	// Under EDF the queue order is deadline-driven and this only breaks
	// ties.
	ReplicateFirst bool
	// MessageBufferCap is the per-topic Message Buffer capacity. Zero means
	// DefaultMessageBufferCap.
	MessageBufferCap int
	// BackupBufferCap is the per-topic Backup Buffer capacity. Zero means
	// DefaultBackupBufferCap (ten, the §VI-C setting).
	BackupBufferCap int
	// HasBackup declares whether a Backup broker exists to replicate to.
	// A promoted Backup runs with HasBackup=false: the paper's scope is one
	// broker failure, so the new Primary does not re-replicate.
	HasBackup bool
	// MeterQueue wraps the job queue in queue.NewMetered, making depth and
	// push/pop counters readable without the engine lock (QueueMeter). The
	// broker runtime enables this for its admin endpoint; the simulator
	// leaves it off.
	MeterQueue bool
	// Lanes shards the EDF job queue and the engine's topic state into this
	// many parallel dispatch lanes keyed by topic hash (queue.LaneFor). The
	// per-topic deadlines of Lemmas 1–2 are independent across topics, so
	// EDF-within-lane preserves every per-topic guarantee while lanes run
	// concurrently (see the package comment for the locking contract).
	// 0 or 1 keeps the single global queue; values > 1 require PolicyEDF.
	Lanes int
}

// Default buffer capacities.
const (
	DefaultMessageBufferCap = 16
	// DefaultBackupBufferCap follows §VI-C: "We set the size of the Backup
	// Buffer to ten for each topic."
	DefaultBackupBufferCap = 10
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.Policy != queue.PolicyEDF && c.Policy != queue.PolicyFCFS {
		return fmt.Errorf("core: unknown policy %d", int(c.Policy))
	}
	if c.MessageBufferCap < 0 || c.BackupBufferCap < 0 {
		return fmt.Errorf("core: negative buffer capacity")
	}
	if c.Lanes < 0 {
		return fmt.Errorf("core: negative lane count %d", c.Lanes)
	}
	if c.Lanes > 1 && c.Policy != queue.PolicyEDF {
		return fmt.Errorf("core: %d lanes require the EDF policy, got %v", c.Lanes, c.Policy)
	}
	return nil
}

// FRAMEConfig returns the FRAME configuration of §VI over the given params.
func FRAMEConfig(p timing.Params) Config {
	return Config{
		Params:               p,
		Policy:               queue.PolicyEDF,
		SelectiveReplication: true,
		Coordination:         true,
		HasBackup:            true,
	}
}

// FCFSConfig returns the FCFS baseline of §VI: no differentiation, arrival
// order, replicate-then-dispatch, with coordination.
func FCFSConfig(p timing.Params) Config {
	return Config{
		Params:         p,
		Policy:         queue.PolicyFCFS,
		Coordination:   true,
		ReplicateFirst: true,
		HasBackup:      true,
	}
}

// FCFSMinusConfig returns FCFS−: FCFS without dispatch–replicate
// coordination.
func FCFSMinusConfig(p timing.Params) Config {
	cfg := FCFSConfig(p)
	cfg.Coordination = false
	return cfg
}

// entry is one message copy in the Message Buffer or Backup Buffer, with
// the Table 3 flags.
type entry struct {
	msg wire.Message
	// buf is the entry's reference to the buffer msg.Payload points into; nil
	// for a runtime that carries no payload bytes, and once released.
	buf            *wire.FrameBuf
	arrivedPrimary time.Duration // tp of the original arrival
	dispatched     bool
	replicating    bool // replicate work handed to a Replicator (in flight)
	replicated     bool
	discard        bool
}

// release drops the entry's buffer reference, if it still holds one: the
// payload can no longer be read through this entry.
func (ent *entry) release() {
	if ent.buf != nil {
		ent.buf.Release()
		ent.buf = nil
		ent.msg.Payload = nil
	}
}

// topicState is the engine's per-topic bookkeeping.
type topicState struct {
	spec spec.Topic
	// Pseudo relative deadlines (§IV-A), computed once at AddTopic.
	dispatchPseudo    time.Duration
	replicationPseudo time.Duration
	// replicate is the configuration-time Proposition 1 verdict.
	replicate bool

	buffer *ringbuf.Ring[entry] // Message Buffer (Primary role)
	backup *ringbuf.Ring[entry] // Backup Buffer (Backup role)

	// pendingPrunes records Discard requests that arrived before their
	// replica (Prune and Replicate frames race on independent paths through
	// the delivery pool). Bounded FIFO: at most BackupBufferCap entries.
	pendingPrunes map[uint64]bool
	pruneOrder    []uint64
}

// notePendingPrune records an early prune, evicting the oldest once the set
// reaches the Backup Buffer capacity (an older pending prune whose replica
// still has not arrived refers to a send that failed; dropping it is safe).
func (st *topicState) notePendingPrune(seq uint64, capacity int) {
	if st.pendingPrunes == nil {
		st.pendingPrunes = make(map[uint64]bool, capacity)
	}
	if st.pendingPrunes[seq] {
		return
	}
	if len(st.pruneOrder) >= capacity {
		oldest := st.pruneOrder[0]
		st.pruneOrder = st.pruneOrder[1:]
		delete(st.pendingPrunes, oldest)
	}
	st.pendingPrunes[seq] = true
	st.pruneOrder = append(st.pruneOrder, seq)
}

// takePendingPrune consumes an early prune for seq if one is recorded.
func (st *topicState) takePendingPrune(seq uint64) bool {
	if !st.pendingPrunes[seq] {
		return false
	}
	delete(st.pendingPrunes, seq)
	for i, s := range st.pruneOrder {
		if s == seq {
			st.pruneOrder = append(st.pruneOrder[:i], st.pruneOrder[i+1:]...)
			break
		}
	}
	return true
}

// Stats counts engine activity for the Fig. 7 accounting and for tests.
type Stats struct {
	Published        uint64 // messages accepted by the proxy
	DispatchJobs     uint64 // dispatch jobs generated
	ReplicationJobs  uint64 // replication jobs generated
	SuppressedTopics uint64 // topics whose replication Prop. 1 removed
	AbortedReplicas  uint64 // replication jobs aborted (Table 3 Replicate.1)
	PrunesSent       uint64 // prune requests issued (Table 3 Dispatch.3)
	PrunesApplied    uint64 // Discard flags set on the Backup
	ReplicasStored   uint64 // copies stored in the Backup Buffer
	RecoveryJobs     uint64 // dispatch jobs created during promotion
	RecoverySkipped  uint64 // Backup Buffer entries skipped via Discard
	EvictedMessages  uint64 // Message Buffer evictions (ring wrap-around)
}

// engineStats is the live, atomic form of Stats. Lane workers on different
// lanes increment these concurrently, and runtimes snapshot them without
// any lock (Broker.Stats, the admin endpoint's scrape), so every counter is
// an atomic add rather than a plain word.
type engineStats struct {
	published        atomic.Uint64
	dispatchJobs     atomic.Uint64
	replicationJobs  atomic.Uint64
	suppressedTopics atomic.Uint64
	abortedReplicas  atomic.Uint64
	prunesSent       atomic.Uint64
	prunesApplied    atomic.Uint64
	replicasStored   atomic.Uint64
	recoveryJobs     atomic.Uint64
	recoverySkipped  atomic.Uint64
	evictedMessages  atomic.Uint64
}

func (s *engineStats) snapshot() Stats {
	return Stats{
		Published:        s.published.Load(),
		DispatchJobs:     s.dispatchJobs.Load(),
		ReplicationJobs:  s.replicationJobs.Load(),
		SuppressedTopics: s.suppressedTopics.Load(),
		AbortedReplicas:  s.abortedReplicas.Load(),
		PrunesSent:       s.prunesSent.Load(),
		PrunesApplied:    s.prunesApplied.Load(),
		ReplicasStored:   s.replicasStored.Load(),
		RecoveryJobs:     s.recoveryJobs.Load(),
		RecoverySkipped:  s.recoverySkipped.Load(),
		EvictedMessages:  s.evictedMessages.Load(),
	}
}

// Engine is the FRAME broker state machine. One Engine instance plays one
// role at a time: Primary (OnPublish/OnDispatched/OnReplicated) or Backup
// (OnReplica/OnPrune), switching roles at Promote.
type Engine struct {
	cfg     Config
	lanes   int
	topics  map[spec.TopicID]*topicState
	jobs    queue.Queue
	sharded *queue.ShardedEDF // non-nil iff lanes > 1
	meter   *queue.Metered    // non-nil iff cfg.MeterQueue
	stats   engineStats
}

// New returns an engine with no topics.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MessageBufferCap == 0 {
		cfg.MessageBufferCap = DefaultMessageBufferCap
	}
	if cfg.BackupBufferCap == 0 {
		cfg.BackupBufferCap = DefaultBackupBufferCap
	}
	if cfg.Lanes < 1 {
		cfg.Lanes = 1
	}
	e := &Engine{
		cfg:    cfg,
		lanes:  cfg.Lanes,
		topics: make(map[spec.TopicID]*topicState),
	}
	if e.lanes > 1 {
		e.sharded = queue.NewShardedEDF(e.lanes)
		e.jobs = e.sharded
	} else {
		e.jobs = queue.New(cfg.Policy)
	}
	if cfg.MeterQueue {
		e.meter = queue.NewMetered(e.jobs)
		e.jobs = e.meter
	}
	return e, nil
}

// Lanes returns the number of dispatch lanes (1 without sharding).
func (e *Engine) Lanes() int { return e.lanes }

// LaneFor returns the dispatch lane the topic's jobs route to.
func (e *Engine) LaneFor(id spec.TopicID) int { return queue.LaneFor(id, e.lanes) }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a snapshot of the activity counters. Unlike most Engine
// methods it is safe to call from any goroutine without holding lane locks:
// every counter is atomic.
func (e *Engine) Stats() Stats { return e.stats.snapshot() }

// QueueLen returns the number of pending jobs.
func (e *Engine) QueueLen() int { return e.jobs.Len() }

// QueueMeter returns the job queue's meters when Config.MeterQueue is set,
// else nil. Unlike every other Engine method, the meter's accessors are
// safe to read without the runtime's engine lock.
func (e *Engine) QueueMeter() *queue.Metered { return e.meter }

// AddTopic registers a topic, computing its pseudo relative deadlines
// Dd' = Di − ΔBS and Dr' = (Ni+Li)·Ti − ΔBB − x (§IV-A) and the
// Proposition 1 replication verdict. It rejects topics that fail the
// admission test of §III-D-1.
func (e *Engine) AddTopic(t spec.Topic) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if _, ok := e.topics[t.ID]; ok {
		return fmt.Errorf("core: topic %d already registered", t.ID)
	}
	if err := timing.Admissible(t, e.cfg.Params); err != nil {
		return err
	}
	st := &topicState{
		spec:              t,
		dispatchPseudo:    timing.DispatchPseudoDeadline(t, e.cfg.Params),
		replicationPseudo: timing.ReplicationPseudoDeadline(t, e.cfg.Params),
		buffer:            ringbuf.New[entry](e.cfg.MessageBufferCap),
		backup:            ringbuf.New[entry](e.cfg.BackupBufferCap),
	}
	st.replicate = e.needsReplication(t)
	if !st.replicate && !t.BestEffort() {
		e.stats.suppressedTopics.Add(1)
	}
	e.topics[t.ID] = st
	return nil
}

// needsReplication decides at configuration time whether replication jobs
// will be generated for the topic.
func (e *Engine) needsReplication(t spec.Topic) bool {
	if !e.cfg.HasBackup {
		return false
	}
	if t.BestEffort() {
		// Best-effort subscribers ask for nothing; even the FCFS baseline
		// has no contract to protect, but the undifferentiated baseline
		// replicates everything anyway — that is exactly its flaw.
		if e.cfg.SelectiveReplication {
			return false
		}
		return true
	}
	if !e.cfg.SelectiveReplication {
		return true
	}
	return timing.NeedsReplication(t, e.cfg.Params)
}

// Topic returns the registered spec for id.
func (e *Engine) Topic(id spec.TopicID) (spec.Topic, bool) {
	st, ok := e.topics[id]
	if !ok {
		return spec.Topic{}, false
	}
	return st.spec, true
}

// CheckTopic reports whether id names a registered topic, returning the
// same wrapped ErrUnknownTopic that OnPublish would. The topics map is
// immutable after Start, so — like Topic — this is safe to call lock-free
// from any goroutine; the broker uses it to answer WrongShard redirects
// synchronously on the session goroutine before the asynchronous lane
// intake ever sees the frame.
func (e *Engine) CheckTopic(id spec.TopicID) error {
	if _, ok := e.topics[id]; !ok {
		return fmt.Errorf("%w %d (publish)", ErrUnknownTopic, id)
	}
	return nil
}

// WillReplicate reports the configuration-time replication verdict for id.
func (e *Engine) WillReplicate(id spec.TopicID) bool {
	st, ok := e.topics[id]
	return ok && st.replicate
}

// Topics returns the IDs of all registered topics (unspecified order).
func (e *Engine) Topics() []spec.TopicID {
	ids := make([]spec.TopicID, 0, len(e.topics))
	for id := range e.topics {
		ids = append(ids, id)
	}
	return ids
}

// OnPublish accepts a message arrival at the broker at local time now (tp)
// and generates its dispatch job and, if the topic replicates, its
// replication job (§IV-A). The Job Generator derives absolute deadlines by
// subtracting the observed ΔPB = now − m.Created from the pseudo relative
// deadlines, which lands on tc + Dd' and tc + Dr'.
//
// The engine never copies a payload: this form is for runtimes that carry
// none (the simulators) or whose m.Payload outlives the message.
func (e *Engine) OnPublish(m wire.Message, now time.Duration) error {
	return e.OnPublishBuf(m, nil, now)
}

// OnPublishBuf is OnPublish for a message whose payload points into buf (see
// wire.CopyMessage). On success the Message Buffer entry takes over the
// caller's reference; on error the caller keeps it.
func (e *Engine) OnPublishBuf(m wire.Message, buf *wire.FrameBuf, now time.Duration) error {
	st, ok := e.topics[m.Topic]
	if !ok {
		return fmt.Errorf("%w %d (publish)", ErrUnknownTopic, m.Topic)
	}
	e.stats.published.Add(1)
	idx, evicted := st.buffer.PushInPlace(func(slot *entry) {
		slot.release()
		*slot = entry{msg: m, buf: buf, arrivedPrimary: now}
	})
	if evicted {
		e.stats.evictedMessages.Add(1)
	}

	dispatch := queue.Job{
		Kind:        queue.KindDispatch,
		Topic:       m.Topic,
		Seq:         m.Seq,
		BufferIndex: idx,
		Release:     now,
		Deadline:    m.Created + st.dispatchPseudo,
	}
	var replicate *queue.Job
	if st.replicate {
		j := queue.Job{
			Kind:        queue.KindReplicate,
			Topic:       m.Topic,
			Seq:         m.Seq,
			BufferIndex: idx,
			Release:     now,
			Deadline:    deadlineOrMax(m.Created, st.replicationPseudo),
		}
		replicate = &j
		e.stats.replicationJobs.Add(1)
	}
	e.stats.dispatchJobs.Add(1)

	if replicate != nil && e.cfg.ReplicateFirst {
		e.jobs.Push(*replicate)
		e.jobs.Push(dispatch)
		return nil
	}
	e.jobs.Push(dispatch)
	if replicate != nil {
		e.jobs.Push(*replicate)
	}
	return nil
}

func deadlineOrMax(created, pseudo time.Duration) time.Duration {
	if pseudo == timing.NoDeadline {
		return timing.NoDeadline
	}
	return created + pseudo
}

// WorkKind is what a popped job resolved to.
type WorkKind int

// Work kinds.
const (
	// WorkNone means the job is stale (evicted or aborted); do nothing.
	WorkNone WorkKind = iota
	// WorkDispatch means push Msg to the topic's subscribers.
	WorkDispatch
	// WorkReplicate means push Msg to the Backup.
	WorkReplicate
)

// Work is the resolved action for a popped job.
//
// Ownership: for a message stored with a buffer (OnPublishBuf, OnReplicaBuf)
// Buf is a reference taken for the caller under the lane lock, so Msg.Payload
// stays valid after the lock is released however often the topic's ring
// wraps; the caller releases it when the job is done. InPlace says the ring
// entry held the only other reference then — no frame of this message was
// queued anywhere — and since only the lane's dispatcher queues frames, it
// may Reframe Buf and queue that very buffer instead of encoding a copy.
// Without a buffer Buf is nil and Msg.Payload is what OnPublish was given.
type Work struct {
	Kind    WorkKind
	Job     queue.Job
	Msg     wire.Message
	Buf     *wire.FrameBuf
	InPlace bool
	// ArrivedPrimary is tp for replicate frames and for recovery dispatches.
	ArrivedPrimary time.Duration
	// LossTolerance is the topic's Li, carried with each dispatch so the
	// broker's egress shed policy can bound consecutive drops per topic
	// without a topic-table lookup on the hot path.
	LossTolerance int
}

// NextWork pops the next job and resolves it against the buffers and the
// Table 3 flags, applying the Replicate-step-1 abort ("if Dispatched is
// True, abort") when coordination is on. It returns ok=false when the queue
// is empty.
func (e *Engine) NextWork() (Work, bool) {
	for {
		j, ok := e.jobs.Pop()
		if !ok {
			return Work{}, false
		}
		w := e.resolve(j)
		if w.Kind == WorkNone {
			continue
		}
		return w, true
	}
}

// NextWorkLane pops the next job of one dispatch lane and resolves it like
// NextWork. It must run under the lane's lock (see the package comment) and
// never touches the state of other lanes' topics. With Lanes ≤ 1 it behaves
// exactly like NextWork regardless of the lane argument.
func (e *Engine) NextWorkLane(lane int) (Work, bool) {
	if e.sharded == nil {
		return e.NextWork()
	}
	for {
		var j queue.Job
		var ok bool
		if e.meter != nil {
			j, ok = e.meter.PopLane(lane)
		} else {
			j, ok = e.sharded.PopLane(lane)
		}
		if !ok {
			return Work{}, false
		}
		w := e.resolve(j)
		if w.Kind == WorkNone {
			continue
		}
		return w, true
	}
}

// PeekDeadlineLane returns the deadline of lane's next job without popping.
// It must run under the lane's lock. With Lanes ≤ 1 it behaves like
// PeekDeadline.
func (e *Engine) PeekDeadlineLane(lane int) (time.Duration, bool) {
	if e.sharded == nil {
		return e.PeekDeadline()
	}
	j, ok := e.sharded.PeekLane(lane)
	if !ok {
		return 0, false
	}
	return j.Deadline, true
}

// PeekDeadline returns the deadline of the next job without popping.
func (e *Engine) PeekDeadline() (time.Duration, bool) {
	j, ok := e.jobs.Peek()
	if !ok {
		return 0, false
	}
	return j.Deadline, true
}

func (e *Engine) resolve(j queue.Job) Work {
	st, ok := e.topics[j.Topic]
	if !ok {
		return Work{Kind: WorkNone}
	}
	buf := st.buffer
	if j.Recovery {
		buf = st.backup
	}
	ent, ok := buf.Get(j.BufferIndex)
	if !ok || ent.msg.Seq != j.Seq {
		// Evicted or overwritten since the job was generated.
		return Work{Kind: WorkNone}
	}
	switch j.Kind {
	case queue.KindDispatch:
		if ent.dispatched || ent.discard {
			// discard: a prune that arrived after the recovery job was queued.
			return Work{Kind: WorkNone}
		}
		return ent.work(WorkDispatch, j, st.spec.LossTolerance)
	case queue.KindReplicate:
		if e.cfg.Coordination && ent.dispatched {
			e.stats.abortedReplicas.Add(1)
			return Work{Kind: WorkNone}
		}
		// Mark the replication in flight at hand-out time so a dispatch that
		// completes while the Replicator is still sending knows a replica
		// will exist at the Backup and must be pruned. Without this, the
		// Backup would keep a stale copy and re-dispatch it at recovery.
		buf.Update(j.BufferIndex, func(p *entry) { p.replicating = true })
		return ent.work(WorkReplicate, j, 0)
	default:
		return Work{Kind: WorkNone}
	}
}

// work hands the entry's message out as Work, with a buffer reference of its
// own when the entry holds one. Runs under the lane lock, which is what makes
// the InPlace verdict race-free: nothing else can add a holder meanwhile.
func (ent *entry) work(kind WorkKind, j queue.Job, li int) Work {
	w := Work{Kind: kind, Job: j, Msg: ent.msg, Buf: ent.buf, ArrivedPrimary: ent.arrivedPrimary, LossTolerance: li}
	if ent.buf != nil {
		w.InPlace = ent.buf.Exclusive()
		ent.buf.Retain()
	}
	return w
}

// Coordination is the engine's instruction to the runtime after a dispatch
// completes (Table 3, Dispatch steps 2–3).
type Coordination struct {
	// SendPrune asks the runtime to send a Prune frame for (Topic, Seq) to
	// the Backup, because a replica of a now-dispatched message is there.
	SendPrune bool
	Topic     spec.TopicID
	Seq       uint64
}

// OnDispatched records the completion of a dispatch job: the message went
// out to every subscriber. It sets the Dispatched flag and, when
// coordination is on and a replica was already sent, requests a prune.
func (e *Engine) OnDispatched(j queue.Job) Coordination {
	st, ok := e.topics[j.Topic]
	if !ok {
		return Coordination{}
	}
	buf := st.buffer
	if j.Recovery {
		buf = st.backup
	}
	var replicated bool
	buf.Update(j.BufferIndex, func(ent *entry) {
		ent.dispatched = true
		replicated = ent.replicated || ent.replicating
		// Nothing reads the payload through the entry again unless a
		// replicate job is still to be handed out, which coordination aborts.
		if replicated || !st.replicate || e.cfg.Coordination || j.Recovery {
			ent.release()
		}
	})
	if e.cfg.Coordination && replicated && e.cfg.HasBackup {
		e.stats.prunesSent.Add(1)
		return Coordination{SendPrune: true, Topic: j.Topic, Seq: j.Seq}
	}
	return Coordination{}
}

// OnReplicated records the completion of a replication job (Table 3,
// Replicate step 3).
func (e *Engine) OnReplicated(j queue.Job) {
	st, ok := e.topics[j.Topic]
	if !ok {
		return
	}
	st.buffer.Update(j.BufferIndex, func(ent *entry) {
		ent.replicated = true
		if ent.dispatched {
			ent.release()
		}
	})
}

// OnReplica stores a message copy arriving from the Primary into the Backup
// Buffer (Backup role). arrivedPrimary is the original tp carried in the
// Replicate frame. Like OnPublish it is the form without payload ownership.
func (e *Engine) OnReplica(m wire.Message, arrivedPrimary time.Duration) error {
	return e.OnReplicaBuf(m, nil, arrivedPrimary)
}

// OnReplicaBuf is OnReplica for a message whose payload points into buf. On
// success the Backup Buffer entry takes over the caller's reference (dropping
// it at once when a prune outran the copy); on error the caller keeps it.
func (e *Engine) OnReplicaBuf(m wire.Message, buf *wire.FrameBuf, arrivedPrimary time.Duration) error {
	st, ok := e.topics[m.Topic]
	if !ok {
		return fmt.Errorf("%w %d (replica)", ErrUnknownTopic, m.Topic)
	}
	discard := false
	if st.takePendingPrune(m.Seq) {
		discard = true
		e.stats.prunesApplied.Add(1)
	}
	st.backup.PushInPlace(func(slot *entry) {
		slot.release()
		*slot = entry{msg: m, buf: buf, arrivedPrimary: arrivedPrimary, discard: discard}
		if discard {
			slot.release() // a discarded copy is never dispatched
		}
	})
	e.stats.replicasStored.Add(1)
	return nil
}

// OnPrune applies a Discard request from the Primary (Table 3, Recovery
// step 1 precondition). Unknown sequence numbers are ignored: the copy may
// already have been evicted by ring wrap-around.
func (e *Engine) OnPrune(topic spec.TopicID, seq uint64) {
	st, ok := e.topics[topic]
	if !ok {
		return
	}
	found := false
	st.backup.Do(func(idx uint64, ent entry) {
		if ent.msg.Seq == seq {
			found = true
			if !ent.discard {
				st.backup.Update(idx, func(p *entry) {
					p.discard = true
					p.release() // a discarded copy is never dispatched
				})
				e.stats.prunesApplied.Add(1)
			}
		}
	})
	if !found {
		// The prune outran its replica; remember it until the copy arrives.
		st.notePendingPrune(seq, st.backup.Capacity())
	}
}

// ReleaseBuffers drops every buffer reference the Message and Backup Buffers
// still hold. A runtime calls it once, when it shuts down and no job will be
// resolved again; callers hold all lane locks, like Promote.
func (e *Engine) ReleaseBuffers() {
	for _, st := range e.topics {
		for _, ring := range [...]*ringbuf.Ring[entry]{st.buffer, st.backup} {
			for idx, end := ring.FirstIndex(), ring.NextIndex(); idx < end; idx++ {
				ring.Update(idx, (*entry).release)
			}
		}
	}
}

// BackupBufferLen returns the number of live (non-discarded) copies in the
// topic's Backup Buffer; used by tests and the Fig. 9 analysis.
func (e *Engine) BackupBufferLen(topic spec.TopicID) int {
	st, ok := e.topics[topic]
	if !ok {
		return 0
	}
	n := 0
	st.backup.Do(func(_ uint64, ent entry) {
		if !ent.discard {
			n++
		}
	})
	return n
}

// Promote turns a Backup engine into the new Primary (§IV-A fault
// recovery): for every non-discarded Backup Buffer copy whose original has
// not been dispatched, it creates a dispatch job referring to the Backup
// Buffer, then disables further replication (the failed broker is gone).
// The dispatch deadlines keep the original creation times, so under EDF the
// backlog interleaves correctly with fresh arrivals.
func (e *Engine) Promote() {
	e.cfg.HasBackup = false
	for _, st := range e.topics {
		st.replicate = false
	}
	e.ScheduleRecovery()
}

// ScheduleRecovery sweeps every Backup Buffer and queues a recovery
// dispatch job for each non-discarded copy whose original was never
// dispatched (Table 3, Recovery step 1: pruned entries are skipped, so a
// message the failed Primary already dispatched is never re-dispatched).
// Promote uses it during §IV-A fail-over; a durable broker restarting
// from its on-disk log calls it directly after replaying messages and
// prune records, without touching the replication setting. Callers hold
// all lane locks, like Promote.
func (e *Engine) ScheduleRecovery() {
	for _, st := range e.topics {
		st.backup.Do(func(idx uint64, ent entry) {
			if ent.discard {
				e.stats.recoverySkipped.Add(1)
				return
			}
			if ent.dispatched {
				return
			}
			e.stats.recoveryJobs.Add(1)
			e.jobs.Push(queue.Job{
				Kind:        queue.KindDispatch,
				Topic:       st.spec.ID,
				Seq:         ent.msg.Seq,
				BufferIndex: idx,
				Release:     ent.arrivedPrimary,
				Deadline:    ent.msg.Created + st.dispatchPseudo,
				Recovery:    true,
			})
		})
	}
}
