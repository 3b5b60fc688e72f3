// Package broker is the real-time runtime of the FRAME architecture
// (paper Fig. 4): it hosts a core.Engine behind a network listener and one
// dispatcher per lane, in the same module split as the paper's
// implementation inside the TAO event service (§V):
//
//   - the accept/read loops play the Supplier Proxies + Message Proxy role
//     (each arriving Publish frame is stored and turned into jobs);
//   - the lane dispatchers play the Message Delivery module. The paper
//     sizes a pool of 3×cores generic threads because its Dispatchers and
//     Replicators block in sends; here every send is an enqueue on an egress
//     ring, so one goroutine per lane does pop → encode → enqueue as a
//     single sequence and per-topic FIFO holds by construction;
//   - subscriber connections play the Consumer Proxies.
//
// A broker starts as Primary (dispatching and replicating) or as Backup
// (absorbing replicas and polling the Primary whenever the replication link
// falls silent); a Backup promotes itself into a new Primary when its
// failure detector fires, draining the pruned Backup Buffer per Table 3's
// Recovery procedure, and tells every publisher connected to it to fail
// over.
package broker

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/failover"
	"repro/internal/obsv"
	"repro/internal/queue"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Role is the broker's fault-tolerance role.
type Role int

// Broker roles.
const (
	RolePrimary Role = iota + 1
	RoleBackup
)

// String returns the role label.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleBackup:
		return "backup"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Options configures a broker.
type Options struct {
	// Engine is the core configuration (policy, coordination, params).
	Engine core.Config
	// Role selects Primary or Backup duty at startup.
	Role Role
	// ListenAddr is where publishers, subscribers, and the peer connect.
	ListenAddr string
	// PeerAddr is the other broker: for a Primary, the Backup to replicate
	// to (empty means no backup); for a Backup, the Primary to watch.
	PeerAddr string
	// Network supplies listen/dial (TCP or in-process).
	Network transport.Network
	// Clock is the broker's timebase; all brokers and clients in one
	// deployment must be synchronized (see package clocksync).
	Clock clocksync.Clock
	// Workers is ignored: every lane runs one dispatcher and Lanes is the
	// one parallelism knob. The field stays only because the repository
	// benchmark (bench/workload.go) still sets it; New logs one line when it
	// names anything but zero or the lane count, and rejects a negative value.
	Workers int
	// Lanes shards the engine's EDF queue and topic state into this many
	// parallel dispatch lanes (see core.Config.Lanes): topics hash onto
	// lanes, each lane has its own lock, intake, and dispatcher, and
	// per-topic FIFO plus EDF-within-lane are preserved. Zero means
	// GOMAXPROCS under the EDF policy and 1 otherwise; 1 restores the
	// single global queue.
	Lanes int
	// Detector tunes the Backup's failure detector, the pair's only one;
	// zero-value means failover.DefaultConfig.
	Detector failover.Config
	// Topics are registered before the broker starts serving.
	Topics []spec.Topic
	// Logger receives operational events; nil means slog.Default.
	Logger *slog.Logger
	// AdminAddr, when non-empty, binds an HTTP admin endpoint on that TCP
	// address serving /metrics (Prometheus text), /healthz (role, peer
	// liveness, queue depth), and /debug/pprof. The listener binds in New
	// (so AdminAddr() is dialable immediately) and serves from Start.
	AdminAddr string
	// EgressDepth sizes each subscriber's outbound ring (frames). Dispatch
	// enqueues into the ring and the shared flusher pool drains it with
	// vectored writes, so a slow socket never blocks a dispatch lane.
	// Zero or negative means transport.DefaultEgressDepth: there is no
	// synchronous fan-out to fall back to, because one blocking send on a
	// lane's only dispatcher would stall every topic on the lane.
	EgressDepth int
	// EgressNoShed switches a full egress ring from the Li-aware shed/evict
	// policy to blocking backpressure (the dispatch worker waits for ring
	// space). Shedding is the default: it preserves lane isolation, and a
	// topic never loses more than its loss tolerance Li consecutively
	// before the subscriber is evicted instead.
	EgressNoShed bool
	// EgressWriteTimeout bounds each egress flush write; a subscriber socket
	// stalled longer than this fails the write and drops the subscriber.
	// Zero leaves egress writes unbounded (the ring + shed policy already
	// isolate the lanes).
	EgressWriteTimeout time.Duration
	// PeerWriteTimeout bounds each write on the Primary→Backup replication
	// link: a Backup that stops draining counts one peer stall and loses the
	// link, so a full replication ring holds the lanes for at most this long.
	// Zero means DefaultPeerWriteTimeout; negative disables the bound.
	PeerWriteTimeout time.Duration
	// ShardEpoch, when non-nil, marks this broker as one shard of a cluster
	// and supplies the routing-table epoch it believes in (see package
	// cluster). A publish naming a topic the broker does not serve then
	// answers with a WrongShard redirect carrying that epoch — telling the
	// publisher its cached routing table is stale — instead of being
	// dropped as a configuration error. Must be safe for concurrent use.
	ShardEpoch func() uint64
	// IntakeDepth sizes each lane's lock-free publish intake ring (messages).
	// Publisher sessions validate the topic, stamp arrival, and push into the
	// ring without taking the lane lock; the lane's dispatcher drains the ring
	// into the engine under the lock it already holds. Zero means
	// DefaultIntakeDepth.
	IntakeDepth int
	// Flushers sizes the shared egress flusher pool: subscriber rings are
	// assigned round-robin to this many writer goroutines, each sweeping
	// every ready ring per wakeup. Zero means transport.DefaultFlushers;
	// negative is an error.
	Flushers int
	// Durable turns on the "ACK = durable" publish mode (-durable): every
	// accepted publish is appended to a segmented log in LogDir through a
	// group-commit writer, and the publisher's PubAck is sent only after
	// the fsync covering the record completes. Dispatched messages are
	// marked with prune records so a restart replays the log without
	// re-dispatching them (Table 3 discipline). This is the local-disk
	// strategy the paper's Table 1 rejects for latency, offered alongside
	// the in-memory pair so the trade is measurable.
	Durable bool
	// LogDir is the durable mode's segment directory; required with Durable.
	LogDir string
	// FsyncInterval spaces group-commit fsyncs: publishers arriving within
	// one window share a single fsync. Zero means DefaultFsyncInterval;
	// negative degenerates to one fsync per publish (SyncAlways, the slow
	// bound). Ignored without Durable.
	FsyncInterval time.Duration
	// LogSegmentBytes, LogRetainBytes, and LogRetainAge shape the durable
	// segment log (zero = diskstore defaults, negative retention = keep
	// everything). Ignored without Durable.
	LogSegmentBytes int64
	LogRetainBytes  int64
	LogRetainAge    time.Duration
	// HoldRecovery defers dispatching the log-replayed backlog until
	// RecoverFromLog is called, for orchestrations (chaos runs, tests)
	// that must reattach subscribers before the recovered messages drain.
	// Without it Start schedules recovery immediately.
	HoldRecovery bool
}

// DefaultFsyncInterval is the group-commit window when Options.FsyncInterval
// is zero: long enough that concurrent publishers share fsyncs, short enough
// to stay well inside edge-tier deadlines.
const DefaultFsyncInterval = 2 * time.Millisecond

// DefaultPeerWriteTimeout is the replication-link write-stall bound when
// Options.PeerWriteTimeout is zero: generous against transient socket
// pressure (two orders above Lemma 1's ΔBB scale) but finite, so a wedged
// Backup surfaces as a dead link instead of stalled lanes.
const DefaultPeerWriteTimeout = 2 * time.Second

// DefaultIntakeDepth is the per-lane publish intake ring size when
// Options.IntakeDepth is zero: deep enough that the dispatcher drains in large
// batches under load, small enough that a stalled lane applies backpressure
// to its publishers instead of buffering unboundedly.
const DefaultIntakeDepth = 1024

// intakeDrainBatch bounds how many intake messages a dispatcher folds into the
// engine per lock acquisition, so one publish burst cannot starve the
// dispatch side of the same lane lock.
const intakeDrainBatch = 256

// Broker runs one FRAME broker.
type Broker struct {
	opts    Options
	log     *slog.Logger
	ln      net.Listener
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	obs     *obsv.BrokerMetrics
	admin   *obsv.Admin
	meter   transport.Meter // aggregate traffic over every conn this broker owns
	started time.Time

	// det is the Backup's failure detector once its poll link is up (nil on
	// a Primary): replicate and prune frames from the Primary are reported
	// to it as heard, and it is the Backup's view of the Primary's liveness.
	det atomic.Pointer[failover.Detector]

	// mu guards role only. The engine itself is guarded per lane: a call
	// naming a topic runs under that topic's lane lock, and whole-engine
	// transitions (Promote) take every lane lock — see the core package
	// comment for the contract.
	mu       sync.Mutex
	engine   *core.Engine
	role     Role
	promoted chan struct{} // closed on promotion
	stopping atomic.Bool

	lanes []*dispatchLane

	// pool is the shared egress flusher set every broker-side ring drains
	// through: subscribers, the replication link and the PubAck rings. It
	// retires whichever of them are still open when the broker stops.
	pool *transport.FlusherPool

	// subs indexes the subscriber sessions' rings by topic.
	subs *transport.Subscribers

	// egress aggregates the counters of every subscriber's outbound ring.
	egress transport.EgressMeter

	// lateDispatches counts dispatch jobs that started executing after
	// their absolute deadline — the runtime-observable form of a Lemma 2
	// violation. Under admission-respecting load this stays zero.
	lateDispatches atomic.Uint64

	// peerRing is the Primary→Backup replication link, the third kind of
	// egress ring: its own meter (Stalls is the peer-stall count), never in
	// Health().EgressSubs. Ring order keeps a Prune behind its Replicate.
	peerMu    sync.Mutex
	peerRing  *transport.Egress
	peerMeter transport.EgressMeter

	// afterPop is a test seam between a lane's pop and its egress enqueue;
	// nil outside tests.
	afterPop func(core.Work)

	// committer owns the durable mode's segmented log (nil without
	// Options.Durable): sessions stage publish records and return to their
	// sockets, dispatch workers stage fire-and-forget prune markers, and
	// every committed batch comes back through onDurable (durable.go).
	// durableAcks counts publishes whose fsync returned; commitFailures
	// those whose ack is withheld because the log failed (commitDown marks
	// the transition, logged once). recoveredMsgs/recoveredPrunes count
	// what the log replayed at startup; recoverOnce gates the one-shot
	// backlog dispatch.
	committer       *diskstore.Committer
	durableAcks     atomic.Uint64
	commitFailures  atomic.Uint64
	commitDown      atomic.Bool
	recoverOnce     sync.Once
	recoveredMsgs   int
	recoveredPrunes int

	// ackMu serializes opening a session's reply ring (PubAcks, promotion
	// notice); ackMeter aggregates those rings apart from the subscribers'
	// (they are not subscribers: Health().EgressSubs and the eviction
	// counts stay about fan-out). publishers are a Backup's publisher
	// sessions, which promotion notifies. ackTouched is onDurable's scratch.
	ackMu      sync.Mutex
	publishers map[*session]struct{}
	ackMeter   transport.EgressMeter
	ackTouched []*session
}

// peerWriteStall resolves Options.PeerWriteTimeout.
func (b *Broker) peerWriteStall() time.Duration {
	switch {
	case b.opts.PeerWriteTimeout > 0:
		return b.opts.PeerWriteTimeout
	case b.opts.PeerWriteTimeout == 0:
		return DefaultPeerWriteTimeout
	default:
		return 0
	}
}

// dispatchLane is one shard of the delivery path: its mutex guards the
// lane's segment of the job queue and the ring-buffer state of every topic
// hashing to it, its intake ring carries publishes from session goroutines
// to the lane's dispatcher without that mutex, its parker wakes that
// dispatcher, and its meters feed the per-lane observability gauges.
type dispatchLane struct {
	mu sync.Mutex
	// parker sleeps the lane's idle dispatcher; publishers unpark after making
	// work visible (an intake push).
	parker *queue.Parker
	// intake is the lock-free publish handoff: producers fill slots
	// concurrently, the dispatcher drains under mu via drainIntakeLocked.
	intake *queue.MPSC[intakeMsg]
	// intakeStalls counts publishes that found the intake ring full and had
	// to spin — sustained growth means the lane's dispatcher is the bottleneck.
	intakeStalls atomic.Uint64
	// wait records enqueue→pop queue wait for jobs popped from this lane;
	// pops counts them. Both are scrape-safe atomics.
	wait *obsv.Histogram
	pops atomic.Uint64
}

// intakeMsg is one publish in flight between a session goroutine and its
// lane's dispatcher. The slot holds the session's reference to buf until the
// dispatcher hands it to the engine.
type intakeMsg struct {
	msg wire.Message   // msg.Payload points into buf
	buf *wire.FrameBuf // the session's copy of the received body
	now time.Duration  // arrival stamp, taken before the push
}

// lane returns the dispatch lane owning the topic's state.
func (b *Broker) lane(id spec.TopicID) *dispatchLane {
	return b.lanes[b.engine.LaneFor(id)]
}

// lockAllLanes acquires every lane lock in index order (the one rule that
// keeps multi-lane acquisition deadlock-free: dispatchers only ever hold one).
func (b *Broker) lockAllLanes() {
	for _, l := range b.lanes {
		l.mu.Lock()
	}
}

func (b *Broker) unlockAllLanes() {
	for i := len(b.lanes) - 1; i >= 0; i-- {
		b.lanes[i].mu.Unlock()
	}
}

// New creates a broker, registers its topics, and binds its listener (so
// the address is dialable when New returns), but serves nothing until Run.
func New(opts Options) (*Broker, error) {
	if opts.Network == nil {
		return nil, errors.New("broker: nil network")
	}
	if opts.Clock == nil {
		return nil, errors.New("broker: nil clock")
	}
	if opts.Role != RolePrimary && opts.Role != RoleBackup {
		return nil, fmt.Errorf("broker: bad role %d", int(opts.Role))
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("broker: negative workers %d", opts.Workers)
	}
	if opts.Lanes < 0 {
		return nil, fmt.Errorf("broker: negative lanes %d", opts.Lanes)
	}
	if opts.Lanes == 0 {
		if opts.Engine.Policy == queue.PolicyEDF {
			opts.Lanes = runtime.GOMAXPROCS(0)
		} else {
			// FCFS is a global arrival order; sharding would change it.
			opts.Lanes = 1
		}
	}
	if opts.IntakeDepth < 0 {
		return nil, fmt.Errorf("broker: negative intake depth %d", opts.IntakeDepth)
	}
	if opts.Flushers < 0 {
		return nil, fmt.Errorf("broker: negative flushers %d", opts.Flushers)
	}
	if opts.Detector == (failover.Config{}) {
		opts.Detector = failover.DefaultConfig()
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.Workers != 0 && opts.Workers != opts.Lanes {
		opts.Logger.Info("Options.Workers / -workers is deprecated and ignored: each lane runs one dispatcher; size with Lanes",
			"workers", opts.Workers, "lanes", opts.Lanes)
	}
	engineCfg := opts.Engine
	// A Primary without a peer, and any Backup, must not generate
	// replication jobs.
	if opts.Role == RolePrimary && opts.PeerAddr == "" {
		engineCfg.HasBackup = false
	}
	if opts.Role == RoleBackup {
		engineCfg.HasBackup = false
	}
	// Queue meters let the admin endpoint report depth without the engine
	// lock; the atomics are cheap enough to leave on unconditionally.
	engineCfg.MeterQueue = true
	engineCfg.Lanes = opts.Lanes
	engine, err := core.New(engineCfg)
	if err != nil {
		return nil, err
	}
	for _, t := range opts.Topics {
		if err := engine.AddTopic(t); err != nil {
			return nil, fmt.Errorf("broker: %w", err)
		}
	}
	ln, err := opts.Network.Listen(opts.ListenAddr)
	if err != nil {
		return nil, err
	}
	obs := obsv.NewBrokerMetrics()
	b := &Broker{
		opts:       opts,
		log:        opts.Logger.With("broker", opts.ListenAddr, "role", opts.Role.String()),
		ln:         ln,
		obs:        obs,
		started:    time.Now(),
		engine:     engine,
		role:       opts.Role,
		promoted:   make(chan struct{}),
		publishers: make(map[*session]struct{}),
	}
	b.lanes = make([]*dispatchLane, engine.Lanes())
	intakeDepth := opts.IntakeDepth
	if intakeDepth == 0 {
		intakeDepth = DefaultIntakeDepth
	}
	for i := range b.lanes {
		b.lanes[i] = &dispatchLane{wait: obsv.NewHistogram(), parker: queue.NewParker(),
			intake: queue.NewMPSC[intakeMsg](intakeDepth)}
	}
	if opts.AdminAddr != "" {
		admin, err := obsv.NewAdmin(opts.AdminAddr, obs, b.Health, b.scrapeGauges)
		if err != nil {
			ln.Close()
			return nil, err
		}
		b.admin = admin
	}
	if opts.Durable {
		if opts.LogDir == "" {
			ln.Close()
			if b.admin != nil {
				b.admin.Close()
			}
			return nil, errors.New("broker: durable mode needs a log dir")
		}
		seg, rep, err := diskstore.OpenSegmented(opts.LogDir, diskstore.SegmentOptions{
			SegmentBytes: opts.LogSegmentBytes,
			RetainBytes:  opts.LogRetainBytes,
			RetainAge:    opts.LogRetainAge,
		})
		if err != nil {
			ln.Close()
			if b.admin != nil {
				b.admin.Close()
			}
			return nil, fmt.Errorf("broker: durable log: %w", err)
		}
		interval := opts.FsyncInterval
		if interval == 0 {
			interval = DefaultFsyncInterval
		}
		b.committer = diskstore.NewCommitterNotify(seg, interval, b.onDurable)
		// Replay in log order: messages land in the Backup Buffers (the
		// same rings §IV-A promotion drains), prune records mark the ones
		// a previous life already dispatched. The backlog is scheduled by
		// RecoverFromLog, not here, so subscribers can reattach first.
		for _, m := range rep.Messages {
			if err := b.storeReplica(m, 0); err == nil {
				b.recoveredMsgs++
			}
		}
		for _, pr := range rep.Prunes {
			b.engine.OnPrune(pr.Topic, pr.Seq)
			b.recoveredPrunes++
		}
		if b.recoveredMsgs > 0 || b.recoveredPrunes > 0 {
			b.log.Info("replayed durable log",
				"messages", b.recoveredMsgs, "prunes", b.recoveredPrunes)
		}
	}
	b.pool = transport.NewFlusherPool(transport.FlusherPoolConfig{Flushers: opts.Flushers})
	b.subs = transport.NewSubscribers(transport.EgressConfig{
		Depth: opts.EgressDepth,
		Shed:  !opts.EgressNoShed,
		Stall: opts.EgressWriteTimeout,
		Meter: &b.egress,
		Pool:  b.pool,
	})
	return b, nil
}

// RecoverFromLog schedules dispatch of the durable log's replayed backlog:
// every non-pruned message goes back through the normal EDF delivery path
// as a recovery dispatch (never re-dispatching what a prune record marked —
// Table 3, Recovery step 1). Start calls it automatically unless
// Options.HoldRecovery; it is idempotent and a no-op without Durable.
func (b *Broker) RecoverFromLog() {
	if b.committer == nil {
		return
	}
	b.recoverOnce.Do(func() {
		b.lockAllLanes()
		b.engine.ScheduleRecovery()
		b.unlockAllLanes()
		for _, l := range b.lanes {
			l.parker.Unpark()
		}
		st := b.engine.Stats()
		b.log.Info("scheduled recovery from durable log",
			"jobs", st.RecoveryJobs, "skipped", st.RecoverySkipped)
	})
}

// Addr returns the bound listen address.
func (b *Broker) Addr() string { return b.ln.Addr().String() }

// AdminAddr returns the bound admin endpoint address, empty when no
// Options.AdminAddr was configured.
func (b *Broker) AdminAddr() string {
	if b.admin == nil {
		return ""
	}
	return b.admin.Addr()
}

// Obs returns the broker's instrument set.
func (b *Broker) Obs() *obsv.BrokerMetrics { return b.obs }

// Health snapshots the broker's liveness for /healthz: current role, peer
// liveness (replication link up for a Primary; for a Backup, the Primary
// heard from — a replication frame or an answered probe — within the
// detector's Period+Timeout), and job queue depth.
func (b *Broker) Health() obsv.Health {
	role := b.Role()
	peerUp := false
	if b.opts.PeerAddr != "" {
		if b.opts.Role == RoleBackup && role == RoleBackup {
			det := b.det.Load()
			peerUp = det != nil && det.Alive()
		} else {
			peerUp = b.peer() != nil
		}
	}
	es := b.egress.Snapshot()
	return obsv.Health{
		Role:            role.String(),
		Addr:            b.Addr(),
		PeerAddr:        b.opts.PeerAddr,
		PeerConnected:   peerUp,
		Promoted:        b.opts.Role == RoleBackup && role == RolePrimary,
		QueueDepth:      b.engine.QueueMeter().Depth(),
		LateDispatches:  b.lateDispatches.Load(),
		UptimeSeconds:   time.Since(b.started).Seconds(),
		EgressQueued:    b.subs.Queued(),
		EgressSubs:      b.subs.Len(),
		EgressShed:      es.Shed,
		EgressEvictions: es.Evictions,
		EgressWriteErrs: es.WriteErrs,
	}
}

// EgressStats snapshots the aggregate egress counters across all subscriber
// rings.
func (b *Broker) EgressStats() transport.EgressStats { return b.egress.Snapshot() }

// PeerStalls reports replication writes failed by the peer write-stall bound.
func (b *Broker) PeerStalls() uint64 { return b.peerMeter.Stalls.Load() }

// scrapeGauges contributes the scrape-time samples to /metrics: state the
// broker derives on demand (role, queue depth, transport totals) rather
// than maintaining as counters. Everything here reads atomics or short
// locks, so scrapes do not perturb the delivery path.
func (b *Broker) scrapeGauges() []obsv.Sample {
	qm := b.engine.QueueMeter()
	role := b.Role()
	samples := []obsv.Sample{
		{Name: "frame_role", Label: fmt.Sprintf("role=%q", role.String()), Value: 1,
			Help: "Current fault-tolerance role (1 for the active label)."},
		{Name: "frame_uptime_seconds", Value: time.Since(b.started).Seconds(),
			Help: "Wall time since the broker was created."},
		{Name: "frame_queue_depth", Value: float64(qm.Depth()),
			Help: "Jobs pending in the job queue."},
		{Name: "frame_queue_depth_max", Value: float64(qm.MaxDepth()),
			Help: "High-water job queue depth since start."},
		{Name: "frame_queue_pushes_total", Label: `kind="dispatch"`, Counter: true,
			Value: float64(qm.Pushes(queue.KindDispatch)), Help: "Jobs pushed, by kind."},
		{Name: "frame_queue_pushes_total", Label: `kind="replicate"`, Counter: true,
			Value: float64(qm.Pushes(queue.KindReplicate)), Help: "Jobs pushed, by kind."},
		{Name: "frame_queue_pops_total", Label: `kind="dispatch"`, Counter: true,
			Value: float64(qm.Pops(queue.KindDispatch)), Help: "Jobs popped, by kind."},
		{Name: "frame_queue_pops_total", Label: `kind="replicate"`, Counter: true,
			Value: float64(qm.Pops(queue.KindReplicate)), Help: "Jobs popped, by kind."},
		{Name: "frame_transport_frames_sent_total", Counter: true,
			Value: float64(b.meter.FramesSent.Load()), Help: "Wire frames sent on broker-owned connections."},
		{Name: "frame_transport_bytes_sent_total", Counter: true,
			Value: float64(b.meter.BytesSent.Load()), Help: "Wire bytes sent on broker-owned connections."},
		{Name: "frame_transport_frames_recv_total", Counter: true,
			Value: float64(b.meter.FramesRecv.Load()), Help: "Wire frames received on broker-owned connections."},
		{Name: "frame_transport_bytes_recv_total", Counter: true,
			Value: float64(b.meter.BytesRecv.Load()), Help: "Wire bytes received on broker-owned connections."},
		{Name: "frame_transport_read_syscalls_total", Counter: true,
			Value: float64(b.meter.ReadSyscalls.Load()), Help: "Read calls on broker-owned connections (frames per read = frames_recv/read_syscalls)."},
		{Name: "frame_lanes", Value: float64(len(b.lanes)),
			Help: "Configured dispatch lane count."},
	}
	es := b.egress.Snapshot()
	samples = append(samples,
		obsv.Sample{Name: "frame_egress_enqueued_total", Counter: true,
			Value: float64(es.Enqueued), Help: "Frames accepted into subscriber egress rings."},
		obsv.Sample{Name: "frame_egress_flushed_total", Counter: true,
			Value: float64(es.Flushed), Help: "Frames written to subscriber sockets by egress writers."},
		obsv.Sample{Name: "frame_egress_batches_total", Counter: true,
			Value: float64(es.Batches), Help: "Vectored egress writes issued (frames coalesced per syscall = flushed/batches)."},
		obsv.Sample{Name: "frame_egress_shed_total", Counter: true,
			Value: float64(es.Shed), Help: "Frames dropped by the Li-aware shed policy on full rings."},
		obsv.Sample{Name: "frame_egress_evictions_total", Counter: true,
			Value: float64(es.Evictions), Help: "Subscribers evicted for exceeding a topic's loss tolerance in consecutive drops."},
		obsv.Sample{Name: "frame_egress_stalls_total", Counter: true,
			Value: float64(es.Stalls), Help: "Egress writes failed by the write-stall deadline."},
		obsv.Sample{Name: "frame_egress_write_errors_total", Counter: true,
			Value: float64(es.WriteErrs), Help: "Failed egress flush writes (stalls included)."},
		obsv.Sample{Name: "frame_egress_queued", Value: float64(b.subs.Queued()),
			Help: "Frames currently queued across subscriber egress rings."},
		obsv.Sample{Name: "frame_egress_subscribers", Value: float64(b.subs.Len()),
			Help: "Live subscriber sessions."},
	)
	prs, depth := b.peerMeter.Snapshot(), 0
	if ring := b.peer(); ring != nil {
		depth = ring.Depth()
	}
	samples = append(samples,
		obsv.Sample{Name: "frame_peer_write_stalls_total", Counter: true,
			Value: float64(prs.Stalls), Help: "Replication writes failed by the peer write-stall bound."},
		obsv.Sample{Name: "frame_peer_ring_enqueued_total", Counter: true,
			Value: float64(prs.Enqueued), Help: "Replicate and Prune frames handed to the replication ring."},
		obsv.Sample{Name: "frame_peer_ring_flushed_total", Counter: true,
			Value: float64(prs.Flushed), Help: "Replicate and Prune frames written to the Backup."},
		obsv.Sample{Name: "frame_peer_ring_batches_total", Counter: true,
			Value: float64(prs.Batches), Help: "Vectored writes on the replication link (frames per write = flushed/batches)."},
		obsv.Sample{Name: "frame_peer_ring_depth", Value: float64(depth),
			Help: "Frames currently queued on the replication ring."},
	)
	samples = append(samples,
		obsv.Sample{Name: "frame_egress_flushers", Value: float64(b.pool.Size()),
			Help: "Shared egress flusher goroutines."},
		obsv.Sample{Name: "frame_egress_handoffs_total", Counter: true,
			Value: float64(b.pool.Handoffs()), Help: "Subscriber writes handed to their own goroutine after 2 ms."},
		obsv.Sample{Name: "frame_egress_write_syscalls_total", Counter: true,
			Value: float64(es.WriteSyscalls), Help: "Vectored writes spent writing subscriber egress frames."},
	)
	for i, l := range b.lanes {
		label := fmt.Sprintf("lane=%q", fmt.Sprint(i))
		samples = append(samples,
			obsv.Sample{Name: "frame_lane_queue_depth", Label: label,
				Value: float64(qm.LaneDepth(i)), Help: "Jobs pending, by dispatch lane."},
			obsv.Sample{Name: "frame_lane_pops_total", Label: label, Counter: true,
				Value: float64(l.pops.Load()), Help: "Jobs popped, by dispatch lane."},
			obsv.Sample{Name: "frame_lane_queue_wait_p99_seconds", Label: label,
				Value: l.wait.Quantile(0.99).Seconds(), Help: "p99 enqueue-to-pop wait, by dispatch lane."},
			obsv.Sample{Name: "frame_lane_intake_depth", Label: label,
				Value: float64(l.intake.Len()), Help: "Publishes queued in the lock-free lane intake, by dispatch lane."},
			obsv.Sample{Name: "frame_lane_intake_stalls_total", Label: label, Counter: true,
				Value: float64(l.intakeStalls.Load()), Help: "Publishes that found the lane intake ring full, by dispatch lane."},
		)
	}
	if b.committer != nil {
		cs := b.committer.Stats()
		samples = append(samples,
			obsv.Sample{Name: "frame_durable_records_total", Counter: true,
				Value: float64(cs.Records), Help: "Records (publishes + prune markers) appended to the durable log."},
			obsv.Sample{Name: "frame_durable_batches_total", Counter: true,
				Value: float64(cs.Batches), Help: "Group-commit batches written to the durable log."},
			obsv.Sample{Name: "frame_durable_fsyncs_total", Counter: true,
				Value: float64(cs.Fsyncs), Help: "fsync calls issued by the group-commit writer."},
			obsv.Sample{Name: "frame_durable_pending", Value: float64(cs.Pending),
				Help: "Records enqueued for the durable log but not yet on stable storage."},
			obsv.Sample{Name: "frame_durable_segments", Value: float64(cs.Segments),
				Help: "Live durable log segments on disk."},
			obsv.Sample{Name: "frame_durable_log_bytes", Value: float64(cs.Bytes),
				Help: "Total bytes across live durable log segments."},
			obsv.Sample{Name: "frame_durable_acks_total", Counter: true,
				Value: float64(b.durableAcks.Load()), Help: "Publishes whose record reached stable storage (a PubAck is issued for each)."},
			obsv.Sample{Name: "frame_durable_commit_failures_total", Counter: true,
				Value: float64(b.commitFailures.Load()), Help: "Publishes whose durability ack was withheld because the log failed."},
		)
		as := b.ackMeter.Snapshot()
		samples = append(samples,
			obsv.Sample{Name: "frame_durable_ack_enqueued_total", Counter: true,
				Value: float64(as.Enqueued), Help: "PubAcks handed to publisher ack rings."},
			obsv.Sample{Name: "frame_durable_ack_flushed_total", Counter: true,
				Value: float64(as.Flushed), Help: "PubAcks written to publisher sockets."},
			obsv.Sample{Name: "frame_durable_ack_batches_total", Counter: true,
				Value: float64(as.Batches), Help: "Vectored writes that carried PubAcks (acks coalesced per write = flushed/batches)."},
			obsv.Sample{Name: "frame_durable_ack_evictions_total", Counter: true,
				Value: float64(as.Evictions), Help: "Publishers evicted because they stopped reading their PubAcks."},
			obsv.Sample{Name: "frame_durable_ack_write_errors_total", Counter: true,
				Value: float64(as.WriteErrs), Help: "Failed PubAck writes (stalls included)."},
		)
	}
	return samples
}

// SetPeerAddr points the broker at its peer after construction but before
// Start — for clusters where both brokers bind ephemeral ports, so neither
// address is known until both brokers exist. Pass a non-empty placeholder
// PeerAddr to New so the engine keeps its replication duty, then fix it up
// here once the peer's Addr() is known.
func (b *Broker) SetPeerAddr(addr string) { b.opts.PeerAddr = addr }

// Role returns the broker's current role (Backup becomes Primary after
// promotion).
func (b *Broker) Role() Role {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.role
}

// Promoted returns a channel closed when a Backup promotes itself.
func (b *Broker) Promoted() <-chan struct{} { return b.promoted }

// Stats snapshots the engine counters. The counters are atomics, so the
// snapshot is safe — and lock-free — while lane dispatchers are mutating them.
func (b *Broker) Stats() core.Stats { return b.engine.Stats() }

// Lanes returns the number of dispatch lanes the broker is running.
func (b *Broker) Lanes() int { return len(b.lanes) }

// LateDispatches reports dispatch jobs that began executing past their
// deadline since the broker started.
func (b *Broker) LateDispatches() uint64 { return b.lateDispatches.Load() }

// Start launches the accept loop, one dispatcher per lane, and the role's
// background duties. It returns immediately; Stop shuts everything down.
func (b *Broker) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	b.cancel = cancel

	if b.admin != nil {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			if err := b.admin.Serve(); err != nil {
				b.log.Warn("admin endpoint stopped", "err", err)
			}
		}()
		b.log.Info("admin endpoint up", "addr", b.admin.Addr())
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.acceptLoop(ctx)
	}()
	if b.opts.Role == RolePrimary && b.opts.PeerAddr != "" {
		// Dial the Backup before the dispatchers can pop replication jobs:
		// both listeners are bound in New, so this normally succeeds at once.
		// On failure the background loop keeps retrying.
		ring, err := b.dialPeer()
		if err != nil {
			b.log.Warn("initial backup dial failed; retrying", "err", err)
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.connectPeer(ctx, ring)
		}()
	}
	for i := range b.lanes {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.dispatchLoop(i)
		}()
	}
	if b.opts.Role == RoleBackup && b.opts.PeerAddr != "" {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.watchPrimary(ctx)
		}()
	}
	if b.opts.Durable && !b.opts.HoldRecovery {
		b.RecoverFromLog()
	}
}

// Stop shuts the broker down and waits for all goroutines.
func (b *Broker) Stop() { b.shutdown(true) }

// Kill fail-stops the broker for fault injection: the same teardown as
// Stop, except a durable committer is crashed rather than drained —
// queued log records and prune markers are lost exactly as a process kill
// would lose them, and only earlier fsynced batches survive on disk.
func (b *Broker) Kill() { b.shutdown(false) }

func (b *Broker) shutdown(drain bool) {
	if b.cancel != nil {
		b.cancel()
	}
	b.stopping.Store(true)
	for _, l := range b.lanes {
		// Dispatchers park with a ready() that re-checks stopping under the
		// parker's own mutex, so this wakeup cannot be missed.
		l.parker.Unpark()
	}
	b.ln.Close()
	if b.admin != nil {
		if err := b.admin.Close(); err != nil {
			b.log.Warn("admin close failed", "err", err)
		}
	}
	// The pool retires every ring still open — subscribers', PubAcks' and
	// the replication link's — and any ring opened after it starts closed.
	b.pool.Close()
	b.wg.Wait()
	b.releaseBuffers()
	if b.committer != nil {
		// After wg.Wait no session or dispatcher can enqueue again. A drain
		// (Stop) commits what is queued and seals the log; a crash (Kill)
		// abandons the queue the way a dead process would.
		if !drain {
			b.committer.Crash()
		} else if err := b.committer.Close(); err != nil {
			b.log.Warn("durable log close failed", "err", err)
		}
	}
}

// releaseBuffers drops the references nothing reads again once every session
// and dispatcher has exited: publishes parked in the intake rings and the
// Message and Backup Buffer entries. (Dispatchers only exit between jobs.)
func (b *Broker) releaseBuffers() {
	for _, l := range b.lanes {
		for l.intake.PopInto(func(im *intakeMsg) {
			im.buf.Release()
			*im = intakeMsg{}
		}) {
		}
	}
	b.lockAllLanes()
	b.engine.ReleaseBuffers()
	b.unlockAllLanes()
}

// acceptLoop admits sessions until the listener closes.
func (b *Broker) acceptLoop(ctx context.Context) {
	for {
		nc, err := b.ln.Accept()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				b.log.Warn("accept failed", "err", err)
			}
			return
		}
		conn := transport.NewConn(nc)
		conn.SetMeter(&b.meter)
		conn.SetZeroCopy(true) // sessions copy what they keep: see onPublish
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.serveConn(ctx, conn)
		}()
	}
}

// serveConn runs one session read loop. The first frame should be a Hello;
// untyped sessions are served generically anyway (poll/time replies). One
// pooled frame serves the whole session, its payload aliasing the receive
// window: handleFrame consumes each frame fully — a message is copied once,
// into the buffer that carries it from here on, a disk log record by the
// log — before the next RecvInto overwrites it.
func (b *Broker) serveConn(ctx context.Context, conn *transport.Conn) {
	s := &session{conn: conn}
	defer func() {
		// Unregister before retiring so no new frames enqueue; Retire then
		// closes the conn (failing any in-flight write) and waits for the
		// writers — the broker's WaitGroup thus transitively waits for every
		// writer. The conn is closed here too for sessions that own no ring.
		transport.Retire(b.subs.Remove(conn), b.removeAckRing(s))
		conn.Close()
	}()
	// Ensure blocked reads unstick on shutdown.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	f := transport.GetFrame()
	defer transport.PutFrame(f)
	for {
		if err := conn.RecvInto(f); err != nil {
			return
		}
		if err := b.handleFrame(s, f); err != nil {
			b.log.Warn("session error", "err", err, "type", f.Type.String())
			return
		}
	}
}

func (b *Broker) handleFrame(s *session, f *wire.Frame) error {
	conn := s.conn
	switch f.Type {
	case wire.TypeHello:
		if f.Role == wire.RolePublisher && b.opts.Role == RoleBackup {
			b.addPublisher(s)
		}
		return nil // otherwise roles are implicit in subsequent traffic
	case wire.TypePublish, wire.TypeResend:
		if err := b.onPublish(s, f.Type, f.Msg); err != nil {
			// In a cluster, an unknown topic means the publisher routed on a
			// stale table: answer with a WrongShard redirect so it refreshes
			// and re-homes the topic. Outside a cluster it is the sender's
			// configuration error, not a protocol fault: drop the message but
			// keep the session, which may carry other, valid topics.
			if b.opts.ShardEpoch != nil && errors.Is(err, core.ErrUnknownTopic) {
				return conn.Send(&wire.Frame{Type: wire.TypeWrongShard, Topic: f.Msg.Topic, Epoch: b.opts.ShardEpoch()})
			}
			b.log.Warn("publish rejected", "topic", f.Msg.Topic, "err", err)
		}
		return nil
	case wire.TypeSubscribe:
		b.subs.Subscribe(conn, f.Topics)
		return nil
	case wire.TypeReplicate:
		b.heardPrimary()
		if err := b.onReplica(f); err != nil {
			b.log.Warn("replica rejected", "topic", f.Msg.Topic, "err", err)
		}
		return nil
	case wire.TypePrune:
		b.heardPrimary()
		b.obs.PrunesReceived.Inc()
		b.obs.Trace(obsv.TraceEvent{Stage: obsv.StagePrune, Topic: uint64(f.Topic), Seq: f.Seq, At: b.opts.Clock()})
		lane := b.lane(f.Topic)
		lane.mu.Lock()
		b.engine.OnPrune(f.Topic, f.Seq)
		lane.mu.Unlock()
		return nil
	case wire.TypePoll:
		return conn.Send(&wire.Frame{Type: wire.TypePollReply, Nonce: f.Nonce})
	case wire.TypeTimeReq:
		return clocksync.Respond(conn, b.opts.Clock, f)
	case wire.TypePollReply, wire.TypeTimeResp:
		return nil // stray replies on shared links are harmless
	default:
		return fmt.Errorf("broker: unexpected frame %v", f.Type)
	}
}

// onPublish is the Message Proxy path: store, generate jobs, wake the
// topic's lane.
//
// The session goroutine never takes the lane lock: it validates the topic
// lock-free (keeping the unknown-topic / WrongShard answer synchronous),
// stamps arrival, copies the message out of its receive window into a pooled
// buffer — the broker's one payload-sized copy; every later stage holds a
// reference and the buffer itself is the frame the subscribers are sent
// (DESIGN §9) — pushes that reference into the lane's MPSC ring and unparks
// the lane's dispatcher, which folds the ring into the engine under the lock
// it already holds, so the engine observes the publish slightly later.
//
// In durable mode the message is also staged with the group-commit writer
// after validation (stageDurable): the committer copies it under its own
// mutex, so the session is back at its socket before the fsync, and the
// PubAck — which certifies the fsync, not arrival — leaves from the
// committer's completion callback.
func (b *Broker) onPublish(s *session, t wire.Type, m wire.Message) error {
	now := b.opts.Clock()
	if err := b.engine.CheckTopic(m.Topic); err != nil {
		// Answered here so WrongShard redirects happen on the session
		// goroutine. With the topic validated, the drain-side OnPublishBuf
		// cannot fail.
		b.obs.PublishRejected.Inc()
		return err
	}
	lane := b.lane(m.Topic)
	if b.committer != nil {
		// Before the intake push: the message's prune marker can only be
		// staged once the dispatcher has seen it, so the record precedes it.
		b.stageDurable(s, m, now)
	}
	// Traced before the push makes the message poppable, so one message's
	// events reach the tracer in causal order: a dispatcher that no longer
	// blocks in replicate can finish both jobs inside a session's time slice.
	b.obs.Trace(obsv.TraceEvent{Stage: obsv.StagePublish, Topic: uint64(m.Topic), Seq: m.Seq, At: now})
	b.obs.Trace(obsv.TraceEvent{Stage: obsv.StageEnqueue, Topic: uint64(m.Topic), Seq: m.Seq, At: now})
	buf := wire.CopyMessage(t, &m)
	fill := func(im *intakeMsg) { *im = intakeMsg{msg: m, buf: buf, now: now} }
	if !lane.intake.PushInPlace(fill) {
		// Ring full: the lane's dispatcher is saturated. Spin rather than
		// shed — loss policy lives at the egress, a publisher here just
		// feels backpressure.
		lane.intakeStalls.Add(1)
		for !lane.intake.PushInPlace(fill) {
			if b.stopping.Load() {
				buf.Release() // shutting down; the message has nowhere to go
				return nil
			}
			lane.parker.Unpark()
			runtime.Gosched()
		}
	}
	lane.parker.Unpark()
	b.obs.Publishes.Inc()
	b.obs.StageProxy.Observe(b.opts.Clock() - now)
	return nil
}

// drainIntakeLocked folds queued publishes into the engine, each with the
// reference its slot held. Caller holds the lane mutex and is the lane's
// dispatcher, the intake ring's single consumer. The batch bound keeps one
// publish burst from monopolizing the lock.
func (b *Broker) drainIntakeLocked(lane *dispatchLane) {
	for i := 0; i < intakeDrainBatch; i++ {
		popped := lane.intake.PopInto(func(im *intakeMsg) {
			// Cannot fail: the topic was validated at push time.
			if err := b.engine.OnPublishBuf(im.msg, im.buf, im.now); err != nil {
				im.buf.Release()
				b.obs.PublishRejected.Inc()
				b.log.Warn("intake publish rejected", "topic", im.msg.Topic, "err", err)
			}
			*im = intakeMsg{} // the slot must not pin the buffer past the hand-over
		})
		if !popped {
			return
		}
	}
}

// onReplica stores a replica in the Backup Buffer (Backup role).
func (b *Broker) onReplica(f *wire.Frame) error {
	err := b.storeReplica(f.Msg, f.ArrivedPrimary)
	if err == nil {
		b.obs.ReplicasStored.Inc()
	}
	return err
}

// storeReplica puts one copy into the Backup Buffer — a Replicate frame off
// the link, or a record replayed from a log. Like onPublish it makes the one
// copy of the message, so a recovery dispatch can send that buffer as it is.
func (b *Broker) storeReplica(m wire.Message, arrivedPrimary time.Duration) error {
	buf := wire.CopyMessage(wire.TypeReplicate, &m)
	lane := b.lane(m.Topic)
	lane.mu.Lock()
	err := b.engine.OnReplicaBuf(m, buf, arrivedPrimary)
	lane.mu.Unlock()
	if err != nil {
		buf.Release()
	}
	return err
}

// dispatchLoop is a lane's one Message Delivery thread: it pops resolved
// work under the lane lock and enqueues it on egress rings outside it. As the
// only goroutine that pops the lane it makes pop → encode → enqueue a single
// sequence, so per-topic FIFO holds by construction. Lanes share nothing on
// this path, so GOMAXPROCS lanes drive GOMAXPROCS cores without contending.
func (b *Broker) dispatchLoop(laneIdx int) {
	lane := b.lanes[laneIdx]
	qm := b.engine.QueueMeter()
	// ready gates parking: work exists when the engine's lane has jobs or
	// the intake holds publishes that would create them. Both probes are
	// atomic reads.
	ready := func() bool {
		return b.stopping.Load() || qm.LaneDepth(laneIdx) > 0 || !lane.intake.Empty()
	}
	var rings []*transport.Egress // fan-out snapshot, reused across jobs
	for {
		lane.mu.Lock()
		var w core.Work
		var ok bool
		for {
			if b.stopping.Load() {
				lane.mu.Unlock()
				return
			}
			b.drainIntakeLocked(lane)
			// The Work comes with its own reference to the message's buffer,
			// taken under the lane lock: once released, later publishes may
			// evict the ring entry the message lives in.
			w, ok = b.engine.NextWorkLane(laneIdx)
			if ok {
				break
			}
			// Idle: sleep outside the lane lock so publishers keep moving;
			// the parker's ready() re-check closes the check-to-sleep race.
			lane.mu.Unlock()
			lane.parker.Park(ready)
			lane.mu.Lock()
		}
		lane.mu.Unlock()
		if b.afterPop != nil {
			b.afterPop(w)
		}

		// Stage accounting: queue wait is enqueue (job release) → pop; the
		// per-kind stage histograms then cover pop → ring enqueues done.
		popped := b.opts.Clock()
		lane.pops.Add(1)
		lane.wait.Observe(popped - w.Job.Release)
		b.obs.StageQueueWait.Observe(popped - w.Job.Release)
		b.obs.Trace(obsv.TraceEvent{Stage: obsv.StagePop, Topic: uint64(w.Msg.Topic), Seq: w.Msg.Seq, At: popped})
		switch w.Kind {
		case core.WorkDispatch:
			if popped > w.Job.Deadline {
				b.lateDispatches.Add(1)
				b.obs.LateDispatches.Inc()
			}
			if w.Job.Recovery {
				// Recovery dispatches come from the Backup Buffer; tracing
				// them lets the chaos invariants prove no discarded copy is
				// ever re-dispatched (Table 3, Recovery step 1).
				b.obs.Trace(obsv.TraceEvent{Stage: obsv.StageRecoveryDispatch, Topic: uint64(w.Msg.Topic), Seq: w.Msg.Seq, At: popped})
			}
			rings = b.dispatch(lane, &w, rings)
			done := b.opts.Clock()
			b.obs.Dispatches.Inc()
			b.obs.StageDispatch.Observe(done - popped)
			b.obs.EndToEnd.Observe(done - w.Job.Release)
			b.obs.Trace(obsv.TraceEvent{Stage: obsv.StageAck, Topic: uint64(w.Msg.Topic), Seq: w.Msg.Seq, At: done})
		case core.WorkReplicate:
			b.replicate(lane, &w)
			done := b.opts.Clock()
			b.obs.StageReplicate.Observe(done - popped)
			b.obs.Trace(obsv.TraceEvent{Stage: obsv.StageAck, Topic: uint64(w.Msg.Topic), Seq: w.Msg.Seq, At: done})
		}
		if w.Buf != nil {
			w.Buf.Release()
		}
	}
}

// frameOf returns w's message as a Dispatch or Replicate frame (t) with one
// reference for the caller to hand on. With no frame of the message queued
// anywhere (w.InPlace) its own buffer becomes the frame and w's reference
// moves to the caller; otherwise a flusher may be reading those bytes —
// dispatch and replicate of one message both in flight — and it is a copy.
func frameOf(w *core.Work, t wire.Type, trailer time.Duration) *wire.FrameBuf {
	var fb *wire.FrameBuf
	if w.InPlace {
		fb, w.Buf = w.Buf, nil
	} else {
		fb = wire.CopyMessage(t, &w.Msg)
	}
	fb.Reframe(t, trailer)
	return fb
}

// dispatch pushes the message to every subscriber of the topic, then runs
// the Table 3 Dispatch steps (flag + prune request). There is one Dispatch
// frame per message, refcounted (one reference per subscriber ring, released
// after each flush) and normally the buffer the message arrived in, so the
// whole fan-out costs no copy and zero steady-state allocations, and the EDF
// lane never touches a socket. rings is scratch, returned for reuse.
func (b *Broker) dispatch(lane *dispatchLane, w *core.Work, rings []*transport.Egress) []*transport.Egress {
	rings = b.subs.Rings(w.Msg.Topic, rings)
	b.obs.Trace(obsv.TraceEvent{Stage: obsv.StageDispatch, Topic: uint64(w.Msg.Topic), Seq: w.Msg.Seq, At: b.opts.Clock()})
	if len(rings) > 0 { // no subscribers: nothing to encode, only coordination
		fb := frameOf(w, wire.TypeDispatch, b.opts.Clock())
		fb.RetainN(len(rings) - 1) // with the dispatcher's own: one reference per ring
		for _, eg := range rings {
			switch eg.Enqueue(fb, w.Msg.Topic, w.LossTolerance) {
			case transport.EnqueueOK, transport.EnqueueShed:
				b.obs.DispatchSends.Inc()
			case transport.EnqueueEvicted:
				b.obs.DispatchSendErrors.Inc()
				b.log.Warn("subscriber evicted: egress ring full past loss tolerance",
					"topic", w.Msg.Topic, "addr", eg.Conn().RemoteAddr())
			default: // EnqueueClosed
				b.obs.DispatchSendErrors.Inc()
			}
		}
	}

	lane.mu.Lock()
	co := b.engine.OnDispatched(w.Job)
	lane.mu.Unlock()
	if b.committer != nil {
		// Prune marker: a crash after this record is synced must not
		// re-dispatch (topic, seq) on replay — Table 3's discipline applied
		// to the log. Fire-and-forget: losing the tail markers in a crash
		// re-dispatches at most the last batch, which subscriber-side seq
		// dedup absorbs.
		b.committer.EnqueuePrune(w.Msg.Topic, w.Msg.Seq)
	}
	if co.SendPrune {
		if ring := b.peer(); ring != nil {
			fb := transport.GetFrameBuf()
			fb.B = wire.AppendPruneBody(fb.B, co.Topic, co.Seq)
			if ring.Enqueue(fb, 0, 0) == transport.EnqueueOK {
				b.obs.PrunesSent.Inc()
			}
		}
	}
	return rings
}

// replicate hands a copy of the message to the Backup's ring (Table 3
// Replicate steps 2–3). OnReplicated runs after the enqueue, as OnDispatched
// does: the ring never sheds, so it either writes the frame or the link is
// dropped, and a failed enqueue means the link died under the frame.
func (b *Broker) replicate(lane *dispatchLane, w *core.Work) {
	ring := b.peer()
	if ring == nil {
		return // backup gone or never configured
	}
	b.obs.Trace(obsv.TraceEvent{Stage: obsv.StageReplicate, Topic: uint64(w.Msg.Topic), Seq: w.Msg.Seq, At: b.opts.Clock()})
	if ring.Enqueue(frameOf(w, wire.TypeReplicate, w.ArrivedPrimary), 0, 0) != transport.EnqueueOK {
		b.obs.ReplicateErrors.Inc()
		return
	}
	b.obs.Replicates.Inc()
	lane.mu.Lock()
	b.engine.OnReplicated(w.Job)
	lane.mu.Unlock()
}

// peer returns the replication ring, nil while no link is up.
func (b *Broker) peer() *transport.Egress {
	b.peerMu.Lock()
	defer b.peerMu.Unlock()
	return b.peerRing
}

// dialPeer opens and greets one replication link to the Backup and installs
// its ring.
func (b *Broker) dialPeer() (*transport.Egress, error) {
	nc, err := b.opts.Network.Dial(b.opts.PeerAddr)
	if err != nil {
		return nil, err
	}
	conn := transport.NewConn(nc)
	conn.SetMeter(&b.meter)
	conn.SetZeroCopy(true)
	if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RoleBrokerPeer, Name: b.Addr()}); err != nil {
		conn.Close()
		return nil, err
	}
	b.peerMu.Lock()
	defer b.peerMu.Unlock()
	// No shedding: a full ring makes the lane wait — backpressure bounded by
	// the write-stall bound, whose expiry counts a stall and drops the link.
	b.peerRing = transport.NewEgress(conn, transport.EgressConfig{
		Stall: b.peerWriteStall(),
		Meter: &b.peerMeter,
		Pool:  b.pool,
	})
	b.log.Info("replication link up", "peer", b.opts.PeerAddr)
	return b.peerRing, nil
}

// connectPeer serves the replication link — dialing the Backup with retries
// first when ring is nil — by draining its read side (poll/time replies)
// until it dies, then retires the ring. A dead Backup is not replaced within
// one run (the paper's scope is a single broker failure).
func (b *Broker) connectPeer(ctx context.Context, ring *transport.Egress) {
	for ring == nil {
		select {
		case <-ctx.Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
		ring, _ = b.dialPeer()
	}
	b.serveConn(ctx, ring.Conn())
	b.peerMu.Lock()
	b.peerRing = nil
	b.peerMu.Unlock()
	transport.Retire(ring)
	if b.peerMeter.Stalls.Load() > 0 {
		// The Backup accepted the link but stopped draining it: replication
		// stops instead of wedging the lanes behind one socket.
		b.log.Warn("replication link dropped: write stalled past deadline", "timeout", b.peerWriteStall())
	}
}

// watchPrimary runs the Backup's failure detector over a dedicated polling
// connection and promotes on crash (§IV-A). The detector probes only while
// the replication link is silent: heardPrimary reports its frames.
func (b *Broker) watchPrimary(ctx context.Context) {
	var conn *transport.Conn
	for ctx.Err() == nil {
		nc, err := b.opts.Network.Dial(b.opts.PeerAddr)
		if err != nil {
			select {
			case <-ctx.Done():
				return
			case <-time.After(10 * time.Millisecond):
				continue
			}
		}
		conn = transport.NewConn(nc)
		conn.SetMeter(&b.meter)
		break
	}
	if conn == nil {
		return
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RoleBrokerPeer, Name: b.Addr()}); err != nil {
		return
	}
	det, err := failover.New(b.opts.Detector, failover.ConnProbe(conn), b.promote)
	if err != nil {
		b.log.Error("detector init failed", "err", err)
		return
	}
	det.SetOnProbe(func(err error) {
		b.obs.DetectorProbes.Inc()
		if err != nil {
			b.obs.DetectorMisses.Inc()
		}
	})
	b.det.Store(det)
	if err := det.Run(ctx); err != nil && ctx.Err() == nil {
		b.log.Warn("detector stopped", "err", err)
	}
}

// heardPrimary reports a frame from the Primary to the Backup's detector:
// proof of life that pushes its next probe one Period out.
func (b *Broker) heardPrimary() {
	if det := b.det.Load(); det != nil {
		det.Heard()
	}
}

// promote executes the §IV-A recovery: the Backup becomes the new Primary
// and schedules dispatch jobs for all non-discarded Backup Buffer copies.
func (b *Broker) promote() {
	b.mu.Lock()
	if b.role == RolePrimary {
		b.mu.Unlock()
		return
	}
	b.role = RolePrimary
	b.mu.Unlock()
	// Promote rewrites whole-engine state (every topic's replication
	// verdict plus recovery jobs pushed into every lane), so it is the one
	// transition that takes all lane locks. Dispatchers hold at most one
	// lane lock and never acquire a second, so the index-ordered sweep
	// cannot deadlock.
	b.lockAllLanes()
	b.engine.Promote()
	stats := b.engine.Stats()
	b.unlockAllLanes()
	for _, l := range b.lanes {
		// The recovery jobs are visible (pushed under the lane locks above);
		// wake every lane's dispatcher to pop them.
		l.parker.Unpark()
	}
	close(b.promoted)
	b.noticePublishers()
	b.obs.Promotions.Inc()
	b.obs.RecoveryJobs.Add(stats.RecoveryJobs)
	b.obs.RecoverySkipped.Add(stats.RecoverySkipped)
	now := b.opts.Clock()
	b.obs.Trace(obsv.TraceEvent{Stage: obsv.StagePromote, At: now})
	for i := uint64(0); i < stats.RecoveryJobs; i++ {
		b.obs.Trace(obsv.TraceEvent{Stage: obsv.StageRecovery, At: now})
	}
	b.log.Info("promoted to primary",
		"recoveryJobs", stats.RecoveryJobs, "skipped", stats.RecoverySkipped)
}

// addPublisher registers a publisher session on a Backup for the promotion
// notice, and tells it at once if the promotion has already happened.
// Registering and checking under the lock promote's sweep takes after
// closing promoted means a Hello racing promotion is told exactly once.
func (b *Broker) addPublisher(s *session) {
	b.ackMu.Lock()
	defer b.ackMu.Unlock()
	b.publishers[s] = struct{}{}
	select {
	case <-b.promoted:
		b.noticeLocked(s)
	default:
	}
}

// noticePublishers tells every registered publisher session that this
// broker is the Primary now. Each notice is queued on the session's reply
// ring and written by the shared flushers, so a publisher that has stopped
// reading delays neither the promotion nor anyone else's notice.
func (b *Broker) noticePublishers() {
	b.ackMu.Lock()
	defer b.ackMu.Unlock()
	for s := range b.publishers {
		b.noticeLocked(s)
	}
}

// noticeLocked queues the promotion notice on s's reply ring, once per
// session. Caller holds ackMu.
func (b *Broker) noticeLocked(s *session) {
	if s.told {
		return
	}
	eg := b.openAckRingLocked(s)
	s.told = true
	fb := transport.GetFrameBuf()
	fb.B = wire.AppendPromotedBody(fb.B[:0])
	if eg.Enqueue(fb, 0, ackLossTolerance) == transport.EnqueueEvicted {
		b.log.Warn("publisher evicted: its reply ring is full", "addr", s.conn.RemoteAddr())
	}
}
