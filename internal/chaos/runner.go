package chaos

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/faultinject"
	"repro/internal/gateway"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
	"repro/internal/wire"
)

// RunOptions configures one scenario run: Seed drives every fault
// decision, and ArtifactsDir, when set, receives a transcript+seed
// artifact for every failed run.
type RunOptions struct {
	Seed         int64
	ArtifactsDir string
}

// Result is one finished scenario run. Published sums the topics' last
// sequences; Acked sums the highest sequence a Publish returned (on a
// durable deployment, what the broker confirmed durable); Delivered and
// Duplicates sum the receivers' distinct and discarded deliveries; Pruned
// and Recovered count the entries the Table 3 tracers saw discarded and
// recovery-dispatched, so a check that passed only because nothing
// happened is visible.
type Result struct {
	Seed         int64
	Failures     []string
	Transcript   *Transcript
	ArtifactPath string

	Published, Acked, Delivered, Duplicates uint64
	PublishErrs, Pruned, Recovered          int
	Elapsed                                 time.Duration
}

// Passed reports whether every invariant held.
func (r *Result) Passed() bool { return len(r.Failures) == 0 }

// drain tuning: after clearing all faults the runner waits for delivery
// counts to complete or go quiet before judging.
const (
	drainTimeout = 10 * time.Second
	drainQuiet   = 400 * time.Millisecond
)

// defaultDetector is fast enough for crash scenarios to finish in seconds,
// tolerant enough (20ms probe timeout) not to false-positive on loaded CI.
var defaultDetector = failover.Config{Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond, Misses: 3}

// receiver is one built Receiver: its subscriber or wedged session, and its recorder.
type receiver struct {
	Receiver
	sub   *client.Subscriber
	wedge *transport.Conn
	rec   *Recorder
}

func (r *receiver) close() {
	if r.sub != nil {
		r.sub.Close()
	}
	if r.wedge != nil {
		r.wedge.Close()
	}
}

// Env is the live deployment a scenario's steps and Check act on. Steps,
// Check and teardown all run on Run's goroutine.
type Env struct {
	Net *faultinject.Network
	// Cluster is the broker plane: one pair per shard, the pair deployment
	// being shard 0 of a one-shard cluster.
	Cluster *cluster.Cluster
	// Gateway is the current gateway; RestartGateway replaces it.
	Gateway *gateway.Gateway
	Clock   func() time.Duration
	Tr      *Transcript

	sc        Scenario
	log       *slog.Logger
	topics    []spec.Topic // every served topic, the orphan topic included
	logDir    string
	gwOpts    gateway.Options
	pubs      []*cluster.Publisher
	pubTopics [][]spec.Topic // the topics each publisher pumps
	recv      []*receiver
	traces    []*traceRecorder
	lifeOne   *traceRecorder // the durable first-life Primary's, for the lost-ack diagnosis
	second    *secondLife
	faultAt   time.Duration // first broker-affecting fault
	faultSet  bool
	crashed   map[*broker.Broker]bool
	killed    bool
	pumpStop  chan struct{}
	pumpDone  chan struct{}
	endOnce   sync.Once

	mu          sync.Mutex // guards the fields the watchers and pumps write
	promoted    map[int]time.Duration
	acked       map[spec.TopicID]uint64
	publishErrs int
}

// Run brings the scenario's deployment up over the fault-injected
// transport, pumps the load, plays the script, drains and returns the
// judged result. Setup failures (bind errors and the like) return an
// error; invariant breaches land in Result.Failures.
func Run(sc Scenario, opts RunOptions) (*Result, error) {
	if (sc.Gateway != nil || sc.Durable != nil) && !sc.Mem {
		return nil, fmt.Errorf("chaos: %s: gateway and durable deployments need Mem so a restart can rebind the crashed address", sc.Name)
	}
	if sc.Durable != nil && sc.Shards >= 2 {
		return nil, fmt.Errorf("chaos: %s: the durable plane runs on a single pair: KillPair and the second life handle shard 0's pair only", sc.Name)
	}
	for _, r := range sc.Receivers {
		if r.viaGateway() && sc.Gateway == nil {
			return nil, fmt.Errorf("chaos: %s: receiver %s attaches through a gateway the deployment lacks", sc.Name, r.Name)
		}
	}
	var inner transport.Network = &transport.TCP{DialTimeout: 2 * time.Second}
	if sc.Mem {
		inner = transport.NewMem()
	}
	start := time.Now()
	e := &Env{
		Net:      faultinject.New(inner, opts.Seed),
		Clock:    func() time.Duration { return time.Since(start) },
		Tr:       &Transcript{Scenario: sc.Name, Seed: opts.Seed},
		sc:       sc,
		log:      slog.New(slog.NewTextHandler(io.Discard, nil)), // crash and partition warnings are expected
		topics:   sc.Topics,
		crashed:  make(map[*broker.Broker]bool),
		pumpStop: make(chan struct{}),
		pumpDone: make(chan struct{}),
		promoted: make(map[int]time.Duration),
		acked:    make(map[spec.TopicID]uint64),
	}
	if e.sc.Detector == (failover.Config{}) {
		e.sc.Detector = defaultDetector
	}
	e.Tr.Logf(e.Clock(), "run start: seed=%d scenario=%q planes=%v", opts.Seed, sc.Name, sc.Planes())

	watchDone := make(chan struct{})
	defer close(watchDone)
	err := e.bringUp(watchDone)
	if err == nil {
		err = e.play()
	}
	if err != nil {
		e.teardown()
		return nil, fmt.Errorf("chaos: %s: %w", sc.Name, err)
	}
	res := e.result(opts.Seed)
	res.Failures = e.judge()
	e.teardown()
	res.Elapsed = time.Since(start)
	e.Tr.Logf(e.Clock(), "result: published=%d acked=%d delivered=%d dups=%d publishErrs=%d pruned=%d recovered=%d failures=%d",
		res.Published, res.Acked, res.Delivered, res.Duplicates, res.PublishErrs, res.Pruned, res.Recovered, len(res.Failures))
	if !res.Passed() && opts.ArtifactsDir != "" {
		if path, err := e.Tr.WriteFile(opts.ArtifactsDir, res.Failures); err == nil {
			res.ArtifactPath = path
		}
	}
	return res, nil
}

// bringUp builds every plane of the deployment, then the publishers and
// receivers. Every subscription is in place when it returns: a subscriber,
// the gateway's upstream one included, and a wedged session each confirm
// theirs before they are counted up.
func (e *Env) bringUp(watchDone chan struct{}) error {
	if d := e.sc.Durable; d != nil {
		dir, err := os.MkdirTemp("", "frame-chaos-durable-*")
		if err != nil {
			return err
		}
		e.logDir = dir
		if d.Orphans > 0 {
			// One extra topic exists only to carry the grafted orphan
			// records, so every delivery on it must come from log recovery.
			e.topics = append(append([]spec.Topic{}, e.sc.Topics...), chaosTopic(e.orphanTopic(), 512))
		}
	}
	if err := e.startBrokers(); err != nil {
		return err
	}
	// Promotion watchers stamp the instants the bound is judged against;
	// Promoted() is a broadcast, so they coexist with the Directory's.
	for _, p := range e.Cluster.Pairs {
		go func(p *cluster.Pair) {
			select {
			case <-p.Backup.Promoted():
				at := e.Clock()
				e.mu.Lock()
				e.promoted[p.Index] = at
				e.mu.Unlock()
				e.Tr.Logf(at, "shard %d backup promoted", p.Index)
			case <-watchDone:
			}
		}(p)
	}
	if g := e.sc.Gateway; g != nil {
		e.gwOpts = gateway.Options{
			ListenAddr:         NodeGateway,
			Topics:             e.topics,
			DirectoryAddr:      e.Cluster.Dir.Addr(),
			Network:            e.Net.Node(NodeGateway),
			Clock:              e.Clock,
			Name:               NodeGateway,
			ClientDepth:        g.ClientDepth,
			ClientWriteTimeout: g.ClientWriteTimeout,
			Logger:             e.log,
		}
		if err := RestartGateway()(e); err != nil {
			return err
		}
	}
	if err := e.startPublishers(); err != nil {
		return fmt.Errorf("publisher: %w", err)
	}
	for _, spec := range e.sc.Receivers {
		r, err := e.startReceiver(spec)
		if err != nil {
			return fmt.Errorf("receiver %s: %w", spec.Name, err)
		}
		e.recv = append(e.recv, r)
	}
	return nil
}

// startBrokers brings up the broker plane, a cluster.New cluster of
// max(Shards, 1) pairs built from one broker template, and gives every
// Backup a Table 3 tracer. On a durable deployment the Primary logs under
// logDir and, in each life, holds its log's recovery until the harness
// has reattached a subscriber; the first life's log starts empty.
func (e *Env) startBrokers() error {
	cfg := cluster.Config{Shards: max(e.sc.Shards, 1), Topics: e.topics, NodeNetwork: e.Net.Node, Mem: e.sc.Mem}
	tmpl := &cfg.Broker
	tmpl.Engine = core.FRAMEConfig(timing.Params{ // the broker tests' loopback regime
		DeltaBSEdge: time.Millisecond, DeltaBSCloud: time.Millisecond, DeltaBB: time.Millisecond,
		Failover: 100 * time.Millisecond,
	})
	// The pump publishes in bursts relative to Ti, so size the buffers for
	// the whole run rather than relying on Ti-spaced arrivals.
	tmpl.Engine.MessageBufferCap, tmpl.Engine.BackupBufferCap = 4096, 4096
	tmpl.Clock, tmpl.Detector, tmpl.Logger, tmpl.EgressDepth = e.Clock, e.sc.Detector, e.log, e.sc.EgressDepth
	if d := e.sc.Durable; d != nil {
		tmpl.Durable, tmpl.LogDir, tmpl.HoldRecovery = true, e.logDir, true
		tmpl.FsyncInterval, tmpl.LogSegmentBytes = d.FsyncInterval, d.SegmentBytes
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	e.Cluster = c
	for _, p := range c.Pairs {
		e.traceBroker(cluster.BackupNode(p.Index), p.Backup.Obs())
	}
	if e.sc.Durable != nil {
		e.lifeOne = e.traceBroker(NodePrimary, c.Pairs[0].Primary.Obs())
	}
	return nil
}

// startPublishers opens the publishing side: Conns cluster publishers
// (one without a durable plane) on one Router, sharing the topics
// round-robin, with ACK = durable on a durable deployment.
func (e *Env) startPublishers() error {
	router, err := cluster.NewRouter(cluster.RouterOptions{
		DirectoryAddr: e.Cluster.Dir.Addr(),
		Network:       e.Net.Node(NodePub),
		Logger:        e.log,
	})
	if err != nil {
		return err
	}
	d := e.sc.Durable
	owned := make([][]spec.Topic, 1)
	if d != nil {
		owned = make([][]spec.Topic, max(d.Conns, 1))
	}
	for i, tp := range e.sc.Topics { // topic i rides publisher i mod conns
		owned[i%len(owned)] = append(owned[i%len(owned)], tp)
	}
	for _, topics := range owned {
		pub, err := cluster.NewPublisher(cluster.PublisherOptions{
			Publisher: client.PublisherOptions{
				Name:        NodePub,
				Topics:      topics,
				Network:     e.Net.Node(NodePub),
				Clock:       e.Clock,
				Logger:      e.log,
				DurableAcks: d != nil,
				AckTimeout:  time.Second,
			},
			Router: router,
			// Poll as well as redirect-refresh, so routing-plane outage
			// scenarios actually exercise fetch failures mid-run.
			RefreshInterval: 50 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		e.pubs = append(e.pubs, pub)
		e.pubTopics = append(e.pubTopics, topics)
	}
	return nil
}

// startReceiver attaches one receiver: a wedged raw session on the
// gateway, or a subscriber holding links to the gateway or to every broker
// in the cluster's routing table (for one shard, the pair).
func (e *Env) startReceiver(spec Receiver) (*receiver, error) {
	r := &receiver{Receiver: spec, rec: NewRecorder()}
	net, ids := e.Net.Node(spec.Name), topicIDs(e.topics)
	var err error
	if spec.Wedged {
		r.wedge, err = wedge(net, spec.Name, e.Gateway.Addr(), ids)
		return r, err
	}
	addrs := e.Cluster.Dir.Table().Addrs()
	if spec.Gateway {
		addrs = []string{e.Gateway.Addr()}
	}
	r.sub, err = client.NewSubscriber(client.SubscriberOptions{
		Name:        spec.Name,
		Topics:      ids,
		BrokerAddrs: addrs,
		Network:     net,
		Clock:       e.Clock,
		OnFrame:     r.rec.Note,
		Logger:      e.log,
	})
	return r, err
}

// wedge opens a raw session that subscribes, confirms its Subscribe as a
// client.Subscriber does (a Poll, then its PollReply) and then never reads
// again — its sender-side ring must absorb, shed, and finally evict it.
func wedge(net transport.Network, name, addr string, topics []spec.TopicID) (*transport.Conn, error) {
	nc, err := net.Dial(addr)
	if err != nil {
		return nil, err
	}
	conn := transport.NewConn(nc)
	const nonce = 1
	for _, f := range []*wire.Frame{
		{Type: wire.TypeHello, Role: wire.RoleSubscriber, Name: name},
		{Type: wire.TypeSubscribe, Topics: topics},
		{Type: wire.TypePoll, Nonce: nonce},
	} {
		if err := conn.Send(f); err != nil {
			conn.Close()
			return nil, err
		}
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	for {
		f, err := conn.Recv()
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("subscription unconfirmed: %w", err)
		}
		if f.Type == wire.TypePollReply && f.Nonce == nonce {
			return conn, nil
		}
	}
}

// play runs the publish pump and the timeline, heals the world, and
// drains: held frames deliver, resends land, then the delivery counts go
// quiet. After a KillPair on a durable deployment the second life runs
// in place of the drain.
func (e *Env) play() error {
	e.startPump()
	for _, step := range e.sc.Script {
		if wait := step.At - e.Clock(); wait > 0 {
			time.Sleep(wait)
		}
		e.Tr.Logf(e.Clock(), "step: %s", step.Desc)
		if err := step.Do(e); err != nil {
			e.Tr.Logf(e.Clock(), "step failed: %v", err)
			e.endLoad()
			return fmt.Errorf("step %q: %w", step.Desc, err)
		}
	}
	<-e.pumpDone
	e.Net.ClearAllFaults()
	e.Tr.Logf(e.Clock(), "all faults cleared; draining")
	if e.killed && e.sc.Durable != nil {
		return e.runSecondLife()
	}
	drain(func() (total uint64, complete bool) {
		complete = true
		for _, r := range e.recv {
			if r.sub == nil {
				continue
			}
			for _, tp := range e.sc.Topics {
				got := r.sub.Received(tp.ID)
				total += got
				// Only a RequireAll receiver can be seen to be complete; a
				// lossy one drains until the counts go quiet, so frames
				// still in flight are not judged as lost.
				complete = complete && r.RequireAll && got >= e.lastSeq(tp.ID)
			}
		}
		return total, complete
	})
	e.Tr.Logf(e.Clock(), "drain done")
	return nil
}

// drain polls progress until it reports completion, its total stops
// moving for drainQuiet, or drainTimeout passes.
func drain(progress func() (total uint64, complete bool)) {
	last, quietSince := uint64(0), time.Now()
	for deadline := time.Now().Add(drainTimeout); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		total, complete := progress()
		if complete {
			return
		}
		if total != last {
			last, quietSince = total, time.Now()
		} else if time.Since(quietSince) > drainQuiet {
			return
		}
	}
}

// startPump runs the publish load: on each publisher, InFlight goroutines
// publish Load.Count rounds of its topics, one round every Interval. Send
// errors during crashes and resets are expected — resend covers them.
// acked[topic] is the highest sequence a Publish returned; a connection
// sends a topic's publishes in order and the broker stages them in
// arrival order, so a durable ack for seq n certifies every lower seq.
func (e *Env) startPump() {
	inFlight, ld := 1, e.sc.Load
	if d := e.sc.Durable; d != nil {
		inFlight = max(d.InFlight, 1)
	}
	var wg sync.WaitGroup
	for i, pub := range e.pubs {
		for g := 0; g < inFlight; g++ {
			wg.Add(1)
			go func(pub *cluster.Publisher, topics []spec.Topic) {
				defer wg.Done()
				payload := make([]byte, ld.PayloadSize)
				ticker := time.NewTicker(ld.Interval)
				defer ticker.Stop()
				for n := 0; n < ld.Count; n++ {
					for _, tp := range topics {
						seq, err := pub.Publish(tp.ID, payload)
						e.mu.Lock()
						if err != nil {
							e.publishErrs++
						} else {
							e.acked[tp.ID] = max(e.acked[tp.ID], seq)
						}
						e.mu.Unlock()
					}
					select {
					case <-ticker.C:
					case <-e.pumpStop:
						return
					}
				}
			}(pub, e.pubTopics[i])
		}
	}
	go func() {
		wg.Wait()
		e.Tr.Logf(e.Clock(), "publish pump done: %d messages x %d topics", ld.Count, len(e.sc.Topics))
		close(e.pumpDone)
	}()
}

// endLoad stops the pump early and closes the publishers, which releases
// durable publishes still parked on an ack, then waits for the pump.
func (e *Env) endLoad() {
	e.closeLoad()
	<-e.pumpDone
}

func (e *Env) closeLoad() {
	e.endOnce.Do(func() {
		close(e.pumpStop)
		for _, p := range e.pubs {
			p.Close()
		}
	})
}

// lastSeq is the highest sequence any publisher created for the topic.
func (e *Env) lastSeq(id spec.TopicID) uint64 {
	var last uint64
	for _, p := range e.pubs {
		last = max(last, p.LastSeq(id))
	}
	return last
}

// teardown closes endpoints, the gateway and every broker a step did not
// already stop; it copes with a partially built deployment.
func (e *Env) teardown() {
	for _, r := range e.recv {
		r.close()
	}
	e.closeLoad()
	if e.Gateway != nil {
		e.Gateway.Stop()
	}
	if e.Cluster != nil {
		e.Cluster.StopExcept(e.crashed)
	}
	if e.logDir != "" {
		os.RemoveAll(e.logDir)
	}
}

// result totals the run's counters.
func (e *Env) result(seed int64) *Result {
	res := &Result{Seed: seed, Transcript: e.Tr}
	e.mu.Lock()
	res.PublishErrs = e.publishErrs
	for _, tp := range e.sc.Topics {
		res.Acked += e.acked[tp.ID]
	}
	e.mu.Unlock()
	for _, tp := range e.sc.Topics {
		res.Published += e.lastSeq(tp.ID)
	}
	for _, r := range e.recv {
		if r.sub != nil {
			res.Duplicates += r.sub.Duplicates()
			for _, tp := range e.sc.Topics {
				res.Delivered += r.sub.Received(tp.ID)
			}
		}
	}
	if s := e.second; s != nil {
		for _, tp := range e.topics {
			res.Delivered += s.sub.Received(tp.ID)
		}
	}
	for _, t := range e.traces {
		t.mu.Lock()
		res.Pruned += len(t.pruned)
		for _, n := range t.recovered {
			res.Recovered += n
		}
		t.mu.Unlock()
	}
	return res
}

func topicIDs(topics []spec.Topic) []spec.TopicID {
	ids := make([]spec.TopicID, len(topics))
	for i, tp := range topics {
		ids[i] = tp.ID
	}
	return ids
}

// Transcript is the timestamped event log of one scenario run. On failure
// it is written (with the seed and a ready-to-paste replay command) as the
// artifact that makes a CI red locally reproducible.
type Transcript struct {
	Scenario string
	Seed     int64

	mu     sync.Mutex
	events []string
}

// Logf appends one timestamped event.
func (tr *Transcript) Logf(at time.Duration, format string, args ...any) {
	tr.mu.Lock()
	tr.events = append(tr.events, fmt.Sprintf("%10s  %s", at.Round(100*time.Microsecond), fmt.Sprintf(format, args...)))
	tr.mu.Unlock()
}

// String renders the full transcript, replay header included.
func (tr *Transcript) String() string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %s\nseed: %d\nreplay: go run ./cmd/frame-chaos -scenario %s -seed %d\nevents:\n",
		tr.Scenario, tr.Seed, tr.Scenario, tr.Seed)
	for _, e := range tr.events {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// WriteFile persists the transcript (plus the run's failures) under dir and
// returns the artifact path.
func (tr *Transcript) WriteFile(dir string, failures []string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed-%d.txt", tr.Scenario, tr.Seed))
	content := tr.String()
	if len(failures) > 0 {
		content += "failures:\n  " + strings.Join(failures, "\n  ") + "\n"
	}
	return path, os.WriteFile(path, []byte(content), 0o644)
}
