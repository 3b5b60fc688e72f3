// Gateway-level chaos: scripted fault timelines against the three-plane
// topology — a Primary+Backup pair (durability plane), one Gateway
// terminating thin clients (connection plane), and a publisher driving
// the brokers directly — judging the connection plane's isolation
// contract: a gateway crash or a wedged phone stays inside the thin
// clients' Li budgets, and the brokers never notice (no promotion, no
// broker-side shed or eviction, no publish errors).
//
// Gateway scenarios run over the in-process Mem transport: its symbolic
// listener addresses outlive a Stop, so a restarted gateway rebinds the
// exact address its reconnecting clients keep dialing, and its
// synchronous pipes surface wedged-client backpressure deterministically.

package chaos

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/faultinject"
	"repro/internal/gateway"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// NodeGateway is the gateway's node name; faults are scripted against the
// links touching it. The Mem listen address reuses the node name, like the
// broker nodes.
const NodeGateway = "gateway"

// GatewayStep is one timeline entry of a gateway scenario.
type GatewayStep struct {
	At   time.Duration
	Desc string
	Do   func(*GatewayEnv) error
}

// GatewayClient is one thin client of a gateway scenario, with its own
// node name (link faults can single it out) and its own invariant budget —
// the same DSL the pair scenarios' ExtraSubs use.
type GatewayClient struct {
	Name string
	// Wedged connects a raw session that subscribes and then never reads
	// — the phone that fell in a river. Wedged clients carry no invariant
	// budget; the scenario's Check judges what the gateway did to them.
	Wedged bool
	// RequireAll asserts every published sequence was delivered to this
	// client (the drain then also waits for it).
	RequireAll bool
	// MaxConsecutiveLoss is the Li bound asserted per topic; negative
	// skips the check.
	MaxConsecutiveLoss int
	// AllowedRewinds bounds per-link rewinds; negative skips the check.
	AllowedRewinds int
}

// GatewayScenario is one scripted chaos run against a gateway topology.
type GatewayScenario struct {
	Name        string
	Description string
	// Smoke marks the scenario as part of the PR-gating gateway smoke
	// subset.
	Smoke  bool
	Topics []spec.Topic
	Load   Load
	Script []GatewayStep
	// Clients are the thin clients terminated by the gateway.
	Clients []GatewayClient
	// ClientDepth overrides the gateway's per-client ring capacity; zero
	// keeps the gateway default.
	ClientDepth int
	// ClientWriteTimeout bounds each flush write to a client socket.
	ClientWriteTimeout time.Duration
	// Detector overrides the failure detector tuning; zero means the
	// runner's fast default.
	Detector failover.Config
	// Check, when set, runs after the drain; returned strings are failures.
	Check func(*GatewayEnv) []string
}

// GatewayEnv is the live topology a gateway scenario's steps act on.
type GatewayEnv struct {
	Net     *faultinject.Network
	Primary *broker.Broker
	Backup  *broker.Broker
	Pub     *client.Publisher
	// Clients holds the non-wedged thin subscribers by name.
	Clients map[string]*gateway.ThinSubscriber
	Clock   func() time.Duration
	Tr      *Transcript

	detector failover.Config
	gwOpts   gateway.Options

	mu          sync.Mutex
	gw          *gateway.Gateway
	promoted    bool
	promotedAt  time.Duration
	publishErrs int
	clients     []gatewayClientRun
	wedged      map[string]*transport.Conn
}

// gatewayClientRun is one built thin client with its recorder and budget.
type gatewayClientRun struct {
	spec GatewayClient
	sub  *gateway.ThinSubscriber
	rec  *Recorder
}

// Gateway returns the current gateway instance (RestartGateway replaces it).
func (e *GatewayEnv) Gateway() *gateway.Gateway {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gw
}

// CrashGateway fail-stops the gateway: every connection touching it is
// reset and the process state is stopped. The brokers keep running — the
// whole point is that they must not care.
func CrashGateway() func(*GatewayEnv) error {
	return func(e *GatewayEnv) error {
		gw := e.Gateway()
		n := e.Net.ResetNode(NodeGateway)
		e.Tr.Logf(e.Clock(), "crash: reset %d gateway connections", n)
		gw.Stop()
		e.Tr.Logf(e.Clock(), "crash: gateway stopped")
		return nil
	}
}

// RestartGateway brings a fresh gateway up at the same address, the way an
// orchestrator would. Thin clients with Reconnect keep redialing the
// address and land on the new instance.
func RestartGateway() func(*GatewayEnv) error {
	return func(e *GatewayEnv) error {
		gw, err := gateway.New(e.gwOpts)
		if err != nil {
			return fmt.Errorf("restart gateway: %w", err)
		}
		gw.Start()
		e.mu.Lock()
		e.gw = gw
		e.mu.Unlock()
		e.Tr.Logf(e.Clock(), "gateway restarted at %s", gw.Addr())
		return nil
	}
}

// GatewaySetLink installs a fault program on the directed link from → to.
func GatewaySetLink(from, to string, f faultinject.Faults) func(*GatewayEnv) error {
	return func(e *GatewayEnv) error {
		e.Net.SetLink(from, to, f)
		e.Tr.Logf(e.Clock(), "link %s->%s faults: latency=%v jitter=%v bw=%d drop=%.2f stall=%v wbuf=%d",
			from, to, f.Latency, f.Jitter, f.BandwidthBps, f.Drop, f.Stall, f.WriteBufferBytes)
		return nil
	}
}

// RunGateway executes one gateway scenario against a freshly built
// pair+gateway topology over the fault-injected Mem transport and returns
// the judged result.
func RunGateway(sc GatewayScenario, opts RunOptions) (*Result, error) {
	if len(sc.Clients) == 0 {
		return nil, fmt.Errorf("chaos: gateway scenario %q has no clients", sc.Name)
	}
	inner := opts.Inner
	if inner == nil {
		inner = transport.NewMem()
	}
	log := opts.Logger
	if log == nil {
		log = quietLogger()
	}
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	tr := &Transcript{Scenario: sc.Name, Seed: opts.Seed}
	net := faultinject.New(inner, opts.Seed)
	tr.Logf(clock(), "run start: seed=%d scenario=%q clients=%d", opts.Seed, sc.Name, len(sc.Clients))

	detector := sc.Detector
	if detector == (failover.Config{}) {
		detector = defaultDetector()
	}
	cfg := core.FRAMEConfig(chaosParams())
	cfg.MessageBufferCap = 4096
	cfg.BackupBufferCap = 4096

	backup, err := broker.New(broker.Options{
		Engine:     cfg,
		Role:       broker.RoleBackup,
		ListenAddr: NodeBackup,
		PeerAddr:   "pending",
		Network:    net.Node(NodeBackup),
		Clock:      clock,
		Detector:   detector,
		Topics:     sc.Topics,
		Logger:     log,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: backup: %w", err)
	}
	primary, err := broker.New(broker.Options{
		Engine:     cfg,
		Role:       broker.RolePrimary,
		ListenAddr: NodePrimary,
		PeerAddr:   backup.Addr(),
		Network:    net.Node(NodePrimary),
		Clock:      clock,
		Detector:   detector,
		Topics:     sc.Topics,
		Logger:     log,
	})
	if err != nil {
		backup.Stop()
		return nil, fmt.Errorf("chaos: primary: %w", err)
	}
	backup.SetPeerAddr(primary.Addr())
	backup.Start()
	primary.Start()

	e := &GatewayEnv{
		Net:      net,
		Primary:  primary,
		Backup:   backup,
		Clock:    clock,
		Tr:       tr,
		detector: detector,
		Clients:  make(map[string]*gateway.ThinSubscriber),
		wedged:   make(map[string]*transport.Conn),
	}
	stopBrokers := func() {
		primary.Stop()
		backup.Stop()
	}

	e.gwOpts = gateway.Options{
		ListenAddr:         NodeGateway,
		Topics:             sc.Topics,
		BrokerAddrs:        []string{primary.Addr(), backup.Addr()},
		Network:            net.Node(NodeGateway),
		Clock:              clock,
		Name:               NodeGateway,
		ClientDepth:        sc.ClientDepth,
		ClientWriteTimeout: sc.ClientWriteTimeout,
		Logger:             log,
	}
	gw, err := gateway.New(e.gwOpts)
	if err != nil {
		stopBrokers()
		return nil, fmt.Errorf("chaos: gateway: %w", err)
	}
	gw.Start()
	e.gw = gw
	tr.Logf(clock(), "topology up: primary=%s backup=%s gateway=%s", primary.Addr(), backup.Addr(), gw.Addr())

	// Watch for promotion: a gateway fault must never reach the failure
	// detector, so any promotion at all is an isolation breach.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-backup.Promoted():
			at := clock()
			e.mu.Lock()
			e.promoted = true
			e.promotedAt = at
			e.mu.Unlock()
			tr.Logf(at, "backup promoted (gateway fault leaked!)")
		case <-watchDone:
		}
	}()

	teardown := func() {
		e.mu.Lock()
		clients := append([]gatewayClientRun(nil), e.clients...)
		wedged := make([]*transport.Conn, 0, len(e.wedged))
		for _, c := range e.wedged {
			wedged = append(wedged, c)
		}
		e.mu.Unlock()
		for _, cr := range clients {
			cr.sub.Close()
		}
		for _, c := range wedged {
			c.Close()
		}
		if e.Pub != nil {
			e.Pub.Close()
		}
		e.Gateway().Stop()
		stopBrokers()
	}

	// The publisher drives the brokers directly: the durability plane's
	// ingest must be provably untouched by anything the connection plane
	// does, so any publish error is an invariant failure, not load noise.
	pub, err := client.NewPublisher(client.PublisherOptions{
		Name:        NodePub,
		Topics:      sc.Topics,
		PrimaryAddr: primary.Addr(),
		BackupAddr:  backup.Addr(),
		Network:     net.Node(NodePub),
		Clock:       clock,
		Detector:    detector,
		Logger:      log,
	})
	if err != nil {
		teardown()
		return nil, fmt.Errorf("chaos: publisher: %w", err)
	}
	e.Pub = pub

	topicIDs := make([]spec.TopicID, len(sc.Topics))
	for i, tp := range sc.Topics {
		topicIDs[i] = tp.ID
	}
	for _, gc := range sc.Clients {
		if gc.Wedged {
			conn, err := wedgeClient(net, gc.Name, gw.Addr(), topicIDs)
			if err != nil {
				teardown()
				return nil, fmt.Errorf("chaos: wedged client %s: %w", gc.Name, err)
			}
			e.mu.Lock()
			e.wedged[gc.Name] = conn
			e.mu.Unlock()
			continue
		}
		rec := NewRecorder()
		sub, err := gateway.NewThinSubscriber(gateway.ThinSubscriberOptions{
			Name:        gc.Name,
			Topics:      topicIDs,
			GatewayAddr: gw.Addr(),
			Network:     net.Node(gc.Name),
			Clock:       clock,
			Reconnect:   true,
			OnFrame:     rec.Note,
			Logger:      log,
		})
		if err != nil {
			teardown()
			return nil, fmt.Errorf("chaos: thin client %s: %w", gc.Name, err)
		}
		e.mu.Lock()
		e.clients = append(e.clients, gatewayClientRun{spec: gc, sub: sub, rec: rec})
		e.mu.Unlock()
		e.Clients[gc.Name] = sub
	}

	// Readiness: the gateway's upstream session registered on the Primary,
	// and every thin client's Subscribe landed on the gateway.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if primary.Health().EgressSubs >= 1 && gw.Subscribers() >= len(sc.Clients) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	pumpDone := make(chan struct{})
	pumpStop := make(chan struct{})
	go func() {
		defer close(pumpDone)
		payload := make([]byte, sc.Load.PayloadSize)
		ticker := time.NewTicker(sc.Load.Interval)
		defer ticker.Stop()
		for i := 0; i < sc.Load.Count; i++ {
			for _, id := range topicIDs {
				if _, err := pub.Publish(id, payload); err != nil {
					e.mu.Lock()
					e.publishErrs++
					e.mu.Unlock()
				}
			}
			select {
			case <-ticker.C:
			case <-pumpStop:
				return
			}
		}
		tr.Logf(clock(), "publish pump done: %d messages x %d topics", sc.Load.Count, len(topicIDs))
	}()

	for _, step := range sc.Script {
		if wait := step.At - clock(); wait > 0 {
			time.Sleep(wait)
		}
		tr.Logf(clock(), "step: %s", step.Desc)
		if err := step.Do(e); err != nil {
			tr.Logf(clock(), "step failed: %v", err)
			close(pumpStop)
			<-pumpDone
			teardown()
			return nil, fmt.Errorf("chaos: step %q: %w", step.Desc, err)
		}
	}
	<-pumpDone

	net.ClearAllFaults()
	tr.Logf(clock(), "all faults cleared; draining")
	drainDeadline := time.Now().Add(drainTimeout)
	lastTotal, quietSince := uint64(0), time.Now()
	for time.Now().Before(drainDeadline) {
		total := uint64(0)
		complete := true
		for _, cr := range e.clients {
			for _, id := range topicIDs {
				got := cr.sub.Received(id)
				total += got
				if cr.spec.RequireAll && got < pub.LastSeq(id) {
					complete = false
				}
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
	tr.Logf(clock(), "drain done")

	res := &Result{
		Scenario:   sc.Name,
		Seed:       opts.Seed,
		Transcript: tr,
	}
	for _, id := range topicIDs {
		res.Published += pub.LastSeq(id)
	}
	for _, cr := range e.clients {
		res.Duplicates += cr.sub.Duplicates()
		res.Frames += cr.rec.TotalFrames()
		for _, id := range topicIDs {
			res.Delivered += cr.sub.Received(id)
		}
	}
	res.Failures = e.checkGatewayInvariants(sc)

	teardown()
	res.Elapsed = time.Since(start)
	e.mu.Lock()
	res.PublishErrs = e.publishErrs
	e.mu.Unlock()
	tr.Logf(clock(), "result: published=%d delivered=%d dups=%d frames=%d publishErrs=%d failures=%d",
		res.Published, res.Delivered, res.Duplicates, res.Frames, res.PublishErrs, len(res.Failures))

	if !res.Passed() && opts.ArtifactsDir != "" {
		if path, err := tr.WriteFile(opts.ArtifactsDir, res.Failures); err == nil {
			res.ArtifactPath = path
		}
	}
	return res, nil
}

// wedgeClient opens a raw session that subscribes and then never reads —
// its gateway-side ring must absorb, shed, and finally evict it.
func wedgeClient(net *faultinject.Network, name, addr string, topics []spec.TopicID) (*transport.Conn, error) {
	nc, err := net.Node(name).Dial(addr)
	if err != nil {
		return nil, err
	}
	conn := transport.NewConn(nc)
	if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RoleSubscriber, Name: name}); err != nil {
		conn.Close()
		return nil, err
	}
	if err := conn.Send(&wire.Frame{Type: wire.TypeSubscribe, Topics: topics}); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// checkGatewayInvariants judges the isolation contract: per-client Li and
// FIFO budgets, no promotion, no publish errors, and clean broker-side
// egress — connection-plane faults must be invisible one plane up.
func (e *GatewayEnv) checkGatewayInvariants(sc GatewayScenario) []string {
	var failures []string

	e.mu.Lock()
	promoted, promotedAt := e.promoted, e.promotedAt
	publishErrs := e.publishErrs
	e.mu.Unlock()

	for _, tp := range sc.Topics {
		if e.Pub.LastSeq(tp.ID) == 0 {
			failures = append(failures, fmt.Sprintf("topic %d: nothing was published — load pump broken", tp.ID))
		}
	}
	for _, cr := range e.clients {
		for _, tp := range sc.Topics {
			last := e.Pub.LastSeq(tp.ID)
			if last == 0 {
				continue
			}
			got := cr.sub.Received(tp.ID)
			if got == 0 {
				failures = append(failures, fmt.Sprintf("client %s, topic %d: published %d, delivered none",
					cr.spec.Name, tp.ID, last))
				continue
			}
			if cr.spec.RequireAll && got != last {
				failures = append(failures, fmt.Sprintf("client %s, topic %d: published %d, delivered %d distinct",
					cr.spec.Name, tp.ID, last, got))
			}
			if cr.spec.MaxConsecutiveLoss >= 0 {
				if loss := cr.sub.MaxConsecutiveLoss(tp.ID, last); loss > cr.spec.MaxConsecutiveLoss {
					failures = append(failures, fmt.Sprintf("client %s, topic %d: max consecutive loss %d exceeds Li bound %d",
						cr.spec.Name, tp.ID, loss, cr.spec.MaxConsecutiveLoss))
				}
			}
		}
		if cr.spec.AllowedRewinds >= 0 {
			for _, v := range cr.rec.fifoViolations(cr.spec.AllowedRewinds) {
				failures = append(failures, fmt.Sprintf("client %s: %s", cr.spec.Name, v))
			}
		}
	}

	if promoted {
		failures = append(failures, fmt.Sprintf("backup promoted at %v — a connection-plane fault reached the failure detector", promotedAt))
	}
	if publishErrs > 0 {
		failures = append(failures, fmt.Sprintf("publisher saw %d errors on the direct broker path — the gateway fault leaked into the durability plane", publishErrs))
	}
	for _, b := range []*broker.Broker{e.Primary, e.Backup} {
		es := b.EgressStats()
		if es.Shed > 0 || es.Evictions > 0 {
			failures = append(failures, fmt.Sprintf("%s broker shed %d / evicted %d on its own egress — client backpressure leaked past the gateway",
				b.Role(), es.Shed, es.Evictions))
		}
	}

	if sc.Check != nil {
		failures = append(failures, sc.Check(e)...)
	}
	return failures
}
