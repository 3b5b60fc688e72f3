package chaos

import (
	"fmt"
	"log/slog"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/faultinject"
	"repro/internal/obsv"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
)

// RunOptions configures one scenario run.
type RunOptions struct {
	// Seed drives every fault decision; a failed run prints it and the same
	// seed replays the same fault lottery.
	Seed int64
	// Inner is the transport under the injector; nil means real TCP over
	// loopback — the configuration the acceptance runs use.
	Inner transport.Network
	// ArtifactsDir, when non-empty, receives a transcript+seed artifact for
	// every failed run.
	ArtifactsDir string
	// Logger receives broker/client operational noise; nil discards it
	// (expected crash/partition warnings would drown real output).
	Logger *slog.Logger
}

// Result is one finished scenario run.
type Result struct {
	Scenario     string
	Seed         int64
	Failures     []string
	Transcript   *Transcript
	ArtifactPath string
	Published    uint64
	Delivered    uint64
	Duplicates   uint64
	Frames       int
	PublishErrs  int
	Elapsed      time.Duration
}

// Passed reports whether every invariant held.
func (r *Result) Passed() bool { return len(r.Failures) == 0 }

// drain tuning: the runner clears all faults, then waits for delivery
// counts to go quiet (or complete) before judging invariants.
const (
	drainTimeout = 10 * time.Second
	drainQuiet   = 400 * time.Millisecond
)

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(discardWriter{}, &slog.HandlerOptions{Level: slog.LevelError}))
}

// defaultDetector is fast enough that crash scenarios finish in seconds but
// tolerant enough (20ms probe timeout) not to false-positive on a loaded
// CI runner's scheduling hiccups.
func defaultDetector() failover.Config {
	return failover.Config{Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond, Misses: 3}
}

// chaosParams mirrors the loopback latency regime of the broker tests, with
// a failover budget covering the chaos detector.
func chaosParams() timing.Params {
	return timing.Params{
		DeltaBSEdge:  time.Millisecond,
		DeltaBSCloud: time.Millisecond,
		DeltaBB:      time.Millisecond,
		Failover:     100 * time.Millisecond,
	}
}

// Run executes one scenario against a freshly built Primary+Backup cluster
// over the fault-injected transport and returns the judged result. Setup
// failures (bind errors and the like) return an error; invariant breaches
// land in Result.Failures.
func Run(sc Scenario, opts RunOptions) (*Result, error) {
	inner := opts.Inner
	if inner == nil {
		if sc.Mem {
			inner = transport.NewMem()
		} else {
			inner = &transport.TCP{DialTimeout: 2 * time.Second}
		}
	}
	log := opts.Logger
	if log == nil {
		log = quietLogger()
	}
	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	tr := &Transcript{Scenario: sc.Name, Seed: opts.Seed}
	net := faultinject.New(inner, opts.Seed)
	tr.Logf(clock(), "run start: seed=%d scenario=%q", opts.Seed, sc.Name)

	detector := sc.Detector
	if detector == (failover.Config{}) {
		detector = defaultDetector()
	}

	cfg := core.FRAMEConfig(chaosParams())
	// The pump publishes in bursts relative to Ti, so size the Message
	// Buffer for the whole run rather than relying on Ti-spaced arrivals.
	cfg.MessageBufferCap = 4096
	cfg.BackupBufferCap = 4096

	traces := newTraceRecorder()
	backupObs := obsv.NewBrokerMetrics()
	backupObs.SetTracer(traces.note)

	listen := "127.0.0.1:0"
	if _, ok := inner.(*transport.Mem); ok {
		listen = ""
	}
	backupListen, primaryListen := listen, listen
	if listen == "" { // Mem addresses are plain names
		backupListen, primaryListen = NodeBackup, NodePrimary
	}

	backup, err := broker.New(broker.Options{
		Engine:      cfg,
		Role:        broker.RoleBackup,
		ListenAddr:  backupListen,
		PeerAddr:    "pending", // fixed up via SetPeerAddr once the Primary binds
		Network:     net.Node(NodeBackup),
		Clock:       clock,
		Detector:    detector,
		Topics:      sc.Topics,
		Logger:      log,
		Obs:         backupObs,
		EgressDepth: sc.EgressDepth,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: backup: %w", err)
	}
	primary, err := broker.New(broker.Options{
		Engine:      cfg,
		Role:        broker.RolePrimary,
		ListenAddr:  primaryListen,
		PeerAddr:    backup.Addr(),
		Network:     net.Node(NodePrimary),
		Clock:       clock,
		Detector:    detector,
		Topics:      sc.Topics,
		Logger:      log,
		ExtraGauges: net.Gauges,
		EgressDepth: sc.EgressDepth,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: primary: %w", err)
	}
	backup.SetPeerAddr(primary.Addr())
	backup.Start()
	primary.Start()
	tr.Logf(clock(), "cluster up: primary=%s backup=%s", primary.Addr(), backup.Addr())

	e := &Env{
		Net:      net,
		Primary:  primary,
		Backup:   backup,
		Clock:    clock,
		Tr:       tr,
		detector: detector,
	}

	// Watch for promotion so the polling-bound invariant has a timestamp.
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
			tr.Logf(at, "backup promoted")
		case <-watchDone:
		}
	}()

	rec := NewRecorder()
	topicIDs := make([]spec.TopicID, len(sc.Topics))
	for i, tp := range sc.Topics {
		topicIDs[i] = tp.ID
	}
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name:        NodeSub,
		Topics:      topicIDs,
		BrokerAddrs: []string{primary.Addr(), backup.Addr()},
		Network:     net.Node(NodeSub),
		Clock:       clock,
		OnFrame:     rec.Note,
		Logger:      log,
	})
	if err != nil {
		stopCluster(e)
		return nil, fmt.Errorf("chaos: subscriber: %w", err)
	}
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
		sub.Close()
		stopCluster(e)
		return nil, fmt.Errorf("chaos: publisher: %w", err)
	}
	e.Sub, e.Pub = sub, pub

	// Extra subscribers: each gets its own node name (link faults can
	// single it out), its own frame recorder, and its own invariant budget.
	e.Extra = make(map[string]*client.Subscriber, len(sc.ExtraSubs))
	for _, xs := range sc.ExtraSubs {
		xrec := NewRecorder()
		xsub, err := client.NewSubscriber(client.SubscriberOptions{
			Name:        xs.Name,
			Topics:      topicIDs,
			BrokerAddrs: []string{primary.Addr(), backup.Addr()},
			Network:     net.Node(xs.Name),
			Clock:       clock,
			OnFrame:     xrec.Note,
			Logger:      log,
		})
		if err != nil {
			pubSubTeardown(e)
			stopCluster(e)
			return nil, fmt.Errorf("chaos: extra subscriber %s: %w", xs.Name, err)
		}
		e.extras = append(e.extras, extraRun{spec: xs, sub: xsub, rec: xrec})
		e.Extra[xs.Name] = xsub
	}

	// Subscriptions land asynchronously; give the Primary a moment to
	// register every subscriber before the pump starts, so the first
	// sequences are not published past a not-yet-subscribed party.
	wantSubs := 1 + len(sc.ExtraSubs)
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if primary.Health().EgressSubs >= wantSubs {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Publish pump: Load.Count messages per topic, round-robin, one every
	// Interval. Send errors during crashes and resets are expected — the
	// retained ring plus fail-over resend is what covers them.
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

	// Timeline: each step fires at its offset from run start.
	for _, step := range sc.Script {
		if wait := step.At - clock(); wait > 0 {
			time.Sleep(wait)
		}
		tr.Logf(clock(), "step: %s", step.Desc)
		if err := step.Do(e); err != nil {
			tr.Logf(clock(), "step failed: %v", err)
			close(pumpStop)
			<-pumpDone
			pubSubTeardown(e)
			stopCluster(e)
			return nil, fmt.Errorf("chaos: step %q: %w", step.Desc, err)
		}
	}
	<-pumpDone

	// Heal the world and drain: held frames deliver, resends land, then the
	// delivery counts go quiet.
	net.ClearAllFaults()
	tr.Logf(clock(), "all faults cleared; draining")
	drainDeadline := time.Now().Add(drainTimeout)
	lastTotal, quietSince := uint64(0), time.Now()
	drainSubs := []*client.Subscriber{sub}
	for _, xr := range e.extras {
		if xr.spec.RequireAll {
			drainSubs = append(drainSubs, xr.sub)
		}
	}
	for time.Now().Before(drainDeadline) {
		total := uint64(0)
		complete := true
		for _, s := range drainSubs {
			for _, id := range topicIDs {
				got := s.Received(id)
				total += got
				if got < pub.LastSeq(id) {
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

	pubSubTeardown(e)
	stopCluster(e)

	res := &Result{
		Scenario:   sc.Name,
		Seed:       opts.Seed,
		Transcript: tr,
		Duplicates: sub.Duplicates(),
		Frames:     rec.TotalFrames(),
		Elapsed:    time.Since(start),
	}
	for _, id := range topicIDs {
		res.Published += pub.LastSeq(id)
		res.Delivered += sub.Received(id)
	}
	e.mu.Lock()
	res.PublishErrs = e.publishErrs
	e.mu.Unlock()
	res.Failures = e.checkInvariants(sc, rec, traces)
	tr.Logf(clock(), "result: published=%d delivered=%d dups=%d frames=%d publishErrs=%d failures=%d",
		res.Published, res.Delivered, res.Duplicates, res.Frames, res.PublishErrs, len(res.Failures))

	if !res.Passed() && opts.ArtifactsDir != "" {
		if path, err := tr.WriteFile(opts.ArtifactsDir, res.Failures); err == nil {
			res.ArtifactPath = path
		}
	}
	return res, nil
}

// extraRun is one built ExtraSub with its recorder, judged alongside the
// main subscriber's invariants.
type extraRun struct {
	spec ExtraSub
	sub  *client.Subscriber
	rec  *Recorder
}

func pubSubTeardown(e *Env) {
	if e.Pub != nil {
		e.Pub.Close()
	}
	if e.Sub != nil {
		e.Sub.Close()
	}
	for _, xr := range e.extras {
		xr.sub.Close()
	}
}

func stopCluster(e *Env) {
	e.mu.Lock()
	crashed := e.primaryCrashed
	e.mu.Unlock()
	if !crashed {
		e.Primary.Stop()
	}
	e.Backup.Stop()
}
