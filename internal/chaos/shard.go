// Shard-level chaos: scripted fault timelines against a full multi-pair
// cluster — N Primary+Backup pairs, the routing Directory, and
// cluster-aware endpoints — judging the paper's per-pair guarantees
// shard by shard: a killed pair's Backup must promote within the
// detector bound and keep its shard (epoch bump, same index), while the
// surviving shards' topics sail through with their Li and FIFO budgets
// untouched; a routing-plane outage must not touch the data plane at all
// (stale routes beat no routes).

package chaos

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/faultinject"
	"repro/internal/spec"
	"repro/internal/transport"
)

// ShardStep is one timeline entry of a shard scenario.
type ShardStep struct {
	At   time.Duration
	Desc string
	Do   func(*ShardEnv) error
}

// ShardScenario is one scripted chaos run against a sharded cluster.
type ShardScenario struct {
	Name        string
	Description string
	// Smoke marks the scenario as part of the PR-gating shard smoke subset.
	Smoke  bool
	Shards int
	Topics []spec.Topic
	Load   Load
	Script []ShardStep
	// Invariants are judged cluster-wide (every topic, every link).
	Invariants Invariants
	// PromoteShard is the one shard whose Backup must promote (within the
	// detector bound of the first fault); -1 asserts no shard promotes.
	// Invariants.ExpectPromotion is ignored for shard runs.
	PromoteShard int
	// Detector overrides the failure detector tuning; zero means the
	// runner's fast default.
	Detector failover.Config
	// Mem runs over the in-process Mem transport instead of TCP loopback.
	Mem bool
	// Check, when set, runs after the drain; returned strings are failures.
	Check func(*ShardEnv) []string
}

// ShardEnv is the live sharded cluster a scenario's steps act on.
type ShardEnv struct {
	Net     *faultinject.Network
	Cluster *cluster.Cluster
	Pub     *cluster.Publisher
	Sub     *cluster.Subscriber
	Clock   func() time.Duration
	Tr      *Transcript

	detector failover.Config

	mu          sync.Mutex
	faultAt     time.Duration
	faultSet    bool
	promoted    map[int]time.Duration // shard index -> promotion instant
	crashed     map[*broker.Broker]bool
	publishErrs int
}

// markFault records the instant the first broker-affecting fault landed.
func (e *ShardEnv) markFault() {
	e.mu.Lock()
	if !e.faultSet {
		e.faultSet = true
		e.faultAt = e.Clock()
	}
	e.mu.Unlock()
}

// CrashShardPrimary fail-stops one shard's Primary: connections reset,
// broker stopped — the pair's Backup must take the shard over.
func CrashShardPrimary(shard int) func(*ShardEnv) error {
	return func(e *ShardEnv) error {
		if shard < 0 || shard >= len(e.Cluster.Pairs) {
			return fmt.Errorf("chaos: no shard %d", shard)
		}
		e.markFault()
		p := e.Cluster.Pairs[shard]
		n := e.Net.ResetNode(cluster.PrimaryNode(shard))
		e.Tr.Logf(e.Clock(), "crash: reset %d shard-%d primary connections", n, shard)
		p.Primary.Stop()
		e.mu.Lock()
		e.crashed[p.Primary] = true
		e.mu.Unlock()
		e.Tr.Logf(e.Clock(), "crash: shard %d primary stopped", shard)
		return nil
	}
}

// ShardRaisePartition cuts the named node groups off from each other.
func ShardRaisePartition(name string, a, b []string) func(*ShardEnv) error {
	return func(e *ShardEnv) error {
		e.Net.Partition(name, a, b)
		e.Tr.Logf(e.Clock(), "partition %q raised: %v | %v", name, a, b)
		return nil
	}
}

// ShardHealPartition removes the named cut.
func ShardHealPartition(name string) func(*ShardEnv) error {
	return func(e *ShardEnv) error {
		e.Net.Heal(name)
		e.Tr.Logf(e.Clock(), "partition %q healed", name)
		return nil
	}
}

// RunShard executes one shard scenario against a freshly built cluster
// over the fault-injected transport and returns the judged result.
func RunShard(sc ShardScenario, opts RunOptions) (*Result, error) {
	if sc.Shards < 1 {
		return nil, fmt.Errorf("chaos: scenario %q needs at least one shard", sc.Name)
	}
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
	tr.Logf(clock(), "run start: seed=%d scenario=%q shards=%d", opts.Seed, sc.Name, sc.Shards)

	detector := sc.Detector
	if detector == (failover.Config{}) {
		detector = defaultDetector()
	}
	cfg := core.FRAMEConfig(chaosParams())
	cfg.MessageBufferCap = 4096
	cfg.BackupBufferCap = 4096

	_, mem := inner.(*transport.Mem)
	c, err := cluster.New(cluster.Config{
		Shards:      sc.Shards,
		Topics:      sc.Topics,
		Engine:      cfg,
		NodeNetwork: net.Node,
		Mem:         mem,
		Clock:       clock,
		Detector:    detector,
		Logger:      log,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: cluster: %w", err)
	}
	e := &ShardEnv{
		Net:      net,
		Cluster:  c,
		Clock:    clock,
		Tr:       tr,
		detector: detector,
		promoted: make(map[int]time.Duration),
		crashed:  make(map[*broker.Broker]bool),
	}
	tr.Logf(clock(), "cluster up: %d pairs, directory=%s epoch=%d", len(c.Pairs), c.Dir.Addr(), c.Dir.Epoch())

	// Per-shard promotion watchers stamp the instants the bound is judged
	// against. Promoted() is a closed-channel broadcast, so these coexist
	// with the cluster's own directory watchers.
	watchDone := make(chan struct{})
	defer close(watchDone)
	for _, p := range c.Pairs {
		p := p
		go func() {
			select {
			case <-p.Backup.Promoted():
				at := clock()
				e.mu.Lock()
				e.promoted[p.Index] = at
				e.mu.Unlock()
				tr.Logf(at, "shard %d backup promoted", p.Index)
			case <-watchDone:
			}
		}()
	}

	stop := func() { c.StopExcept(e.crashed) }

	router, err := cluster.NewRouter(cluster.RouterOptions{
		DirectoryAddr: c.Dir.Addr(), Network: net.Node(NodePub), Logger: log,
	})
	if err != nil {
		stop()
		return nil, fmt.Errorf("chaos: router: %w", err)
	}
	subRouter, err := cluster.NewRouter(cluster.RouterOptions{
		DirectoryAddr: c.Dir.Addr(), Network: net.Node(NodeSub), Logger: log,
	})
	if err != nil {
		stop()
		return nil, fmt.Errorf("chaos: subscriber router: %w", err)
	}
	rec := NewRecorder()
	topicIDs := make([]spec.TopicID, len(sc.Topics))
	for i, tp := range sc.Topics {
		topicIDs[i] = tp.ID
	}
	sub, err := cluster.NewSubscriber(cluster.SubscriberOptions{
		Name:    NodeSub,
		Topics:  topicIDs,
		Router:  subRouter,
		Network: net.Node(NodeSub),
		Clock:   clock,
		OnFrame: rec.Note,
		Logger:  log,
	})
	if err != nil {
		stop()
		return nil, fmt.Errorf("chaos: subscriber: %w", err)
	}
	pub, err := cluster.NewPublisher(cluster.PublisherOptions{
		Name:     NodePub,
		Topics:   sc.Topics,
		Router:   router,
		Network:  net.Node(NodePub),
		Clock:    clock,
		Detector: detector,
		// Poll as well as redirect-refresh, so routing-plane outage
		// scenarios actually exercise fetch failures mid-run.
		RefreshInterval: 50 * time.Millisecond,
		Logger:          log,
	})
	if err != nil {
		sub.Close()
		stop()
		return nil, fmt.Errorf("chaos: publisher: %w", err)
	}
	e.Pub, e.Sub = pub, sub

	// Wait for every pair's Primary to register the subscriber before the
	// pump starts.
	for _, p := range c.Pairs {
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			if p.Primary.Health().EgressSubs >= 1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
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
			pub.Close()
			sub.Close()
			stop()
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
		for _, id := range topicIDs {
			got := sub.Received(id)
			total += got
			if got < pub.LastSeq(id) {
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
	tr.Logf(clock(), "drain done")

	res := &Result{
		Scenario:   sc.Name,
		Seed:       opts.Seed,
		Transcript: tr,
		Duplicates: sub.Duplicates(),
		Frames:     rec.TotalFrames(),
	}
	for _, id := range topicIDs {
		res.Published += pub.LastSeq(id)
		res.Delivered += sub.Received(id)
	}
	res.Failures = e.checkShardInvariants(sc, rec)

	pub.Close()
	sub.Close()
	stop()
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

// checkShardInvariants judges the cluster-wide assertions plus the
// per-shard promotion contract.
func (e *ShardEnv) checkShardInvariants(sc ShardScenario, rec *Recorder) []string {
	var failures []string
	inv := sc.Invariants

	e.mu.Lock()
	faultAt, faultSet := e.faultAt, e.faultSet
	promoted := make(map[int]time.Duration, len(e.promoted))
	for k, v := range e.promoted {
		promoted[k] = v
	}
	e.mu.Unlock()

	for _, tp := range sc.Topics {
		last := e.Pub.LastSeq(tp.ID)
		got := e.Sub.Received(tp.ID)
		if last == 0 {
			failures = append(failures, fmt.Sprintf("topic %d: nothing was published — load pump broken", tp.ID))
			continue
		}
		if got == 0 {
			failures = append(failures, fmt.Sprintf("topic %d: published %d, delivered none", tp.ID, last))
			continue
		}
		if inv.RequireAll && got != last {
			failures = append(failures, fmt.Sprintf("topic %d: published %d, delivered %d distinct", tp.ID, last, got))
		}
		if loss := e.Sub.MaxConsecutiveLoss(tp.ID, last); loss > inv.MaxConsecutiveLoss {
			failures = append(failures, fmt.Sprintf("topic %d: max consecutive loss %d exceeds Li bound %d",
				tp.ID, loss, inv.MaxConsecutiveLoss))
		}
	}
	failures = append(failures, rec.fifoViolations(inv.AllowedRewinds)...)

	bound := e.detector.WorstCaseDetection() + PromotionSlack
	if sc.PromoteShard >= 0 {
		at, ok := promoted[sc.PromoteShard]
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf("shard %d backup never promoted", sc.PromoteShard))
		case !faultSet:
			failures = append(failures, "scenario expects promotion but scripted no broker fault")
		default:
			if d := at - faultAt; d > bound {
				failures = append(failures, fmt.Sprintf("shard %d promotion took %v after the fault, bound %v (detector worst case %v + %v slack)",
					sc.PromoteShard, d, bound, e.detector.WorstCaseDetection(), PromotionSlack))
			}
		}
	}
	// Any promotion outside the expected shard means the blast radius
	// leaked — a surviving pair lost its Primary or its probes.
	for shard := range promoted {
		if shard != sc.PromoteShard {
			failures = append(failures, fmt.Sprintf("shard %d promoted in a scenario that only expects shard %d to", shard, sc.PromoteShard))
		}
	}

	if sc.Check != nil {
		failures = append(failures, sc.Check(e)...)
	}
	return failures
}
