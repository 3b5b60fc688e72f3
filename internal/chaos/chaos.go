// Package chaos scripts fault timelines against a real FRAME deployment
// over a fault-injected transport (package faultinject) and judges the
// paper's guarantees end to end while links delay, drop, stall and
// partition, and brokers, gateways and whole pairs crash.
//
// One harness runs every scenario. A Scenario is data: a Deployment (the
// planes present), topics and a load, a Script of Steps acting on the live
// Env, and one Receiver per subscriber with its own budget. Run brings the
// deployment up, pumps the load, plays the script, heals the world,
// drains, and judges in order: each receiver's Li and per-link FIFO budget
// (§III); promotion of the named shard within the detector bound and of
// no other (§IV-A); Table 3 on every Backup (recovery never dispatches a
// pruned entry, nor any entry twice); gateway isolation when no promotion
// is expected; the durable log's ground truth after a dual crash; and the
// scenario's own Check.
//
// All fault randomness derives from one seed; a failed scenario prints it,
// and FRAME_CHAOS_SEED replays the same fault lottery. Run scenarios via
// `go test ./internal/chaos/` (`-short` selects the PR-gating smoke
// subset) or the frame-chaos command.
package chaos

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/failover"
	"repro/internal/faultinject"
	"repro/internal/gateway"
	"repro/internal/obsv"
	"repro/internal/spec"
)

// Node names faults are scripted against; a sharded deployment names its
// brokers cluster.PrimaryNode(i) / cluster.BackupNode(i) instead.
const (
	NodePrimary = "primary"
	NodeBackup  = "backup"
	NodePub     = "pub"
	NodeSub     = "sub"
	NodeGateway = "gateway"
)

// PromotionSlack is added to the detector's WorstCaseDetection when
// asserting the promotion bound: it absorbs scheduler jitter on loaded CI
// runners; a promotion that needs more is a real protocol stall.
const PromotionSlack = 500 * time.Millisecond

// DefaultSeed gives each scenario a stable per-name seed so runs are
// reproducible by default; FRAME_CHAOS_SEED overrides it for replay.
func DefaultSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64()>>1) ^ 0x5eed
}

// Load describes the publish pump: Count messages per topic interleaved
// round-robin, one message every Interval.
type Load struct {
	Count       int
	Interval    time.Duration
	PayloadSize int
}

// Step is one timeline entry: at offset At from scenario start, run Do.
type Step struct {
	At   time.Duration
	Desc string
	Do   func(*Env) error
}

// Deployment lists the planes a scenario runs against; it is the only
// thing that differs between a pair, shard, gateway and dual-crash run.
type Deployment struct {
	// Shards ≤ 1 is one Primary+Backup pair on NodePrimary/NodeBackup with
	// direct-address endpoints; Shards ≥ 2 is a cluster.New cluster whose
	// endpoints route through its Directory.
	Shards int
	// Mem runs over the in-process Mem transport instead of TCP loopback:
	// backpressure surfaces deterministically, and a restart rebinds the
	// crashed address (gateway and durable deployments require it).
	Mem bool
	// EgressDepth overrides the brokers' per-subscriber ring capacity.
	EgressDepth int
	// Detector overrides the fast default failure detector tuning.
	Detector failover.Config
	// Gateway puts a gateway (NodeGateway) in front of the brokers, in
	// pair or Directory mode following the broker plane.
	Gateway *GatewayPlane
	// Durable runs the pair's Primary on a group-commit log with ACK =
	// durable publishers; a KillPair step hands the run to a second life.
	Durable *DurablePlane
}

// GatewayPlane tunes the gateway's per-client rings.
type GatewayPlane struct {
	ClientDepth        int
	ClientWriteTimeout time.Duration
}

// DurablePlane tunes the durable Primary and its publishers.
type DurablePlane struct {
	// FsyncInterval is the group-commit window (0 = broker default,
	// negative = fsync per publish); SegmentBytes forces small segments so
	// the kill window spans several rolls (0 = broker default).
	FsyncInterval time.Duration
	SegmentBytes  int64
	// Conns publisher connections share the topics round-robin; on each,
	// InFlight goroutines publish, each waiting for its own PubAck (0 = 1).
	Conns, InFlight int
	// Orphans grafts this many records onto the crashed log, on a topic
	// the pump never publishes: records whose prune markers never reached
	// stable storage (lost page cache, torn batch tail), which an
	// in-process kill cannot produce. The second life must
	// recovery-dispatch each exactly once.
	Orphans int
}

// Planes names the planes present: "pair" or "shard", "gateway", "durable".
func (d Deployment) Planes() []string {
	p := []string{"pair"}
	if d.Shards >= 2 {
		p[0] = "shard"
	}
	if d.Gateway != nil {
		p = append(p, "gateway")
	}
	if d.Durable != nil {
		p = append(p, "durable")
	}
	return p
}

// Receiver is one subscriber, with its own node name (link faults can
// single it out) and its own budget.
type Receiver struct {
	Name string
	// Gateway attaches it through the gateway as a reconnecting thin client.
	Gateway bool
	// Wedged instead connects a raw gateway session that subscribes and
	// never reads; it implies Gateway and has no budget — the scenario's
	// Check judges what it suffered.
	Wedged bool
	// RequireAll asserts every published sequence arrived; the drain waits.
	RequireAll bool
	// MaxConsecutiveLoss is the Li bound per topic; AllowedRewinds bounds
	// per-link FIFO restarts (0 = strict FIFO). Negative skips either
	// check, for a deliberately degraded receiver.
	MaxConsecutiveLoss int
	AllowedRewinds     int
}

// viaGateway reports whether the receiver attaches through the gateway.
func (r Receiver) viaGateway() bool { return r.Gateway || r.Wedged }

// directSub is the strict direct subscriber most scenarios judge: every
// message delivered, no loss, and at most rewinds FIFO restarts per link.
func directSub(rewinds int) Receiver {
	return Receiver{Name: NodeSub, RequireAll: true, AllowedRewinds: rewinds}
}

// Scenario is one scripted chaos run.
type Scenario struct {
	Name        string
	Description string
	// Smoke marks the PR-gating smoke subset (`go test -short`).
	Smoke bool
	Deployment
	Topics    []spec.Topic
	Load      Load
	Script    []Step
	Receivers []Receiver
	// ExpectPromotion asserts shard PromoteShard's Backup (shard 0 is the
	// pair) promotes within the bound of the first broker fault. Either
	// way, no other shard may promote.
	ExpectPromotion bool
	PromoteShard    int
	// Check, when set, runs last in the judge; its strings are failures.
	Check func(*Env) []string
}

// markFault stamps the first broker fault, which the promotion bound is measured from.
func (e *Env) markFault() {
	if !e.faultSet {
		e.faultSet, e.faultAt = true, e.Clock()
	}
}

// CrashPrimary fail-stops one shard's Primary (shard 0 is the pair): every
// connection touching it is reset (TCP RST where possible) and the broker
// process state is stopped — the network face of the paper's SIGKILL runs.
func CrashPrimary(shard int) func(*Env) error {
	return func(e *Env) error {
		if shard < 0 || shard >= len(e.Pairs) {
			return fmt.Errorf("no shard %d", shard)
		}
		e.markFault()
		node, p := NodePrimary, e.Pairs[shard].Primary
		if e.Cluster != nil {
			node = cluster.PrimaryNode(shard)
		}
		n := e.Net.ResetNode(node)
		p.Stop()
		e.crashed[p] = true
		e.Tr.Logf(e.Clock(), "crash: reset %d shard-%d primary connections, primary stopped", n, shard)
		return nil
	}
}

// RaisePartition cuts the named node groups off from each other; held
// frames deliver after Heal, new dials are refused meanwhile.
func RaisePartition(name string, a, b []string) func(*Env) error {
	return func(e *Env) error {
		if containsBroker(a) && containsBroker(b) {
			e.markFault()
		}
		e.Net.Partition(name, a, b)
		e.Tr.Logf(e.Clock(), "partition %q raised: %v | %v", name, a, b)
		return nil
	}
}

func containsBroker(nodes []string) bool {
	for _, n := range nodes {
		if strings.HasSuffix(n, NodePrimary) || strings.HasSuffix(n, NodeBackup) { // shard brokers too
			return true
		}
	}
	return false
}

// HealPartition removes the named cut.
func HealPartition(name string) func(*Env) error {
	return func(e *Env) error {
		e.Net.Heal(name)
		e.Tr.Logf(e.Clock(), "partition %q healed", name)
		return nil
	}
}

// SetLink installs a fault program on the directed link from → to.
func SetLink(from, to string, f faultinject.Faults) func(*Env) error {
	return func(e *Env) error {
		e.Net.SetLink(from, to, f)
		e.Tr.Logf(e.Clock(), "link %s->%s faults: latency=%v jitter=%v bw=%d drop=%.2f stall=%v wbuf=%d",
			from, to, f.Latency, f.Jitter, f.BandwidthBps, f.Drop, f.Stall, f.WriteBufferBytes)
		return nil
	}
}

// ClearLink removes the fault program on the directed link from → to.
func ClearLink(from, to string) func(*Env) error {
	return func(e *Env) error {
		e.Net.ClearLink(from, to)
		e.Tr.Logf(e.Clock(), "link %s->%s faults cleared", from, to)
		return nil
	}
}

// ResetLink abruptly kills every live connection dialed from → to.
func ResetLink(from, to string) func(*Env) error {
	return func(e *Env) error {
		n := e.Net.ResetLink(from, to)
		e.Tr.Logf(e.Clock(), "reset %d connections on %s->%s", n, from, to)
		return nil
	}
}

// CrashGateway fail-stops the gateway: every connection touching it is
// reset and the process state is stopped. The brokers keep running.
func CrashGateway() func(*Env) error {
	return func(e *Env) error {
		n := e.Net.ResetNode(NodeGateway)
		e.Gateway.Stop()
		e.Tr.Logf(e.Clock(), "crash: reset %d gateway connections, gateway stopped", n)
		return nil
	}
}

// RestartGateway brings a gateway up at the gateway address, the way an
// orchestrator would after a crash; thin clients keep redialing it.
func RestartGateway() func(*Env) error {
	return func(e *Env) error {
		gw, err := gateway.New(e.gwOpts)
		if err != nil {
			return fmt.Errorf("start gateway: %w", err)
		}
		gw.Start()
		e.Gateway = gw
		e.Tr.Logf(e.Clock(), "gateway up at %s", gw.Addr())
		return nil
	}
}

// chaosTopic builds the scenarios' standard topic: loss-intolerant, with a
// retention window (Ni) large enough that publisher resend can cover any
// realistic crash window on a CI runner.
func chaosTopic(id spec.TopicID, retention int) spec.Topic {
	return spec.Topic{
		ID:            id,
		Category:      -1,
		Period:        20 * time.Millisecond,
		Deadline:      time.Second,
		LossTolerance: 0,
		Retention:     retention,
		Destination:   spec.DestEdge,
		PayloadSize:   16,
	}
}

// chaosTopics builds n standard chaos topics, IDs 1..n.
func chaosTopics(n, retention int) []spec.Topic {
	out := make([]spec.Topic, n)
	for i := range out {
		out[i] = chaosTopic(spec.TopicID(i+1), retention)
	}
	return out
}

// traceRecorder collects one broker's prune / recovery-dispatch lifecycle
// events for the Table 3 invariant, and its dispatches for the lost-ack
// diagnosis.
type traceRecorder struct {
	broker     string
	mu         sync.Mutex
	pruned     map[[2]uint64]bool // (topic, seq) discarded by a prune
	recovered  map[[2]uint64]int  // (topic, seq) -> recovery dispatch count
	dispatched map[[2]uint64]bool
}

// traceBroker installs a fresh recorder as a broker's tracer.
func (e *Env) traceBroker(name string, m *obsv.BrokerMetrics) *traceRecorder {
	r := &traceRecorder{
		broker:     name,
		pruned:     make(map[[2]uint64]bool),
		recovered:  make(map[[2]uint64]int),
		dispatched: make(map[[2]uint64]bool),
	}
	m.SetTracer(r.note)
	e.traces = append(e.traces, r)
	return r
}

func (r *traceRecorder) note(ev obsv.TraceEvent) {
	key := [2]uint64{ev.Topic, ev.Seq}
	r.mu.Lock()
	switch ev.Stage {
	case obsv.StagePrune:
		r.pruned[key] = true
	case obsv.StageRecoveryDispatch:
		r.recovered[key]++
	case obsv.StageDispatch:
		r.dispatched[key] = true
	}
	r.mu.Unlock()
}

// violations returns the Table 3 breaches: discarded entries that were
// recovery-dispatched anyway, and entries recovery-dispatched twice.
func (r *traceRecorder) violations() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var v []string
	for key, n := range r.recovered {
		if r.pruned[key] {
			v = append(v, fmt.Sprintf("%s: discarded entry (topic %d, seq %d) was recovery-dispatched", r.broker, key[0], key[1]))
		}
		if n > 1 {
			v = append(v, fmt.Sprintf("%s: entry (topic %d, seq %d) recovery-dispatched %d times", r.broker, key[0], key[1], n))
		}
	}
	sort.Strings(v)
	return v
}
