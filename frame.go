// Package frame is a fault-tolerant, real-time publish/subscribe messaging
// library for edge computing, reproducing the FRAME architecture from
//
//	Chao Wang, Christopher Gill, Chenyang Lu.
//	"FRAME: Fault Tolerant and Real-Time Messaging for Edge Computing."
//	IEEE ICDCS 2019.
//
// Each topic carries four quality-of-service parameters: a period Ti, an
// end-to-end soft deadline Di, a loss-tolerance level Li (maximum
// acceptable consecutive message losses), and a publisher retention depth
// Ni. From these, FRAME derives sufficient per-message deadlines for
// dispatching (Lemma 2: Dd = Di − ΔPB − ΔBS) and for replicating to a
// Backup broker (Lemma 1: Dr = (Ni+Li)·Ti − ΔPB − ΔBB − x), schedules both
// under EDF, suppresses replication entirely for topics whose dispatch
// deadline already implies durability (Proposition 1), and prunes
// already-dispatched message copies from the Backup so that fail-over
// re-dispatches only what is still needed.
//
// The package exposes three layers:
//
//   - The model: Topic, Params, and the timing bounds (DispatchDeadline,
//     ReplicationDeadline, NeedsReplication, Admissible).
//   - The runtime: Broker, Publisher, and Subscriber over TCP or an
//     in-process network — a complete Primary/Backup deployment with
//     crash detection, promotion, and publisher re-send.
//   - The evaluation: Simulate runs the paper's test-bed as a
//     deterministic discrete-event simulation; the cmd/frame-bench tool
//     and the benchmarks in this package regenerate every table and
//     figure of the paper's §VI.
//
// See examples/quickstart for a minimal end-to-end program.
package frame

import (
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/simcluster"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
)

// Model types, re-exported from the spec and timing layers.
type (
	// Topic is a per-topic QoS specification (Ti, Di, Li, Ni, destination).
	Topic = spec.Topic
	// TopicID identifies a topic within a deployment.
	TopicID = spec.TopicID
	// Destination locates a topic's subscribers (edge or cloud).
	Destination = spec.Destination
	// Category is a Table 2 template from which topics are stamped.
	Category = spec.Category
	// Workload is an instantiated evaluation topic set.
	Workload = spec.Workload
	// Params carries deployment timing parameters (ΔBS, ΔBB, x).
	Params = timing.Params
	// Bounds couples a topic's dispatch and replication deadlines.
	Bounds = timing.Bounds
)

// Destination and loss-tolerance constants.
const (
	// DestEdge marks subscribers within the edge (sub-millisecond ΔBS).
	DestEdge = spec.DestEdge
	// DestCloud marks subscribers across a WAN (tens of milliseconds ΔBS).
	DestCloud = spec.DestCloud
	// LossUnbounded is the Li value meaning best-effort delivery.
	LossUnbounded = spec.LossUnbounded
	// NoDeadline is the replication deadline of best-effort topics.
	NoDeadline = timing.NoDeadline
)

// Table2 returns the paper's six example topic categories.
func Table2() []Category { return spec.Table2() }

// NewWorkload builds the paper's topic mix for a given total (§VI).
func NewWorkload(totalTopics int) (*Workload, error) { return spec.NewWorkload(totalTopics) }

// PaperParams returns the timing parameters of the paper's worked example
// (ΔBS = 1 ms edge / 20 ms cloud, ΔBB = 0.05 ms, x = 50 ms).
func PaperParams() Params { return timing.PaperParams() }

// DispatchDeadline returns Lemma 2's sufficient relative deadline for
// dispatching: Dd = Di − ΔPB − ΔBS.
func DispatchDeadline(t Topic, p Params) time.Duration { return timing.DispatchDeadline(t, p) }

// ReplicationDeadline returns Lemma 1's sufficient relative deadline for
// replicating: Dr = (Ni+Li)·Ti − ΔPB − ΔBB − x.
func ReplicationDeadline(t Topic, p Params) time.Duration { return timing.ReplicationDeadline(t, p) }

// NeedsReplication applies Proposition 1: false means the topic's
// replication can be suppressed without violating its loss tolerance.
func NeedsReplication(t Topic, p Params) bool { return timing.NeedsReplication(t, p) }

// Admissible runs the §III-D-1 admission test (Dd ≥ 0 and Dr ≥ 0).
func Admissible(t Topic, p Params) error { return timing.Admissible(t, p) }

// MinRetention returns the smallest Ni that makes the topic admissible.
func MinRetention(t Topic, p Params) int { return timing.MinRetention(t, p) }

// ComputeBounds returns both deadlines and the replication verdict.
func ComputeBounds(t Topic, p Params) Bounds { return timing.Compute(t, p) }

// Runtime types, re-exported from the broker and client layers.
type (
	// Broker runs one FRAME broker (Primary or Backup).
	Broker = broker.Broker
	// BrokerOptions configures a broker.
	BrokerOptions = broker.Options
	// BrokerRole selects Primary or Backup duty.
	BrokerRole = broker.Role
	// Publisher is a retention-capable publishing proxy with fail-over.
	Publisher = client.Publisher
	// PublisherOptions configures a publisher.
	PublisherOptions = client.PublisherOptions
	// Subscriber receives dispatches with duplicate suppression.
	Subscriber = client.Subscriber
	// SubscriberOptions configures a subscriber.
	SubscriberOptions = client.SubscriberOptions
	// Delivery is one received message with measured latency.
	Delivery = client.Delivery
	// Network abstracts listen/dial (TCP or in-process).
	Network = transport.Network
	// DetectorConfig tunes a Backup's crash detection of its Primary
	// (polling period, misses), set on BrokerOptions.Detector. It is the
	// pair's only detector: publishers run none, and follow the promoted
	// Backup's notice or their Primary link's failure instead.
	DetectorConfig = failover.Config
	// Clock is the deployment timebase (see NewClock and clocksync).
	Clock = clocksync.Clock
)

// Broker roles.
const (
	RolePrimary = broker.RolePrimary
	RoleBackup  = broker.RoleBackup
)

// CoreConfig selects a broker's scheduling and fault-tolerance behavior
// (queue policy, selective replication, dispatch–replicate coordination).
type CoreConfig = core.Config

// FRAMEConfig returns the FRAME configuration: EDF scheduling, selective
// replication per Proposition 1, and Table 3 coordination.
func FRAMEConfig(p Params) CoreConfig { return core.FRAMEConfig(p) }

// FCFSConfig returns the undifferentiated baseline: arrival order,
// replicate-then-dispatch for every topic, with coordination.
func FCFSConfig(p Params) CoreConfig { return core.FCFSConfig(p) }

// FCFSMinusConfig returns FCFS without dispatch–replicate coordination.
func FCFSMinusConfig(p Params) CoreConfig { return core.FCFSMinusConfig(p) }

// Durability-plane defaults (the opt-in BrokerOptions.Durable mode: a
// segmented append log with a group-commit writer, acking publishes with
// PubAck once fsynced — see DESIGN.md §15).
const (
	// DefaultFsyncInterval is the group-commit window when
	// BrokerOptions.FsyncInterval is zero.
	DefaultFsyncInterval = broker.DefaultFsyncInterval
	// DefaultAckTimeout bounds a durable Publish's PubAck wait when
	// PublisherOptions.AckTimeout is zero.
	DefaultAckTimeout = client.DefaultAckTimeout
)

// NewBroker creates a broker; call Start to serve and Stop to shut down.
func NewBroker(opts BrokerOptions) (*Broker, error) { return broker.New(opts) }

// NewPublisher dials the brokers and returns a running publisher.
func NewPublisher(opts PublisherOptions) (*Publisher, error) { return client.NewPublisher(opts) }

// NewSubscriber dials every broker, subscribes, and starts receiving.
func NewSubscriber(opts SubscriberOptions) (*Subscriber, error) { return client.NewSubscriber(opts) }

// NewTCPNetwork returns the real-network transport.
func NewTCPNetwork(dialTimeout time.Duration) Network {
	return &transport.TCP{DialTimeout: dialTimeout}
}

// NewMemNetwork returns an isolated in-process transport, useful for tests
// and single-process deployments.
func NewMemNetwork() Network { return transport.NewMem() }

// NewClock returns a monotonic clock rooted at now; every host in a
// deployment should synchronize to one broker's clock (package
// internal/clocksync implements the PTP/NTP-style estimator the paper's
// test-bed used).
func NewClock() Clock {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// Evaluation types, re-exported from the simulation layer.
type (
	// SimOptions configures one simulated evaluation run.
	SimOptions = simcluster.Options
	// SimResult is the outcome of one simulated run.
	SimResult = simcluster.Result
	// Variant names one of the four evaluated configurations.
	Variant = simcluster.Variant
	// CostModel assigns CPU service times to broker work.
	CostModel = simcluster.CostModel
)

// Evaluation configurations (§VI-A).
const (
	VariantFRAME     = simcluster.VariantFRAME
	VariantFRAMEPlus = simcluster.VariantFRAMEPlus
	VariantFCFS      = simcluster.VariantFCFS
	VariantFCFSMinus = simcluster.VariantFCFSMinus
)

// Simulate runs one deterministic simulated evaluation run (the paper's
// test-bed substitution; see DESIGN.md).
func Simulate(opts SimOptions) (*SimResult, error) { return simcluster.Run(opts) }

// Multi-edge extension types (beyond the paper's single-edge scope):
// several independent edges share one bounded cloud ingest host.
type (
	// MultiEdgeOptions configures a shared-cloud, multi-edge run.
	MultiEdgeOptions = simcluster.MultiOptions
	// MultiEdgeResult is the outcome of a multi-edge run.
	MultiEdgeResult = simcluster.MultiResult
)

// SimulateMultiEdge runs N edge deployments against one shared cloud host.
func SimulateMultiEdge(opts MultiEdgeOptions) (*MultiEdgeResult, error) {
	return simcluster.RunMultiEdge(opts)
}

// DefaultCostModel returns the calibrated CPU cost model.
func DefaultCostModel() CostModel { return simcluster.DefaultCostModel() }
