package chaos

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/gateway"
	"repro/internal/spec"
)

// All returns every shipped scenario of every plane. Names are stable —
// CI artifacts and replay commands reference them.
func All() []Scenario {
	return []Scenario{
		crashPromote(),
		partitionReplication(),
		flapRecovery(),
		deltaBBLatency(),
		bandwidthSubscriber(),
		resetStorm(),
		dropReplication(),
		slowSubscriberEgress(),
		shardKillPair(),
		shardRoutingPartition(),
		gatewayCrash(),
		gatewaySlowClient(),
		shardKillBehindGateway(),
		killBothBrokers(),
		killBothGroupCommitStorm(),
	}
}

// Find returns the named scenario.
func Find(name string) (Scenario, error) {
	for _, sc := range All() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("chaos: unknown scenario %q", name)
}

// crashPromote is the baseline §IV-A run: fail-stop the Primary mid-load,
// the Backup must promote within the polling bound, and between recovery
// dispatch and publisher resend every message must still arrive.
func crashPromote() Scenario {
	return Scenario{
		Name:        "crash-promote",
		Description: "fail-stop the Primary mid-load; Backup promotes and no message is lost",
		Smoke:       true,
		Topics:      []spec.Topic{chaosTopic(1, 256)},
		Load:        Load{Count: 250, Interval: 2 * time.Millisecond, PayloadSize: 16},
		Script: []Step{
			{At: 150 * time.Millisecond, Desc: "crash primary", Do: CrashPrimary(0)},
		},
		Receivers:       []Receiver{directSub(2)}, // recovery run + resend run restart the sequence
		ExpectPromotion: true,
	}
}

// partitionReplication cuts Primary↔Backup while the Primary keeps serving:
// the Backup's probes die, it promotes (split-brain by design — FRAME has
// no quorum), and the subscriber's dedup absorbs the double dispatch. After
// the heal, held replication frames deliver and nothing is lost or
// reordered per link.
func partitionReplication() Scenario {
	return Scenario{
		Name:        "partition-replication",
		Description: "partition Primary from Backup during replication; dedup absorbs the split-brain",
		Smoke:       true,
		Topics:      []spec.Topic{chaosTopic(1, 256)},
		Load:        Load{Count: 250, Interval: 2 * time.Millisecond, PayloadSize: 16},
		Script: []Step{
			{At: 120 * time.Millisecond, Desc: "partition primary|backup",
				Do: RaisePartition("repl", []string{NodePrimary}, []string{NodeBackup})},
			{At: 400 * time.Millisecond, Desc: "heal partition", Do: HealPartition("repl")},
		},
		Receivers:       []Receiver{directSub(2)}, // the promoted Backup's recovery run rewinds its link once
		ExpectPromotion: true,
	}
}

// flapRecovery crashes the Primary and then flaps (stalls/unstalls) both
// client links to the Backup exactly while recovery, resend, and fresh
// traffic are converging on it. Stalls hold frames without dropping them,
// so after the final heal everything must still arrive in per-link order.
func flapRecovery() Scenario {
	stall := faultinject.Faults{Stall: true}
	return Scenario{
		Name:        "flap-recovery",
		Description: "crash the Primary, then flap the publisher and subscriber links during recovery",
		Topics:      []spec.Topic{chaosTopic(1, 256)},
		Load:        Load{Count: 300, Interval: 2 * time.Millisecond, PayloadSize: 16},
		Script: []Step{
			{At: 120 * time.Millisecond, Desc: "crash primary", Do: CrashPrimary(0)},
			{At: 170 * time.Millisecond, Desc: "stall pub->backup", Do: SetLink(NodePub, NodeBackup, stall)},
			{At: 220 * time.Millisecond, Desc: "unstall pub->backup", Do: ClearLink(NodePub, NodeBackup)},
			{At: 250 * time.Millisecond, Desc: "stall backup->sub", Do: SetLink(NodeBackup, NodeSub, stall)},
			{At: 320 * time.Millisecond, Desc: "unstall backup->sub", Do: ClearLink(NodeBackup, NodeSub)},
			{At: 350 * time.Millisecond, Desc: "stall pub->backup again", Do: SetLink(NodePub, NodeBackup, stall)},
			{At: 420 * time.Millisecond, Desc: "unstall pub->backup again", Do: ClearLink(NodePub, NodeBackup)},
		},
		Receivers:       []Receiver{directSub(2)},
		ExpectPromotion: true,
	}
}

// deltaBBLatency inflates the replication link's ΔBB with latency and
// jitter, then crashes the Primary: replicas lag the dispatch path the way
// Lemma 1 budgets for, and the copies still in flight at the crash must be
// covered by the publisher's retained-ring resend.
func deltaBBLatency() Scenario {
	return Scenario{
		Name:        "delta-bb-latency",
		Description: "latency+jitter on the replication link (inflated ΔBB), then a Primary crash",
		Topics:      []spec.Topic{chaosTopic(1, 256)},
		Load:        Load{Count: 250, Interval: 2 * time.Millisecond, PayloadSize: 16},
		Script: []Step{
			{At: 0, Desc: "add 15ms±10ms to primary->backup",
				Do: SetLink(NodePrimary, NodeBackup, faultinject.Faults{Latency: 15 * time.Millisecond, Jitter: 10 * time.Millisecond})},
			{At: 200 * time.Millisecond, Desc: "crash primary", Do: CrashPrimary(0)},
		},
		Receivers:       []Receiver{directSub(2)},
		ExpectPromotion: true,
	}
}

// bandwidthSubscriber squeezes the Primary→subscriber link through a
// bandwidth cap with no broker fault at all: frames queue up behind the
// pacer, then flood out when the runner heals the world for the drain —
// and the fault-free guarantees (strict per-link FIFO, zero loss, no
// promotion) must hold exactly through both regimes.
func bandwidthSubscriber() Scenario {
	return Scenario{
		Name:        "bandwidth-subscriber",
		Description: "bandwidth-cap the subscriber link; slow delivery, zero loss, strict FIFO",
		Smoke:       true,
		Topics:      []spec.Topic{chaosTopic(1, 64), chaosTopic(2, 64)},
		Load:        Load{Count: 150, Interval: 2 * time.Millisecond, PayloadSize: 64},
		Script: []Step{
			{At: 0, Desc: "cap primary->sub at 64KiB/s",
				Do: SetLink(NodePrimary, NodeSub, faultinject.Faults{BandwidthBps: 64 << 10})},
		},
		Receivers: []Receiver{directSub(0)},
	}
}

// resetStorm repeatedly RSTs the publisher's connections to the Primary.
// The publisher's own detector declares the Primary dead and fails over to
// the (unpromoted) Backup, resending its retained ring; the Backup — whose
// probes of the Primary still succeed — must NOT promote, yet every message
// must arrive via one broker or the other.
func resetStorm() Scenario {
	steps := []Step{}
	for i := 0; i < 5; i++ {
		steps = append(steps, Step{
			At:   time.Duration(100+25*i) * time.Millisecond,
			Desc: fmt.Sprintf("reset pub->primary (%d/5)", i+1),
			Do:   ResetLink(NodePub, NodePrimary),
		})
	}
	return Scenario{
		Name:        "reset-storm",
		Description: "repeated RSTs on the publisher's Primary links force a client-side fail-over without promotion",
		Topics:      []spec.Topic{chaosTopic(1, 512)},
		Load:        Load{Count: 300, Interval: 2 * time.Millisecond, PayloadSize: 16},
		Script:      steps,
		Receivers:   []Receiver{directSub(1)}, // the resend run restarts the backup link's sequence once
	}
}

// slowSubscriberEgress exercises the asynchronous egress under degraded
// subscribers: one link stalled behind a tiny write buffer (its ring must
// absorb, shed within Li, and finally evict it), one paced through a
// lossless trickle. The healthy subscriber keeps zero loss and strict
// FIFO — the isolation per-subscriber rings exist for. Mem makes the
// backpressure reach the broker's writer instead of kernel buffers.
func slowSubscriberEgress() Scenario {
	stalledTopic := func(id spec.TopicID) spec.Topic {
		tp := chaosTopic(id, 256)
		tp.LossTolerance = 8 // shed budget before the wedged sub is evicted
		return tp
	}
	return Scenario{
		Name:        "slow-subscriber-egress",
		Description: "stalled + trickle subscribers behind small egress rings; healthy subscriber keeps zero-loss FIFO",
		Smoke:       true,
		Deployment:  Deployment{Mem: true, EgressDepth: 64},
		Topics:      []spec.Topic{stalledTopic(1), stalledTopic(2)},
		Load:        Load{Count: 300, Interval: time.Millisecond, PayloadSize: 64},
		Receivers: []Receiver{
			directSub(0),
			// The wedged one: may lose anything, and dies by eviction.
			{Name: "slow-sub", MaxConsecutiveLoss: -1, AllowedRewinds: -1},
			// The trickle one: paced, never overflows its ring, loses nothing.
			{Name: "trickle-sub", RequireAll: true, MaxConsecutiveLoss: 0, AllowedRewinds: 0},
		},
		Script: []Step{
			{At: 0, Desc: "stall primary->slow-sub behind a 4KiB buffer",
				Do: SetLink(NodePrimary, "slow-sub", faultinject.Faults{Stall: true, WriteBufferBytes: 4 << 10})},
			{At: 0, Desc: "trickle primary->trickle-sub at 32KiB/s",
				Do: SetLink(NodePrimary, "trickle-sub", faultinject.Faults{BandwidthBps: 32 << 10})},
		},
		Check: func(e *Env) []string {
			es := e.Pairs[0].Primary.EgressStats()
			var v []string
			if es.Shed == 0 {
				v = append(v, "egress never shed despite a stalled subscriber behind a full ring")
			}
			if es.Evictions == 0 {
				v = append(v, "stalled subscriber exhausted Li without being evicted")
			}
			return v
		},
	}
}

// dropReplication runs the whole load with a 35% frame-drop lottery on the
// replication link, then crashes the Primary: the Backup Buffer is full of
// holes, recovery dispatches what survived, and the resend must cover the
// rest — while the prune/recovery discipline of Table 3 still holds.
func dropReplication() Scenario {
	return Scenario{
		Name:        "drop-replication",
		Description: "35% frame drop on the replication link, then a Primary crash",
		Topics:      []spec.Topic{chaosTopic(1, 512)},
		Load:        Load{Count: 250, Interval: 2 * time.Millisecond, PayloadSize: 16},
		Script: []Step{
			{At: 0, Desc: "drop 35% of primary->backup frames",
				Do: SetLink(NodePrimary, NodeBackup, faultinject.Faults{Drop: 0.35})},
			{At: 200 * time.Millisecond, Desc: "crash primary", Do: CrashPrimary(0)},
		},
		Receivers:       []Receiver{directSub(2)},
		ExpectPromotion: true,
	}
}

// shardKillPair fail-stops one shard's Primary mid-load in a three-pair
// cluster. Its Backup promotes within the bound and the Directory records
// it keeping the shard (epoch bump, same index); fail-over plus resend
// covers the shard's topics, and the survivors' topics never notice.
func shardKillPair() Scenario {
	const shards = 3
	topics := chaosTopics(9, 256)
	// Kill the shard that owns topic 1, so the scenario deterministically
	// exercises both a hit shard and untouched survivors.
	victim := cluster.ShardOf(topics[0].ID, shards)
	return Scenario{
		Name:        "shard-kill-pair",
		Description: "fail-stop one shard's Primary in a 3-pair cluster; its Backup keeps the shard, survivors never notice",
		Smoke:       true,
		Deployment:  Deployment{Shards: shards},
		Topics:      topics,
		Load:        Load{Count: 200, Interval: 2 * time.Millisecond, PayloadSize: 16},
		Script: []Step{
			{At: 150 * time.Millisecond, Desc: fmt.Sprintf("crash shard %d primary", victim),
				Do: CrashPrimary(victim)},
		},
		Receivers:       []Receiver{directSub(2)}, // recovery run + resend run on the hit pair's links
		ExpectPromotion: true,
		PromoteShard:    victim,
		Check: func(e *Env) []string {
			var v []string
			// The routing table must have recorded exactly this promotion:
			// epoch bumped once, the pair keeps the shard with the promoted
			// Backup as Primary and no Backup.
			tab := e.Cluster.Dir.Table()
			if tab.Epoch != 2 {
				v = append(v, fmt.Sprintf("directory epoch %d after one promotion, want 2", tab.Epoch))
			}
			pair := e.Pairs[victim]
			entry := tab.Shards[victim]
			if entry.Primary != pair.Backup.Addr() || entry.Backup != "" {
				v = append(v, fmt.Sprintf("shard %d entry %+v does not show the promoted backup owning the shard", victim, entry))
			}
			// Survivors' entries are untouched.
			for _, p := range e.Pairs {
				if p.Index == victim {
					continue
				}
				entry := tab.Shards[p.Index]
				if entry.Primary != p.Primary.Addr() || entry.Backup != p.Backup.Addr() {
					v = append(v, fmt.Sprintf("surviving shard %d entry %+v changed", p.Index, entry))
				}
			}
			return v
		},
	}
}

// shardRoutingPartition cuts the routing Directory off from the publisher
// and subscriber for most of the load window. Stale routes beat no
// routes: the cached table keeps the data plane running untouched — zero
// loss, strict FIFO, no promotion anywhere — while every poll of the
// Directory fails.
func shardRoutingPartition() Scenario {
	const shards = 3
	return Scenario{
		Name:        "shard-routing-partition",
		Description: "partition the routing plane from the clients; cached routes keep the data plane lossless",
		Smoke:       true,
		Deployment:  Deployment{Shards: shards},
		Topics:      chaosTopics(9, 64),
		Load:        Load{Count: 200, Interval: 2 * time.Millisecond, PayloadSize: 16},
		Script: []Step{
			{At: 50 * time.Millisecond, Desc: "partition routing | clients",
				Do: RaisePartition("routing-out", []string{cluster.NodeRouting}, []string{NodePub, NodeSub})},
			{At: 400 * time.Millisecond, Desc: "heal routing partition",
				Do: HealPartition("routing-out")},
		},
		Receivers: []Receiver{directSub(0)},
		Check: func(e *Env) []string {
			var v []string
			pub := e.pubs[0].(*cluster.Publisher)
			// No redirects and no re-homes: the outage never touched routing
			// correctness, only availability of the refresh path.
			if n := pub.Rehomed(); n != 0 {
				v = append(v, fmt.Sprintf("%d topics re-homed during a pure routing-plane outage", n))
			}
			if pub.Epoch() != 1 {
				v = append(v, fmt.Sprintf("publisher epoch %d, want untouched 1", pub.Epoch()))
			}
			return v
		},
	}
}

// gatewayTopics builds topics with a real Li (the per-client shed/evict
// budget under test) and retention for the load window.
func gatewayTopics(n, li int) []spec.Topic {
	out := chaosTopics(n, 64)
	for i := range out {
		out[i].LossTolerance = li
	}
	return out
}

// gatewayCrash fail-stops the gateway mid-stream and restarts it 140ms
// later. The publisher drives the brokers directly throughout, so the
// outage is a gap the thin clients absorb within Li as they reconnect,
// while the brokers see no publish error and no promotion.
func gatewayCrash() Scenario {
	return Scenario{
		Name:        "gateway-crash",
		Description: "kill and restart the gateway mid-stream; thin clients reconnect within Li, brokers never notice",
		Smoke:       true,
		Deployment:  Deployment{Mem: true, Gateway: &GatewayPlane{}},
		Topics:      gatewayTopics(4, 256),
		Load:        Load{Count: 250, Interval: 2 * time.Millisecond, PayloadSize: 16},
		Receivers: []Receiver{
			{Name: "phone-a", Gateway: true, MaxConsecutiveLoss: 256, AllowedRewinds: 2},
			{Name: "phone-b", Gateway: true, MaxConsecutiveLoss: 256, AllowedRewinds: 2},
		},
		Script: []Step{
			{At: 120 * time.Millisecond, Desc: "crash the gateway", Do: CrashGateway()},
			{At: 260 * time.Millisecond, Desc: "restart the gateway", Do: RestartGateway()},
		},
		Check: reconnected,
	}
}

// reconnected fails every thin client that never reconnected across the
// gateway restart.
func reconnected(e *Env) []string {
	var v []string
	for _, r := range e.recv {
		if ts, ok := r.sub.(*gateway.ThinSubscriber); ok && ts.Reconnects() == 0 {
			v = append(v, fmt.Sprintf("client %s never reconnected across the gateway restart", r.Name))
		}
	}
	return v
}

// gatewaySlowClient wedges one phone — it subscribes, its downlink stalls
// behind a tiny write buffer, and it never reads — while two healthy
// clients carry full load. Its private ring absorbs the backpressure: the
// gateway sheds within Li and then evicts it, the healthy clients get
// every message in order, and the brokers' egress never sheds a frame.
func gatewaySlowClient() Scenario {
	return Scenario{
		Name:        "gateway-slow-client",
		Description: "a wedged phone fills its ring; the gateway sheds then evicts it, healthy clients and brokers never notice",
		Smoke:       true,
		Deployment: Deployment{Mem: true, Gateway: &GatewayPlane{
			ClientDepth: 32,
			// Mem pipes block on an unread write; the wedged flush is
			// handed off after 2 ms, and the stall bound then fails it.
			ClientWriteTimeout: 200 * time.Millisecond,
		}},
		Topics: gatewayTopics(4, 8),
		Load:   Load{Count: 150, Interval: 2 * time.Millisecond, PayloadSize: 16},
		Receivers: []Receiver{
			{Name: "healthy-a", Gateway: true, RequireAll: true, MaxConsecutiveLoss: 0, AllowedRewinds: 0},
			{Name: "healthy-b", Gateway: true, RequireAll: true, MaxConsecutiveLoss: 0, AllowedRewinds: 0},
			{Name: "wedge", Wedged: true},
		},
		Script: []Step{
			{At: 0, Desc: "stall gateway->wedge behind a 4KiB buffer",
				Do: SetLink(NodeGateway, "wedge", faultinject.Faults{Stall: true, WriteBufferBytes: 4 << 10})},
		},
		Check: func(e *Env) []string {
			var v []string
			gw := e.Gateway
			es := gw.EgressStats()
			if es.Shed == 0 {
				v = append(v, "gateway never shed for the wedged client — the ring should have filled")
			}
			if gw.Evictions() == 0 {
				v = append(v, "gateway never evicted the wedged client past its Li budget")
			}
			if gw.Clients() != 2 {
				v = append(v, fmt.Sprintf("%d clients still attached, want exactly the 2 healthy ones", gw.Clients()))
			}
			return v
		},
	}
}

// shardKillBehindGateway composes two planes' faults: the Directory-mode
// gateway in front of a 3-pair cluster is crashed and restarted (as in
// gateway-crash) around a crash of the Primary owning topic 1. Only that
// shard promotes, within the bound; the thin clients stay within Li and
// reconnect to a gateway that finds the promoted Backup in the Directory.
func shardKillBehindGateway() Scenario {
	// The 140 ms gateway outage costs each thin client one gap of about 75
	// rounds of the 2 ms load (up to 80 measured with two -race runs
	// sharing two cores). li leaves margin for that, yet a client that
	// misses the restarted gateway loses the last ~190 of the 250 rounds
	// and fails the budget.
	const shards, li = 3, 128
	topics := gatewayTopics(9, li)
	// Proposition 1 replicates only while (Ni+Li)·Ti − Di is under the
	// fail-over budget: a 10 s Di makes these topics replicate, and dropped
	// prunes leave the victim's Backup a backlog to recovery-dispatch, so
	// Table 3 is exercised, not vacuously true.
	for i := range topics {
		topics[i].Deadline = 10 * time.Second
	}
	victim := cluster.ShardOf(topics[0].ID, shards)
	return Scenario{
		Name:        "shard-kill-behind-gateway",
		Description: "crash one shard's Primary while the Directory-mode gateway in front of the cluster is down; thin clients reconnect within Li",
		Smoke:       true,
		Deployment:  Deployment{Shards: shards, Mem: true, Gateway: &GatewayPlane{}},
		Topics:      topics,
		Load:        Load{Count: 250, Interval: 2 * time.Millisecond, PayloadSize: 16},
		Receivers: []Receiver{
			{Name: "phone-a", Gateway: true, MaxConsecutiveLoss: li, AllowedRewinds: 2},
			{Name: "phone-b", Gateway: true, MaxConsecutiveLoss: li, AllowedRewinds: 2},
		},
		Script: []Step{
			{At: 0, Desc: fmt.Sprintf("drop 35%% of shard %d primary->backup frames", victim),
				Do: SetLink(cluster.PrimaryNode(victim), cluster.BackupNode(victim), faultinject.Faults{Drop: 0.35})},
			{At: 120 * time.Millisecond, Desc: "crash the gateway", Do: CrashGateway()},
			{At: 160 * time.Millisecond, Desc: fmt.Sprintf("crash shard %d primary", victim), Do: CrashPrimary(victim)},
			{At: 260 * time.Millisecond, Desc: "restart the gateway", Do: RestartGateway()},
		},
		ExpectPromotion: true,
		PromoteShard:    victim,
		Check:           reconnected,
	}
}

// lifeOneSub is the first life's subscriber: the kill cuts it off, so the
// durable ground truth, not a budget, judges what it delivered.
var lifeOneSub = Receiver{Name: NodeSub, MaxConsecutiveLoss: -1, AllowedRewinds: -1}

// killBothBrokers is the durability plane's acceptance run: the whole pair
// fail-stops mid-load, and a broker restarted on the Primary's log must
// deliver every acked publish, recovery-dispatch exactly the unpruned
// backlog, and never re-dispatch a message whose prune record survived.
func killBothBrokers() Scenario {
	return Scenario{
		Name:        "kill-both-brokers",
		Description: "fail-stop the entire pair mid-load; a restart from log segments loses no acked publish",
		Smoke:       true,
		Deployment: Deployment{Mem: true, Durable: &DurablePlane{
			// Forty records whose prune markers were lost: the second life
			// must recovery-dispatch all of them, not just stay quiet.
			Orphans: 40,
		}},
		Topics:    chaosTopics(2, 512),
		Load:      Load{Count: 400, Interval: 2 * time.Millisecond, PayloadSize: 16},
		Receivers: []Receiver{lifeOneSub},
		Script:    []Step{{At: 250 * time.Millisecond, Desc: "kill the entire pair", Do: KillPair()}},
	}
}

// killBothGroupCommitStorm repeats the dual crash at the group commit's
// worst operating point: two connections with sixteen publishes in flight
// on each, a long fsync window and tiny segments, so the kill lands with
// records staged, batches of acks in flight and the log mid-roll. Every
// acked publish must still be covered: batching delays acks, never
// falsifies them.
func killBothGroupCommitStorm() Scenario {
	return Scenario{
		Name:        "kill-both-groupcommit-storm",
		Description: "dual crash, 2 connections x 16 in flight, 5ms fsync window, 4KiB segments; batched acks stay truthful mid-roll",
		Deployment: Deployment{Mem: true, Durable: &DurablePlane{
			Conns:    2,
			InFlight: 16,
			// A wide window keeps commits pending at the kill; tiny segments
			// force rolls throughout, so batches straddle rolls and replay
			// crosses many boundaries.
			FsyncInterval: 5 * time.Millisecond,
			SegmentBytes:  4 << 10,
			// The orphan segment lands amid dozens of tiny sealed segments,
			// so replay-for-recovery crosses many roll boundaries.
			Orphans: 64,
		}},
		Topics:    chaosTopics(4, 512),
		Load:      Load{Count: 400, Interval: time.Millisecond, PayloadSize: 64},
		Receivers: []Receiver{lifeOneSub},
		Script:    []Step{{At: 300 * time.Millisecond, Desc: "kill the entire pair", Do: KillPair()}},
	}
}
