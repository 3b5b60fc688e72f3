package chaos

import (
	"fmt"
	"time"

	"repro/internal/spec"
)

// durableTopics builds n standard chaos topics with generous retention.
func durableTopics(n int) []spec.Topic {
	out := make([]spec.Topic, n)
	for i := range out {
		out[i] = chaosTopic(spec.TopicID(i+1), 512)
	}
	return out
}

// DurableAll returns every shipped dual-crash scenario. Names are stable —
// CI artifacts and replay commands reference them.
func DurableAll() []DurableScenario {
	return []DurableScenario{
		killBothBrokers(),
		killBothGroupCommitStorm(),
	}
}

// DurableFind returns the named dual-crash scenario.
func DurableFind(name string) (DurableScenario, error) {
	for _, sc := range DurableAll() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return DurableScenario{}, fmt.Errorf("chaos: unknown durable scenario %q", name)
}

// killBothBrokers is the acceptance run for the durability plane: both
// brokers of the pair fail-stop mid-load — the failure mode §IV-A
// promotion cannot cover — and a broker restarted on the Primary's log
// segments must deliver every acked publish, recovery-dispatch exactly the
// unpruned backlog, and never re-dispatch a message whose prune record
// survived (Table 3's discipline, enforced from disk).
func killBothBrokers() DurableScenario {
	return DurableScenario{
		Name:        "kill-both-brokers",
		Description: "fail-stop the entire pair mid-load; a restart from log segments loses no acked publish",
		Smoke:       true,
		Topics:      durableTopics(2),
		Load:        Load{Count: 400, Interval: 2 * time.Millisecond, PayloadSize: 16},
		KillAt:      250 * time.Millisecond,
		// Forty records whose prune markers were lost: the second life must
		// recovery-dispatch all of them, not just stay quiet.
		Orphans: 40,
	}
}

// killBothGroupCommitStorm stresses the same dual crash at the group
// commit's worst operating point, in the shape the pipelined ack path
// serves: two publisher connections with sixteen publishes in flight on
// each, a long fsync window and tiny segments — so the kill lands with
// dozens of records staged, whole batches of acks in the ack rings, and
// the log mid-roll across many segment files. Acked publishes must still
// all be covered — the window and the batching only delay acks, never
// falsify them.
func killBothGroupCommitStorm() DurableScenario {
	return DurableScenario{
		Name:        "kill-both-groupcommit-storm",
		Description: "dual crash, 2 connections x 16 in flight, 5ms fsync window, 4KiB segments; batched acks stay truthful mid-roll",
		Topics:      durableTopics(4),
		Load:        Load{Count: 400, Interval: time.Millisecond, PayloadSize: 64},
		KillAt:      300 * time.Millisecond,
		Conns:       2,
		InFlight:    16,
		// A wide window keeps commits pending at the kill; tiny segments
		// force rolls throughout, so batches straddle rolls and replay
		// crosses many boundaries.
		FsyncInterval: 5 * time.Millisecond,
		SegmentBytes:  4 << 10,
		// The orphan segment lands amid dozens of tiny sealed segments, so
		// replay-for-recovery crosses many roll boundaries.
		Orphans: 64,
	}
}
