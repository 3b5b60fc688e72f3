// Package plan turns the paper's §III-D configuration reasoning into an
// automated capacity planner. Given a topic set, deployment timing
// parameters, and a CPU cost model, it:
//
//   - runs the admission test on every topic (§III-D-1), suggesting the
//     minimum retention Ni that would make rejected topics admissible;
//   - computes each topic's deadlines and Proposition 1 replication
//     verdict (§III-D-2);
//   - finds, per replicating topic, the smallest retention increase that
//     would suppress its replication (§III-D-3 — the FRAME+ manoeuvre,
//     generalized from "add one for categories 2 and 5" to any topic set);
//   - predicts the Message Delivery module's utilization before and after
//     applying those increases, so an operator can see whether a
//     retention bump buys back enough CPU to admit more topics.
package plan

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/simcluster"
	"repro/internal/spec"
	"repro/internal/timing"
)

// TopicPlan is the planner's per-topic verdict.
type TopicPlan struct {
	Topic spec.Topic
	// Admissible is nil when the topic passes the §III-D-1 test.
	Admissible error
	// MinRetention is the smallest Ni making the topic admissible.
	MinRetention int
	// Bounds holds Dd, Dr, and the Proposition 1 verdict at the current Ni.
	Bounds timing.Bounds
	// RetentionToSuppress is the smallest Ni at which Proposition 1
	// suppresses the topic's replication, or -1 if no finite Ni does
	// (never happens for positive periods) or the topic already needs no
	// replication (then it equals the current Ni).
	RetentionToSuppress int
	// ExtraRetention = RetentionToSuppress − current Ni (0 if already
	// suppressed or best-effort).
	ExtraRetention int
}

// Plan is the full capacity plan.
type Plan struct {
	Params timing.Params
	Topics []TopicPlan
	// Replicating counts topics that replicate at current retentions.
	Replicating int
	// Inadmissible counts topics failing admission.
	Inadmissible int
	// DemandBefore and DemandAfter are the predicted delivery-module
	// utilization fractions under FRAME, before and after applying every
	// suggested retention increase.
	DemandBefore float64
	DemandAfter  float64
}

// retentionToSuppress returns the smallest Ni with
// (Ni+Li)·Ti − Di ≥ x + ΔBB − ΔBS (the negation of Proposition 1's
// replication-needed condition). Best-effort topics return their current
// retention (they never replicate).
func retentionToSuppress(t spec.Topic, p timing.Params) int {
	if t.BestEffort() {
		return t.Retention
	}
	need := p.Failover + p.DeltaBB - p.DeltaBS(t.Destination) + t.Deadline
	if need <= 0 {
		return 0
	}
	// Smallest k = Ni+Li with k·Ti ≥ need.
	k := int((need + t.Period - 1) / t.Period)
	ni := k - t.LossTolerance
	if ni < 0 {
		ni = 0
	}
	return ni
}

// Build computes the plan for a topic set under FRAME.
func Build(topics []spec.Topic, p timing.Params, cost simcluster.CostModel) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	out := &Plan{Params: p}
	boosted := make([]spec.Topic, 0, len(topics))
	for _, t := range topics {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		tp := TopicPlan{
			Topic:        t,
			Admissible:   timing.Admissible(t, p),
			MinRetention: timing.MinRetention(t, p),
			Bounds:       timing.Compute(t, p),
		}
		tp.RetentionToSuppress = retentionToSuppress(t, p)
		if tp.Bounds.Replicate {
			out.Replicating++
			if tp.RetentionToSuppress > t.Retention {
				tp.ExtraRetention = tp.RetentionToSuppress - t.Retention
			}
		} else if tp.RetentionToSuppress < t.Retention {
			tp.RetentionToSuppress = t.Retention
		}
		if tp.Admissible != nil {
			out.Inadmissible++
		}
		out.Topics = append(out.Topics, tp)

		bt := t
		if tp.ExtraRetention > 0 {
			bt.Retention += tp.ExtraRetention
		}
		boosted = append(boosted, bt)
	}

	out.DemandBefore = demand(topics, p, cost)
	out.DemandAfter = demand(boosted, p, cost)
	return out, nil
}

// demand predicts FRAME delivery-module utilization for a topic list.
func demand(topics []spec.Topic, p timing.Params, cost simcluster.CostModel) float64 {
	w := &spec.Workload{TotalTopics: len(topics), Topics: topics}
	return cost.DeliveryDemand(w, simcluster.VariantFRAME, p)
}

// Format renders the plan as an operator-facing report. Topics are grouped
// by identical (Ti, Di, Li, Ni, destination) signature to keep large
// workloads readable; each class shows its dispatch deadline Dd (Lemma 2),
// replication deadline Dr (Lemma 1) and minimum admissible Ni.
func (pl *Plan) Format() string {
	type sig struct {
		ti, di, dd, dr time.Duration
		li, ni         int
		dest           spec.Destination
		replicate      bool
		extra          int
		inadmissible   bool
		minRetention   int
	}
	counts := make(map[sig]int)
	for _, tp := range pl.Topics {
		s := sig{
			ti: tp.Topic.Period, di: tp.Topic.Deadline,
			dd: tp.Bounds.Dispatch, dr: tp.Bounds.Replication,
			li: tp.Topic.LossTolerance, ni: tp.Topic.Retention,
			dest: tp.Topic.Destination, replicate: tp.Bounds.Replicate,
			extra: tp.ExtraRetention, inadmissible: tp.Admissible != nil,
			minRetention: tp.MinRetention,
		}
		counts[s]++
	}
	sigs := make([]sig, 0, len(counts))
	for s := range counts {
		sigs = append(sigs, s)
	}
	sort.Slice(sigs, func(i, j int) bool {
		if sigs[i].ti != sigs[j].ti {
			return sigs[i].ti < sigs[j].ti
		}
		if sigs[i].li != sigs[j].li {
			return sigs[i].li < sigs[j].li
		}
		return sigs[i].ni < sigs[j].ni
	})

	var b strings.Builder
	fmt.Fprintf(&b, "capacity plan — %d topics, %d replicating, %d inadmissible\n",
		len(pl.Topics), pl.Replicating, pl.Inadmissible)
	fmt.Fprintf(&b, "predicted delivery utilization: %.1f%% now → %.1f%% after retention boosts\n",
		100*pl.DemandBefore, 100*pl.DemandAfter)
	p := pl.Params
	fmt.Fprintf(&b, "params: ΔPB=%v ΔBS(edge)=%v ΔBS(cloud)=%v ΔBB=%v x=%v\n\n",
		p.DeltaPB, p.DeltaBSEdge, p.DeltaBSCloud, p.DeltaBB, p.Failover)
	fmt.Fprintf(&b, "%6s %8s %8s %5s %4s %6s %9s %9s %10s %5s %12s %s\n",
		"topics", "Ti", "Di", "Li", "Ni", "dest", "Dd", "Dr", "replicate", "minNi", "admission", "suggestion")
	for _, s := range sigs {
		li := fmt.Sprintf("%d", s.li)
		if s.li >= spec.LossUnbounded {
			li = "inf"
		}
		dr := "inf"
		if s.dr != timing.NoDeadline {
			dr = msStr(s.dr)
		}
		replicate := "no"
		if s.replicate {
			replicate = "yes"
		}
		admission := "OK"
		suggestion := "-"
		if s.inadmissible {
			admission = "REJECTED"
			suggestion = fmt.Sprintf("raise Ni to %d to admit", s.minRetention)
		} else if s.extra > 0 {
			suggestion = fmt.Sprintf("raise Ni by %d to stop replicating", s.extra)
		}
		fmt.Fprintf(&b, "%6d %8s %8s %5s %4d %6s %9s %9s %10s %5d %12s %s\n",
			counts[s], msStr(s.ti), msStr(s.di), li, s.ni, s.dest,
			msStr(s.dd), dr, replicate, s.minRetention, admission, suggestion)
	}
	return b.String()
}

func msStr(d time.Duration) string {
	return fmt.Sprintf("%gms", float64(d)/float64(time.Millisecond))
}
