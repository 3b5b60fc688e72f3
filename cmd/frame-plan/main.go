// Command frame-plan runs FRAME's admission test (§III-D-1) and capacity
// planner over a topic specification. Per class of identical topics it
// prints the dispatch deadline Dd (Lemma 2), the replication deadline Dr
// (Lemma 1), the Proposition 1 replication verdict, the minimum admissible
// retention Ni and the admission verdict, and the §III-D-3 retention
// suggestions that trade a little publisher memory for large replication
// savings (the FRAME+ manoeuvre), together with the predicted Message
// Delivery CPU demand before and after.
//
// With no -topics file it plans the paper's Table 2 workload at the given
// scale, which reproduces the §III-D-2 worked example. With -shards > 1 it
// plans each broker pair's jump-hash partition independently (the Lemma
// 1/2 budgets are per-pair); with -target-util it finds the smallest shard
// count whose hottest pair fits the target.
//
// Usage:
//
//	frame-plan [-topics file | -scale 7525] [-bs-edge 1ms] [-bs-cloud 20ms] [-bb 50us] [-x 50ms] [-pb 0]
//	frame-plan -scale 13525 -shards 4
//	frame-plan -scale 13525 -target-util 0.5 [-max-shards 64]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	frame "repro"
	"repro/internal/plan"
	"repro/internal/simcluster"
	"repro/internal/spec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "frame-plan:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		topicsPath = flag.String("topics", "", "topic spec file (default: paper workload at -scale)")
		scale      = flag.Int("scale", 1525, "paper workload size when no -topics file is given")
		bsEdge     = flag.Duration("bs-edge", time.Millisecond, "ΔBS for edge subscribers")
		bsCloud    = flag.Duration("bs-cloud", 20*time.Millisecond, "ΔBS lower bound for cloud subscribers")
		bb         = flag.Duration("bb", 50*time.Microsecond, "ΔBB broker→backup latency")
		x          = flag.Duration("x", 50*time.Millisecond, "publisher fail-over time x")
		pb         = flag.Duration("pb", 0, "ΔPB publisher→broker latency")
		shards     = flag.Int("shards", 1, "plan across N broker pairs (jump-hash topic partition)")
		targetUtil = flag.Float64("target-util", 0, "find the smallest shard count whose hottest pair's delivery utilization fits this fraction")
		maxShards  = flag.Int("max-shards", 64, "upper bound for the -target-util search")
	)
	flag.Parse()

	params := frame.Params{
		DeltaPB:      *pb,
		DeltaBSEdge:  *bsEdge,
		DeltaBSCloud: *bsCloud,
		DeltaBB:      *bb,
		Failover:     *x,
	}
	var topics []frame.Topic
	if *topicsPath != "" {
		f, err := os.Open(*topicsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		topics, err = spec.ParseTopics(f)
		if err != nil {
			return err
		}
	} else {
		w, err := frame.NewWorkload(*scale)
		if err != nil {
			return err
		}
		topics = w.Topics
	}

	cost := simcluster.DefaultCostModel()
	if *targetUtil > 0 {
		n, sp, err := plan.MinShards(topics, params, cost, *targetUtil, *maxShards)
		if err != nil {
			return err
		}
		fmt.Printf("minimum shards for ≤%.0f%% delivery utilization: %d\n\n", 100**targetUtil, n)
		fmt.Print(sp.Format())
		return nil
	}
	if *shards > 1 {
		sp, err := plan.BuildSharded(topics, *shards, params, cost)
		if err != nil {
			return err
		}
		fmt.Print(sp.Format())
		return nil
	}
	pl, err := plan.Build(topics, params, cost)
	if err != nil {
		return err
	}
	fmt.Print(pl.Format())
	return nil
}
