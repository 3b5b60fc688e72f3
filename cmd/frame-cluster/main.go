// Command frame-cluster brings up an N-shard FRAME cluster on one host:
// N Primary+Backup broker pairs plus the epoch-versioned routing
// Directory, with the topic set partitioned across the pairs by the jump
// consistent hash (internal/cluster.ShardOf).
//
//	frame-cluster -shards 4 -topics topics.txt
//
// The Directory address it prints is what sharding-aware clients dial:
//
//	frame-pub -directory <addr> -topics topics.txt
//
// Each pair runs the full FRAME engine — EDF dispatch, selective
// replication, dispatch–replicate coordination — so every shard keeps the
// per-pair Lemma 1/2 bounds; the Directory only scales the topic set
// horizontally. When a shard's Primary dies its Backup promotes and the
// Directory bumps the table epoch with the pair keeping its shard index.
//
// This command is the single-host convenience form (demos, perf runs,
// chaos soak). For a real deployment run one frame-broker per node and
// serve an equivalent table from your own directory.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	frame "repro"
	"repro/internal/cluster"
	"repro/internal/failover"
	"repro/internal/spec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "frame-cluster:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		shards      = flag.Int("shards", 2, "number of Primary+Backup pairs")
		topicsPath  = flag.String("topics", "", "topic spec file (required)")
		config      = flag.String("config", "frame", "scheduling configuration: frame, fcfs, or fcfs-")
		egressDepth = flag.Int("egress-depth", 1024, "per-subscriber outbound ring capacity per broker")
		period      = flag.Duration("detect-period", 5*time.Millisecond, "failure detector polling period")
		timeout     = flag.Duration("detect-timeout", 10*time.Millisecond, "failure detector probe timeout")
		misses      = flag.Int("detect-misses", 3, "consecutive probe misses that declare a crash")
		bsEdge      = flag.Duration("bs-edge", time.Millisecond, "ΔBS for edge subscribers")
		bsCloud     = flag.Duration("bs-cloud", 20*time.Millisecond, "ΔBS for cloud subscribers")
		bb          = flag.Duration("bb", 50*time.Microsecond, "ΔBB broker→backup latency")
		x           = flag.Duration("x", 50*time.Millisecond, "publisher fail-over time x")
	)
	flag.Parse()

	if *topicsPath == "" {
		return fmt.Errorf("-topics is required")
	}
	f, err := os.Open(*topicsPath)
	if err != nil {
		return err
	}
	topics, err := spec.ParseTopics(f)
	f.Close()
	if err != nil {
		return err
	}

	params := frame.PaperParams()
	params.DeltaBSEdge = *bsEdge
	params.DeltaBSCloud = *bsCloud
	params.DeltaBB = *bb
	params.Failover = *x

	var engine frame.CoreConfig
	switch *config {
	case "frame":
		engine = frame.FRAMEConfig(params)
	case "fcfs":
		engine = frame.FCFSConfig(params)
	case "fcfs-":
		engine = frame.FCFSMinusConfig(params)
	default:
		return fmt.Errorf("unknown -config %q (want frame, fcfs, or fcfs-)", *config)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	c, err := cluster.New(cluster.Config{
		Shards: *shards,
		Topics: topics,
		Broker: frame.BrokerOptions{
			Engine:      engine,
			Network:     frame.NewTCPNetwork(2 * time.Second),
			Clock:       frame.NewClock(),
			Detector:    failover.Config{Period: *period, Timeout: *timeout, Misses: *misses},
			EgressDepth: *egressDepth,
			Logger:      logger,
		},
	})
	if err != nil {
		return err
	}
	defer c.Stop()

	logger.Info("cluster running",
		"shards", *shards, "topics", len(topics),
		"directory", c.Dir.Addr(), "epoch", c.Dir.Epoch())
	for _, p := range c.Pairs {
		logger.Info("shard", "index", p.Index, "topics", len(p.Topics),
			"primary", p.Primary.Addr(), "backup", p.Backup.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logger.Info("shutting down", "signal", s.String())
	return nil
}
