// Command frame-broker runs one FRAME broker over TCP.
//
// A Primary/Backup pair is started as:
//
//	frame-broker -role backup  -listen :7402 -peer  localhost:7401 -topics topics.txt
//	frame-broker -role primary -listen :7401 -peer  localhost:7402 -topics topics.txt
//
// The Backup polls the Primary and promotes itself on crash; publishers
// started with cmd/frame-pub re-send their retained messages to it.
// The -config flag selects the scheduling configuration: frame (EDF +
// selective replication + coordination), fcfs, or fcfs- (§VI-A).
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
	"repro/internal/spec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "frame-broker:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		role        = flag.String("role", "primary", "broker role: primary or backup")
		listen      = flag.String("listen", "127.0.0.1:7401", "listen address")
		peer        = flag.String("peer", "", "peer broker address (backup for a primary, primary for a backup)")
		topicsPath  = flag.String("topics", "", "topic spec file (required)")
		config      = flag.String("config", "frame", "scheduling configuration: frame, fcfs, or fcfs-")
		lanes       = flag.Int("lanes", 0, "parallel dispatch lanes; topics hash onto lanes, EDF order holds within each (0 = GOMAXPROCS for EDF, 1 for FCFS)")
		bsEdge      = flag.Duration("bs-edge", time.Millisecond, "ΔBS for edge subscribers")
		bsCloud     = flag.Duration("bs-cloud", 20*time.Millisecond, "ΔBS for cloud subscribers")
		bb          = flag.Duration("bb", 50*time.Microsecond, "ΔBB broker→backup latency")
		x           = flag.Duration("x", 50*time.Millisecond, "publisher fail-over time x")
		adminAddr   = flag.String("admin-addr", "", "bind an HTTP admin endpoint here serving /metrics, /healthz, and /debug/pprof (empty = disabled)")
		egressDepth = flag.Int("egress-depth", 1024, "per-subscriber outbound ring capacity in frames; dispatch enqueues and the shared flushers drain with vectored writes, so a slow socket never blocks a dispatch lane (0 = the default depth)")
		egressShed  = flag.Bool("egress-shed", true, "on a full egress ring, shed oldest frames within each topic's loss tolerance Li and evict the subscriber past it; false blocks the dispatcher instead (backpressure)")
		egressStall = flag.Duration("egress-stall", 0, "fail an egress flush write making no progress for this long and drop the subscriber (0 = unbounded; the ring + shed policy already isolate the lanes)")
		peerStall   = flag.Duration("peer-write-timeout", 0, "fail a replication-link write making no progress for this long so a wedged Backup drops the link instead of stalling the lanes behind a full replication ring (0 = default 2s, negative = unbounded)")
		intakeDepth = flag.Int("intake-depth", 0, "per-lane lock-free publish intake ring capacity in messages; publisher sessions push without the lane lock and the lane's dispatcher drains in batches (0 = default 1024)")
		flushers    = flag.Int("flushers", 0, "shared egress flusher goroutines draining all subscriber rings, one writev per collected batch (0 = default 4)")
		busyPoll    = flag.Bool("busy-poll", false, "spin idle lane dispatchers and egress flushers briefly before parking: lower wakeup latency, higher idle CPU")
		durable     = flag.Bool("durable", false, "ACK = durable mode: append every publish to a segmented group-commit log under -log-dir, ack with PubAck after fsync, and replay the log into the recovery path on restart")
		logDir      = flag.String("log-dir", "", "durable log directory (required with -durable)")
		fsyncEvery  = flag.Duration("fsync-interval", 0, "group-commit window: one fsync acknowledges every publish that arrived within it (0 = default 2ms, negative = fsync per publish)")
		logSegBytes = flag.Int64("log-segment-bytes", 0, "roll the durable log to a new segment past this size (0 = default 8MiB)")
		logRetain   = flag.Int64("log-retain-bytes", 0, "drop oldest sealed segments past this total size (0 = default 256MiB, negative = unlimited)")
		logRetAge   = flag.Duration("log-retain-age", 0, "drop sealed segments older than this (0 = disabled)")
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

	var brokerRole frame.BrokerRole
	switch *role {
	case "primary":
		brokerRole = frame.RolePrimary
	case "backup":
		brokerRole = frame.RoleBackup
	default:
		return fmt.Errorf("unknown -role %q (want primary or backup)", *role)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	opts := frame.BrokerOptions{
		Engine:             engine,
		Role:               brokerRole,
		ListenAddr:         *listen,
		PeerAddr:           *peer,
		Network:            frame.NewTCPNetwork(2 * time.Second),
		Clock:              frame.NewClock(),
		Lanes:              *lanes,
		Topics:             topics,
		Logger:             logger,
		AdminAddr:          *adminAddr,
		EgressDepth:        *egressDepth,
		EgressNoShed:       !*egressShed,
		EgressWriteTimeout: *egressStall,
		PeerWriteTimeout:   *peerStall,
		IntakeDepth:        *intakeDepth,
		Flushers:           *flushers,
		BusyPoll:           *busyPoll,
	}
	if *durable {
		if *logDir == "" {
			return fmt.Errorf("-durable requires -log-dir")
		}
		opts.Durable = true
		opts.LogDir = *logDir
		opts.FsyncInterval = *fsyncEvery
		opts.LogSegmentBytes = *logSegBytes
		opts.LogRetainBytes = *logRetain
		opts.LogRetainAge = *logRetAge
	}
	b, err := frame.NewBroker(opts)
	if err != nil {
		return err
	}
	b.Start()
	logger.Info("broker running", "addr", b.Addr(), "role", *role,
		"config", *config, "topics", len(topics), "admin", b.AdminAddr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
	case <-b.Promoted():
		logger.Info("promoted to primary; continuing to serve")
		<-sig
	}
	b.Stop()
	stats := b.Stats()
	logger.Info("final stats",
		"published", stats.Published,
		"dispatchJobs", stats.DispatchJobs,
		"replicationJobs", stats.ReplicationJobs,
		"prunesSent", stats.PrunesSent,
		"recoveryJobs", stats.RecoveryJobs)
	return nil
}
