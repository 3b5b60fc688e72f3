// Command frame-pub runs a FRAME publisher proxy over TCP: it owns a set
// of topics, publishes one message per topic per period (batched like the
// paper's sensor proxies), retains the Ni latest messages of each topic,
// and fails over to the Backup — re-sending the retained messages — when
// the promoted Backup says so or its link to the Primary fails. It runs no
// failure detector of its own: the Backup's is the pair's only one.
//
// Usage:
//
//	frame-pub -primary localhost:7401 -backup localhost:7402 \
//	          -topics topics.txt -duration 60s
//
// Against a sharded cluster (cmd/frame-cluster), point it at the routing
// Directory instead; topics are routed to their owning pair by the cached
// epoch-versioned table, and WrongShard redirects refresh it:
//
//	frame-pub -directory localhost:7400 -topics topics.txt
//
// Against a connection-plane gateway (cmd/frame-gateway), run as a thin
// client: the gateway is the publisher's whole world — it answers the
// clock exchange locally and forwards each publish to the owning broker
// pair, so failover is the gateway's problem, not the phone's:
//
//	frame-pub -gateway localhost:7410 -topics topics.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	frame "repro"
	"repro/internal/clocksync"
	"repro/internal/cluster"
	"repro/internal/spec"
)

// publisher is the part of the API the publish loop needs; satisfied by
// both the per-pair frame.Publisher and the sharded cluster.Publisher.
type publisher interface {
	Publish(topic spec.TopicID, payload []byte) (uint64, error)
	LastSeq(topic spec.TopicID) uint64
	Close()
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "frame-pub:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		primary    = flag.String("primary", "127.0.0.1:7401", "primary broker address")
		backup     = flag.String("backup", "", "backup broker address (empty: no failover)")
		directory  = flag.String("directory", "", "routing Directory address of a sharded cluster; overrides -primary/-backup")
		gwAddr     = flag.String("gateway", "", "connection-plane gateway address; thin-client mode, overrides -primary/-backup and -directory")
		topicsPath = flag.String("topics", "", "topic spec file (required)")
		duration   = flag.Duration("duration", 60*time.Second, "how long to publish (0 = forever)")
		name       = flag.String("name", "frame-pub", "publisher name")
		payload    = flag.Int("payload", spec.PayloadSize, "payload bytes per message")
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

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	network := frame.NewTCPNetwork(2 * time.Second)

	// One publisher template serves all three modes; only where it points
	// (and which broker disciplines its clock) differs.
	opts := frame.PublisherOptions{
		Name: *name, Topics: topics, PrimaryAddr: *primary, BackupAddr: *backup,
		Network: network, Logger: logger,
	}
	var router *cluster.Router
	switch {
	case *gwAddr != "":
		// Thin-client mode: the gateway is the publisher's Primary. It
		// answers clock sync itself and forwards publishes to whichever
		// broker owns each topic; no Backup address because broker
		// failover is resolved behind the gateway.
		opts.PrimaryAddr, opts.BackupAddr = *gwAddr, ""
	case *directory != "":
		if router, err = cluster.NewRouter(cluster.RouterOptions{
			DirectoryAddr: *directory,
			Network:       network,
			Logger:        logger,
		}); err != nil {
			return err
		}
		// The cluster fills in each pair's addresses; until then PrimaryAddr
		// names the first shard's Primary, which disciplines the clock for
		// the whole cluster's one timebase.
		opts.PrimaryAddr = router.Table().Shards[0].Primary
	}
	clock, stopSync, err := syncedClock(network, opts.PrimaryAddr)
	if err != nil {
		return err
	}
	defer stopSync()
	opts.Clock = clock
	var pub publisher
	if router != nil {
		pub, err = cluster.NewPublisher(cluster.PublisherOptions{Publisher: opts, Router: router, RefreshInterval: time.Second})
	} else {
		pub, err = frame.NewPublisher(opts)
	}
	if err != nil {
		return err
	}
	defer pub.Close()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var stopAt <-chan time.Time
	if *duration > 0 {
		stopAt = time.After(*duration)
	}

	// One ticker per distinct period; each tick publishes a batch of all
	// topics sharing the period, like the paper's proxies.
	byPeriod := make(map[time.Duration][]frame.Topic)
	for _, t := range topics {
		byPeriod[t.Period] = append(byPeriod[t.Period], t)
	}
	type batch struct {
		ch     <-chan time.Time
		topics []frame.Topic
	}
	var batches []batch
	for period, group := range byPeriod {
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		batches = append(batches, batch{ch: ticker.C, topics: group})
	}
	body := make([]byte, *payload)

	published := uint64(0)
	start := time.Now()
	for {
		// A small select fan-in over the period groups plus stop signals.
		fired := false
		for _, bt := range batches {
			select {
			case <-bt.ch:
				for _, t := range bt.topics {
					if _, err := pub.Publish(t.ID, body); err != nil {
						logger.Warn("publish failed", "topic", t.ID, "err", err)
						continue
					}
					published++
				}
				fired = true
			default:
			}
		}
		select {
		case s := <-sig:
			logger.Info("stopping", "signal", s.String())
			return report(pub, topics, published, start)
		case <-stopAt:
			return report(pub, topics, published, start)
		default:
		}
		if !fired {
			time.Sleep(time.Millisecond)
		}
	}
}

// syncedClock disciplines this process's clock to the primary broker via
// the NTP-style exchange the broker answers on any session, so the tc
// timestamps it stamps are comparable with subscriber-side ts readings
// (the paper's test-bed ran PTPd for the same reason, §VI-A).
func syncedClock(network frame.Network, serverAddr string) (frame.Clock, func(), error) {
	runner, err := clocksync.NewRunner(clocksync.RunnerOptions{
		ServerAddr: serverAddr,
		Network:    network,
		Local:      frame.NewClock(),
		Interval:   500 * time.Millisecond,
	})
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = runner.Run(ctx) // returns on cancel
	}()
	// Wait briefly for the first exchange so early messages are stamped in
	// the broker timebase.
	deadline := time.Now().Add(2 * time.Second)
	for !runner.Synchronizer().Synced() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	stop := func() {
		cancel()
		<-done
	}
	return runner.Clock(), stop, nil
}

func report(pub publisher, topics []frame.Topic, published uint64, start time.Time) error {
	elapsed := time.Since(start)
	fmt.Printf("published %d messages over %v (%.0f msg/s)\n",
		published, elapsed.Round(time.Millisecond), float64(published)/elapsed.Seconds())
	for _, t := range topics {
		fmt.Printf("  topic %d: last seq %d\n", t.ID, pub.LastSeq(t.ID))
	}
	return nil
}
