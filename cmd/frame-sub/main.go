// Command frame-sub runs a FRAME subscriber over TCP: it connects to both
// brokers (dispatches arrive from whichever is Primary), redials a lost
// link, discards duplicates, and reports per-topic delivery counts, loss
// runs, end-to-end latency statistics and its reconnect count.
//
// Usage:
//
//	frame-sub -brokers localhost:7401,localhost:7402 -topics 0,1,2 -duration 60s
//
// Against a sharded cluster (cmd/frame-cluster), point it at the routing
// Directory instead; it links to every broker in the table and
// de-duplicates cluster-wide:
//
//	frame-sub -directory localhost:7400 -topics 0,1,2
//
// Against a connection-plane gateway (cmd/frame-gateway), run as a thin
// client: one link, to the gateway, redialed across a gateway restart, no
// broker addresses needed:
//
//	frame-sub -gateway localhost:7410 -topics 0,1,2
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	frame "repro"
	"repro/internal/clocksync"
	"repro/internal/cluster"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "frame-sub:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		brokers   = flag.String("brokers", "127.0.0.1:7401,127.0.0.1:7402", "comma-separated broker addresses")
		directory = flag.String("directory", "", "routing Directory address of a sharded cluster; overrides -brokers")
		gwAddr    = flag.String("gateway", "", "connection-plane gateway address: the one link, redialed like a broker's; overrides -brokers and -directory")
		topicArg  = flag.String("topics", "", "comma-separated topic ids (required)")
		duration  = flag.Duration("duration", 60*time.Second, "how long to listen (0 = until interrupted)")
		name      = flag.String("name", "frame-sub", "subscriber name")
		deadline  = flag.Duration("deadline", 0, "report deadline-meet rate against this bound (0 = skip)")
	)
	flag.Parse()
	if *topicArg == "" {
		return fmt.Errorf("-topics is required")
	}
	var topics []frame.TopicID
	for _, part := range strings.Split(*topicArg, ",") {
		id, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return fmt.Errorf("bad topic id %q: %w", part, err)
		}
		topics = append(topics, frame.TopicID(id))
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	network := frame.NewTCPNetwork(2 * time.Second)

	// One subscriber in every mode; only its broker links differ. A lost
	// link is redialed until the run ends.
	var addrs []string
	switch {
	case *gwAddr != "":
		addrs = []string{*gwAddr}
	case *directory != "":
		router, err := cluster.NewRouter(cluster.RouterOptions{
			DirectoryAddr: *directory,
			Network:       network,
			Logger:        logger,
		})
		if err != nil {
			return err
		}
		addrs = router.Table().Addrs()
	default:
		for _, a := range strings.Split(*brokers, ",") {
			addrs = append(addrs, strings.TrimSpace(a))
		}
	}
	// The clock disciplines to the first address: a broker, or the gateway,
	// which answers the NTP-style exchange itself so a thin client stays
	// one hop from its timebase.
	clock, stopSync, err := syncedClock(network, addrs[0])
	if err != nil {
		return err
	}
	defer stopSync()
	sub, err := frame.NewSubscriber(frame.SubscriberOptions{
		Name:        *name,
		Topics:      topics,
		BrokerAddrs: addrs,
		Network:     network,
		Clock:       clock,
		Logger:      logger,
	})
	if err != nil {
		return err
	}
	logger.Info("subscribed", "topics", len(topics), "links", strings.Join(addrs, ","))
	defer sub.Close()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if *duration > 0 {
		select {
		case <-sig:
		case <-time.After(*duration):
		}
	} else {
		<-sig
	}

	for _, id := range topics {
		lats := sub.Latencies(id)
		if len(lats) == 0 {
			fmt.Printf("topic %d: no messages\n", id)
			continue
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		met := 0
		for _, l := range lats {
			sum += l
			if *deadline > 0 && l <= *deadline {
				met++
			}
		}
		// Latency figures cover the most recent samples the subscriber
		// keeps (client.LatencyKeep per topic); received is the full count.
		line := fmt.Sprintf("topic %d: received=%d mean=%v p99=%v max=%v",
			id, sub.Received(id),
			(sum / time.Duration(len(lats))).Round(time.Microsecond),
			lats[len(lats)*99/100].Round(time.Microsecond),
			lats[len(lats)-1].Round(time.Microsecond))
		if *deadline > 0 {
			line += fmt.Sprintf(" met(%v)=%.2f%%", *deadline, 100*float64(met)/float64(len(lats)))
		}
		fmt.Println(line)
	}
	fmt.Printf("duplicates discarded: %d\n", sub.Duplicates())
	fmt.Printf("reconnects: %d\n", sub.Reconnects())
	return nil
}

// syncedClock disciplines this process's clock to the first broker so
// subscriber-side ts readings share the publisher's timebase (§VI-A's
// PTPd role).
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
		_ = runner.Run(ctx)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !runner.Synchronizer().Synced() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runner.Clock(), func() { cancel(); <-done }, nil
}
