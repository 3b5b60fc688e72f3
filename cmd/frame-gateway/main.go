// Command frame-gateway runs a FRAME connection-plane gateway over TCP:
// it terminates thin client sessions (phone-class publishers and
// subscribers speaking the ordinary wire protocol), resolves their
// per-client subscriptions locally, and multiplexes all of them onto a
// handful of broker sessions — one upstream subscriber per shard pair.
// Each client gets a private egress ring sized for ~1M clients per
// gateway; a wedged client is shed within its topics' loss tolerance Li
// and evicted past it, so client faults never reach the brokers.
//
// Against a single broker pair:
//
//	frame-gateway -listen :7410 -brokers localhost:7401,localhost:7402 \
//	              -topics topics.txt
//
// Against a sharded cluster (cmd/frame-cluster), point it at the routing
// Directory instead; upstream sessions and publish routes follow the
// epoch-versioned table:
//
//	frame-gateway -listen :7410 -directory localhost:7400 -topics topics.txt
//
// Thin clients connect with frame-sub/frame-pub's -gateway flag.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	frame "repro"
	"repro/internal/clocksync"
	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/spec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "frame-gateway:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen     = flag.String("listen", "127.0.0.1:7410", "client-facing listen address")
		brokers    = flag.String("brokers", "", "comma-separated Primary,Backup addresses of one broker pair")
		directory  = flag.String("directory", "", "routing Directory address of a sharded cluster; overrides -brokers")
		topicsPath = flag.String("topics", "", "topic spec file (required; Li bounds each client's shed budget)")
		name       = flag.String("name", "frame-gateway", "gateway name in upstream Hello frames")
		depth      = flag.Int("depth", 0, "per-client egress ring capacity in frames (0 = default 64)")
		stall      = flag.Duration("client-write-timeout", 2*time.Second, "fail a client flush write making no progress for this long and drop the session (0 = unbounded)")
		flushers   = flag.Int("flushers", 0, "shared flusher goroutines draining all client rings, one writev per collected batch (0 = default 4)")
		busyPoll   = flag.Bool("busy-poll", false, "spin idle flushers briefly before parking: lower client wakeup latency, higher idle CPU")
		adminAddr  = flag.String("admin-addr", "", "bind an HTTP admin endpoint here serving /metrics, /healthz, and /debug/pprof (empty = disabled)")
		duration   = flag.Duration("duration", 0, "how long to serve (0 = until interrupted)")
	)
	flag.Parse()
	if *topicsPath == "" {
		return fmt.Errorf("-topics is required")
	}
	if (*brokers == "") == (*directory == "") {
		return fmt.Errorf("exactly one of -brokers or -directory is required")
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

	opts := gateway.Options{
		ListenAddr:         *listen,
		Topics:             topics,
		Network:            network,
		Name:               *name,
		ClientDepth:        *depth,
		ClientWriteTimeout: *stall,
		Flushers:           *flushers,
		BusyPoll:           *busyPoll,
		AdminAddr:          *adminAddr,
		Logger:             logger,
	}

	// Discipline the gateway clock to a broker so the tc timestamps it
	// stamps on forwarded publishes share the cluster timebase.
	var clockServer string
	if *directory != "" {
		opts.DirectoryAddr = *directory
		router, err := cluster.NewRouter(cluster.RouterOptions{
			DirectoryAddr: *directory,
			Network:       network,
			Logger:        logger,
		})
		if err != nil {
			return err
		}
		clockServer = router.Table().Shards[0].Primary
	} else {
		opts.BrokerAddrs = splitAddrs(*brokers)
		clockServer = opts.BrokerAddrs[0]
	}
	clock, stopSync, err := syncedClock(network, clockServer)
	if err != nil {
		return err
	}
	defer stopSync()
	opts.Clock = clock

	gw, err := gateway.New(opts)
	if err != nil {
		return err
	}
	gw.Start()
	defer gw.Stop()
	logger.Info("gateway up", "listen", gw.Addr(), "topics", len(topics),
		"upstream-subscribers", gw.Subscribers(), "admin", gw.AdminAddr())

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

	es := gw.EgressStats()
	fmt.Printf("clients=%d delivered=%d forwarded=%d forward-errs=%d shed=%d evictions=%d\n",
		gw.Clients(), gw.Delivered(), gw.Forwarded(), gw.ForwardErrs(), es.Shed, gw.Evictions())
	return nil
}

// splitAddrs turns "a, b" into trimmed non-empty entries.
func splitAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// syncedClock disciplines this process's clock to a broker via the
// NTP-style exchange, like frame-pub and frame-sub (§VI-A's PTPd role).
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
