// Windfarm: the paper's motivating IIoT scenario (Fig. 1) over real TCP.
//
// A wind-farm edge runs three application classes with heterogeneous QoS
// (paper Table 2):
//
//   - emergency (category 0): turbine overspeed alarms — 50 ms deadline,
//     zero loss tolerated;
//   - monitoring (category 3): vibration telemetry — 100 ms deadline,
//     up to 3 consecutive losses tolerable (estimates fill gaps);
//   - logging (category 5): energy production records to the cloud —
//     500 ms deadline, zero loss.
//
// The example prints FRAME's differentiation decisions (which topics
// replicate, which rely on publisher retention alone — Proposition 1),
// runs traffic through a Primary/Backup pair on loopback TCP, and reports
// per-class latency and loss.
//
// Run with:
//
//	go run ./examples/windfarm
package main

import (
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"time"

	frame "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "windfarm:", err)
		os.Exit(1)
	}
}

type class struct {
	name   string
	topics []frame.Topic
}

func run() error {
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	network := frame.NewTCPNetwork(2 * time.Second)
	clock := frame.NewClock()

	// On loopback the "cloud" is also local; in a real deployment
	// DeltaBSCloud would be a measured lower bound of the WAN latency
	// (the paper used 20.7 ms to AWS EC2).
	params := frame.Params{
		DeltaBSEdge:  time.Millisecond,
		DeltaBSCloud: time.Millisecond,
		DeltaBB:      time.Millisecond,
		Failover:     50 * time.Millisecond,
	}

	classes := []class{
		{name: "emergency", topics: []frame.Topic{{
			ID: 0, Category: 0, Period: 50 * time.Millisecond, Deadline: 50 * time.Millisecond,
			LossTolerance: 0, Retention: 2, Destination: frame.DestEdge, PayloadSize: 16,
		}}},
		{name: "monitoring", topics: []frame.Topic{
			{ID: 1, Category: 3, Period: 100 * time.Millisecond, Deadline: 100 * time.Millisecond,
				LossTolerance: 3, Retention: 0, Destination: frame.DestEdge, PayloadSize: 16},
			{ID: 2, Category: 3, Period: 100 * time.Millisecond, Deadline: 100 * time.Millisecond,
				LossTolerance: 3, Retention: 0, Destination: frame.DestEdge, PayloadSize: 16},
		}},
		{name: "logging", topics: []frame.Topic{{
			ID: 3, Category: 5, Period: 500 * time.Millisecond, Deadline: 500 * time.Millisecond,
			LossTolerance: 0, Retention: 1, Destination: frame.DestCloud, PayloadSize: 16,
		}}},
	}

	var all []frame.Topic
	fmt.Println("FRAME differentiation (Proposition 1):")
	for _, c := range classes {
		for _, t := range c.topics {
			if err := frame.Admissible(t, params); err != nil {
				return fmt.Errorf("class %s: %w", c.name, err)
			}
			b := frame.ComputeBounds(t, params)
			mode := "publisher retention only (replication suppressed)"
			if b.Replicate {
				mode = "replicates to Backup"
			}
			fmt.Printf("  %-10s topic %d: Dd=%v Dr=%v → %s\n", c.name, t.ID, b.Dispatch, b.Replication, mode)
			all = append(all, t)
		}
	}

	backup, err := frame.NewBroker(frame.BrokerOptions{
		Engine: frame.FRAMEConfig(params), Role: frame.RoleBackup,
		ListenAddr: "127.0.0.1:0", PeerAddr: "",
		Network: network, Clock: clock, Topics: all, Logger: logger,
	})
	if err != nil {
		return err
	}
	primary, err := frame.NewBroker(frame.BrokerOptions{
		Engine: frame.FRAMEConfig(params), Role: frame.RolePrimary,
		ListenAddr: "127.0.0.1:0", PeerAddr: backup.Addr(),
		Network: network, Clock: clock, Topics: all, Logger: logger,
	})
	if err != nil {
		return err
	}
	backup.Start()
	primary.Start()
	defer backup.Stop()
	defer primary.Stop()

	var ids []frame.TopicID
	for _, t := range all {
		ids = append(ids, t.ID)
	}
	// Each delivery carries its end-to-end latency; keep them per topic.
	// Three seconds of traffic is at most 60 samples a topic, so every one
	// is kept.
	var latMu sync.Mutex
	latencies := make(map[frame.TopicID][]time.Duration)
	sub, err := frame.NewSubscriber(frame.SubscriberOptions{
		Name: "scada", Topics: ids,
		BrokerAddrs: []string{primary.Addr(), backup.Addr()},
		Network:     network, Clock: clock, Logger: logger,
		OnDeliver: func(d frame.Delivery) {
			latMu.Lock()
			latencies[d.Msg.Topic] = append(latencies[d.Msg.Topic], d.Latency)
			latMu.Unlock()
		},
	})
	if err != nil {
		return err
	}
	defer sub.Close()

	pub, err := frame.NewPublisher(frame.PublisherOptions{
		Name: "turbine-proxy", Topics: all,
		PrimaryAddr: primary.Addr(), BackupAddr: backup.Addr(),
		Network: network, Clock: clock, Logger: logger,
	})
	if err != nil {
		return err
	}
	defer pub.Close()

	// Publish each class at its own period for three seconds.
	fmt.Println("\npublishing 3 seconds of wind-farm traffic over TCP loopback...")
	stop := time.After(3 * time.Second)
	tickers := make([]*time.Ticker, len(all))
	for i, t := range all {
		tickers[i] = time.NewTicker(t.Period)
		defer tickers[i].Stop()
	}
	payload := []byte("windfarm-sample!")
loop:
	for {
		for i, t := range all {
			select {
			case <-tickers[i].C:
				if _, err := pub.Publish(t.ID, payload); err != nil {
					return err
				}
			default:
			}
		}
		select {
		case <-stop:
			break loop
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(200 * time.Millisecond) // drain

	fmt.Println("\nper-class results:")
	for _, c := range classes {
		for _, t := range c.topics {
			latMu.Lock()
			lats := append([]time.Duration(nil), latencies[t.ID]...)
			latMu.Unlock()
			if len(lats) == 0 {
				fmt.Printf("  %-10s topic %d: no messages\n", c.name, t.ID)
				continue
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			met := 0
			for _, l := range lats {
				if l <= t.Deadline {
					met++
				}
			}
			fmt.Printf("  %-10s topic %d: delivered %d/%d, max consecutive loss %d (Li=%d), p99 latency %v, deadline met %.1f%%\n",
				c.name, t.ID, sub.Received(t.ID), pub.LastSeq(t.ID),
				sub.MaxConsecutiveLoss(t.ID, pub.LastSeq(t.ID)), t.LossTolerance,
				lats[len(lats)*99/100].Round(time.Microsecond),
				100*float64(met)/float64(len(lats)))
		}
	}
	return nil
}
