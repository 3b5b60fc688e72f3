// Failover: crash the Primary mid-stream and watch FRAME recover.
//
// The example runs a Primary/Backup pair, streams a zero-loss-tolerance
// topic through the Primary, then kills the Primary (the paper injects
// SIGKILL; here we stop the broker, which is the same fail-stop crash as
// seen from the network). It then reports:
//
//   - when the Backup's detector fired and promoted it,
//   - when the publisher redirected and re-sent its retained messages (it
//     runs no detector: its link to the crashed Primary closing is what
//     tells it, and a promoted Backup would tell it too),
//   - the end-to-end outcome: every sequence number delivered exactly
//     once to the subscriber, despite the crash.
//
// Run with:
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log/slog"
	"os"
	"time"

	frame "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failover:", err)
		os.Exit(1)
	}
}

func run() error {
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	network := frame.NewMemNetwork()
	clock := frame.NewClock()
	detector := frame.DetectorConfig{
		Period:  5 * time.Millisecond,
		Timeout: 10 * time.Millisecond,
		Misses:  3,
	}
	params := frame.Params{
		DeltaBSEdge:  time.Millisecond,
		DeltaBSCloud: time.Millisecond,
		DeltaBB:      time.Millisecond,
		Failover:     50 * time.Millisecond, // must cover detector worst case
	}
	topic := frame.Topic{
		ID: 1, Category: -1,
		Period:        20 * time.Millisecond,
		Deadline:      time.Second,
		LossTolerance: 0,
		Retention:     frame.MinRetention(frame.Topic{Period: 20 * time.Millisecond, Deadline: time.Second, Destination: frame.DestEdge, PayloadSize: 16}, params),
		Destination:   frame.DestEdge,
		PayloadSize:   16,
	}
	fmt.Printf("topic: Ti=%v Li=%d → minimum admissible retention Ni=%d (covers x=%v)\n",
		topic.Period, topic.LossTolerance, topic.Retention, params.Failover)

	backup, err := frame.NewBroker(frame.BrokerOptions{
		Engine: frame.FRAMEConfig(params), Role: frame.RoleBackup,
		ListenAddr: "backup", PeerAddr: "primary",
		Network: network, Clock: clock, Detector: detector,
		Topics: []frame.Topic{topic}, Logger: logger,
	})
	if err != nil {
		return err
	}
	primary, err := frame.NewBroker(frame.BrokerOptions{
		Engine: frame.FRAMEConfig(params), Role: frame.RolePrimary,
		ListenAddr: "primary", PeerAddr: "backup",
		Network: network, Clock: clock, Detector: detector,
		Topics: []frame.Topic{topic}, Logger: logger,
	})
	if err != nil {
		return err
	}
	backup.Start()
	primary.Start()
	defer backup.Stop()

	sub, err := frame.NewSubscriber(frame.SubscriberOptions{
		Name: "sub", Topics: []frame.TopicID{1},
		BrokerAddrs: []string{"primary", "backup"},
		Network:     network, Clock: clock, Logger: logger,
	})
	if err != nil {
		return err
	}
	defer sub.Close()

	pub, err := frame.NewPublisher(frame.PublisherOptions{
		Name: "pub", Topics: []frame.Topic{topic},
		PrimaryAddr: "primary", BackupAddr: "backup",
		Network: network, Clock: clock, Logger: logger,
	})
	if err != nil {
		return err
	}
	defer pub.Close()

	publish := func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := pub.Publish(1, []byte("sensor-reading!!")); err != nil {
				return err
			}
			time.Sleep(topic.Period)
		}
		return nil
	}

	fmt.Println("phase 1: 25 messages through the Primary...")
	if err := publish(25); err != nil {
		return err
	}

	fmt.Println("phase 2: CRASH — killing the Primary")
	crashAt := time.Now()
	primary.Stop()

	select {
	case <-backup.Promoted():
		fmt.Printf("  backup promoted after %v\n", time.Since(crashAt).Round(time.Millisecond))
	case <-time.After(2 * time.Second):
		return fmt.Errorf("backup never promoted")
	}
	select {
	case <-pub.FailedOver():
		fmt.Printf("  publisher failed over (re-sent %d retained messages) after %v\n",
			topic.Retention, time.Since(crashAt).Round(time.Millisecond))
	case <-time.After(2 * time.Second):
		return fmt.Errorf("publisher never failed over")
	}

	fmt.Println("phase 3: 25 more messages through the new Primary...")
	if err := publish(25); err != nil {
		return err
	}
	time.Sleep(200 * time.Millisecond) // drain

	total := pub.LastSeq(1)
	loss := sub.MaxConsecutiveLoss(1, total)
	fmt.Printf("\nresult: delivered %d/%d distinct messages, max consecutive loss %d (Li=%d), duplicates discarded %d\n",
		sub.Received(1), total, loss, topic.LossTolerance, sub.Duplicates())
	if loss > topic.LossTolerance {
		return fmt.Errorf("loss tolerance violated")
	}
	fmt.Println("loss-tolerance contract held across the crash ✓")
	return nil
}
