package client_test

import (
	"io"
	"log/slog"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/faultinject"
	"repro/internal/gateway"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
)

// TestSubscriberConfirmsSubscription: with every frame the subscriber sends
// held back 20 ms, a burst published the moment NewSubscriber returns still
// arrives whole — directly from a pair and through a gateway — because
// NewSubscriber returns only once each link's Subscribe is in place.
func TestSubscriberConfirmsSubscription(t *testing.T) {
	for _, via := range []string{"pair", "gateway"} {
		t.Run(via, func(t *testing.T) {
			start := time.Now()
			clock := func() time.Duration { return time.Since(start) }
			quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
			topics := []spec.Topic{confirmTopic(1), confirmTopic(2)}
			engine := core.FRAMEConfig(timing.Params{
				DeltaBSEdge: time.Millisecond, DeltaBSCloud: time.Millisecond, DeltaBB: time.Millisecond,
				Failover: 50 * time.Millisecond,
			})
			engine.MessageBufferCap = 1024 // the burst, not Ti-spaced arrivals, sizes the buffer
			fi := faultinject.New(transport.NewMem(), 1)
			c, err := cluster.New(cluster.Config{
				Shards: 1,
				Topics: topics,
				Broker: broker.Options{
					Engine:   engine,
					Clock:    clock,
					Detector: failover.Config{Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond, Misses: 3},
					Logger:   quiet,
				},
				NodeNetwork: fi.Node,
				Mem:         true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			addrs := c.Dir.Table().Addrs()
			if via == "gateway" {
				gw, err := gateway.New(gateway.Options{
					ListenAddr: "gateway", Topics: topics, DirectoryAddr: c.Dir.Addr(),
					Network: fi.Node("gateway"), Clock: clock, Logger: quiet,
				})
				if err != nil {
					t.Fatal(err)
				}
				gw.Start()
				defer gw.Stop()
				addrs = []string{gw.Addr()}
			}
			pair := c.Pairs[0]
			pub, err := client.NewPublisher(client.PublisherOptions{
				Name: "pub", Topics: topics, PrimaryAddr: pair.Primary.Addr(), BackupAddr: pair.Backup.Addr(),
				Network: fi.Node("pub"), Clock: clock, Logger: quiet,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()

			fi.SetLink("sub", faultinject.Wildcard, faultinject.Faults{Latency: 20 * time.Millisecond})
			sub, err := client.NewSubscriber(client.SubscriberOptions{
				Name: "sub", Topics: []spec.TopicID{1, 2}, BrokerAddrs: addrs,
				Network: fi.Node("sub"), Clock: clock, Logger: quiet,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			const n = 25 // 50 frames: within the gateway's 64-frame client ring
			for seq := 1; seq <= n; seq++ {
				for _, tp := range topics {
					if _, err := pub.Publish(tp.ID, []byte("confirmed")); err != nil {
						t.Fatal(err)
					}
				}
			}
			deadline := time.Now().Add(3 * time.Second)
			for sub.Received(1) < n || sub.Received(2) < n {
				if time.Now().After(deadline) {
					t.Fatalf("received %d and %d of the %d messages published on each topic after NewSubscriber returned",
						sub.Received(1), sub.Received(2), n)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

func confirmTopic(id spec.TopicID) spec.Topic {
	return spec.Topic{
		ID: id, Category: -1, Period: 20 * time.Millisecond, Deadline: time.Second,
		LossTolerance: 0, Retention: 3, Destination: spec.DestEdge, PayloadSize: 16,
	}
}
