package frame

import (
	"log/slog"
	"testing"
	"time"
)

func quiet() *slog.Logger {
	return slog.New(slog.NewTextHandler(discardWriter{}, &slog.HandlerOptions{Level: slog.LevelError}))
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// lanParams fits the loopback latency regime of in-process tests.
func lanParams() Params {
	return Params{
		DeltaBSEdge:  time.Millisecond,
		DeltaBSCloud: time.Millisecond,
		DeltaBB:      time.Millisecond,
		Failover:     50 * time.Millisecond,
	}
}

func lanTopic(id TopicID) Topic {
	return Topic{
		ID:          id,
		Category:    -1,
		Period:      20 * time.Millisecond,
		Deadline:    time.Second,
		Retention:   3,
		Destination: DestEdge,
		PayloadSize: 16,
	}
}

func TestPublicAPIModelLayer(t *testing.T) {
	p := PaperParams()
	cats := Table2()
	if len(cats) != 6 {
		t.Fatalf("Table2 size %d", len(cats))
	}
	top := cats[2].Stamp(0, 16)
	if got := DispatchDeadline(top, p); got != 99*time.Millisecond {
		t.Errorf("DispatchDeadline = %v", got)
	}
	if got := ReplicationDeadline(top, p); got != 49950*time.Microsecond {
		t.Errorf("ReplicationDeadline = %v", got)
	}
	if !NeedsReplication(top, p) {
		t.Error("category 2 should need replication")
	}
	if err := Admissible(top, p); err != nil {
		t.Errorf("Admissible: %v", err)
	}
	if got := MinRetention(top, p); got != 1 {
		t.Errorf("MinRetention = %d", got)
	}
	b := ComputeBounds(top, p)
	if !b.Replicate || b.Dispatch != 99*time.Millisecond {
		t.Errorf("ComputeBounds = %+v", b)
	}
	w, err := NewWorkload(1525)
	if err != nil || w.TotalTopics != 1525 {
		t.Fatalf("NewWorkload: %v", err)
	}
}

// TestPublicAPIEndToEnd runs the full runtime through the facade: a
// Primary/Backup pair, a publisher, a subscriber, a crash, and recovery.
func TestPublicAPIEndToEnd(t *testing.T) {
	network := NewMemNetwork()
	clock := NewClock()
	topics := []Topic{lanTopic(1)}
	det := DetectorConfig{Period: 2 * time.Millisecond, Timeout: 5 * time.Millisecond, Misses: 2}

	backup, err := NewBroker(BrokerOptions{
		Engine: FRAMEConfig(lanParams()), Role: RoleBackup,
		ListenAddr: "backup", PeerAddr: "primary",
		Network: network, Clock: clock, Detector: det,
		Topics: topics, Logger: quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	primary, err := NewBroker(BrokerOptions{
		Engine: FRAMEConfig(lanParams()), Role: RolePrimary,
		ListenAddr: "primary", PeerAddr: "backup",
		Network: network, Clock: clock, Detector: det,
		Topics: topics, Logger: quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	backup.Start()
	primary.Start()
	defer backup.Stop()

	deliveries := make(chan Delivery, 256)
	sub, err := NewSubscriber(SubscriberOptions{
		Name: "sub", Topics: []TopicID{1},
		BrokerAddrs: []string{"primary", "backup"},
		Network:     network, Clock: clock,
		OnDeliver: func(d Delivery) { deliveries <- d },
		Logger:    quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	pub, err := NewPublisher(PublisherOptions{
		Name: "pub", Topics: topics,
		PrimaryAddr: "primary", BackupAddr: "backup",
		Network: network, Clock: clock, Logger: quiet(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	for i := 0; i < 10; i++ {
		if _, err := pub.Publish(1, []byte("payload-16-bytes")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		select {
		case d := <-deliveries:
			if d.Latency < 0 || d.Latency > time.Second {
				t.Errorf("latency %v out of range", d.Latency)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("delivery %d never arrived", i)
		}
	}

	primary.Stop() // crash
	select {
	case <-backup.Promoted():
	case <-time.After(2 * time.Second):
		t.Fatal("backup never promoted")
	}
	select {
	case <-pub.FailedOver():
	case <-time.After(2 * time.Second):
		t.Fatal("publisher never failed over")
	}
	for i := 0; i < 10; i++ {
		if _, err := pub.Publish(1, []byte("payload-16-bytes")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sub.Received(1) < 20 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := sub.MaxConsecutiveLoss(1, pub.LastSeq(1)); got != 0 {
		t.Errorf("max consecutive loss = %d, want 0", got)
	}
}

func TestPublicAPISimulate(t *testing.T) {
	w, err := NewWorkload(1525)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(SimOptions{
		Workload: w, Variant: VariantFRAME, Seed: 1,
		Warmup: 200 * time.Millisecond, Measure: time.Second, Drain: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Variant != VariantFRAME || len(res.Topics) != 1525 {
		t.Fatalf("result: variant=%v topics=%d", res.Variant, len(res.Topics))
	}
	for _, tr := range res.Topics {
		if tr.Topic.BestEffort() {
			continue
		}
		if !tr.MeetsLossTolerance() {
			t.Errorf("topic %d fails loss tolerance in fault-free run", tr.Topic.ID)
		}
	}
	if DefaultCostModel().DeliveryCores != 2 {
		t.Error("cost model core assignment changed")
	}
}
