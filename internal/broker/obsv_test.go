package broker

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/obsv"
	"repro/internal/spec"
	"repro/internal/transport"
)

// startAdminCluster is startCluster plus an ephemeral admin endpoint on each
// broker. Broker traffic stays on the in-process Mem network; the admin
// endpoints bind real loopback TCP regardless.
func startAdminCluster(t *testing.T, topics []spec.Topic) *cluster {
	t.Helper()
	return startAdminClusterWith(t, topics, fastDetector())
}

// startAdminClusterWith is startAdminCluster with the Backup's detector
// tuned by det.
func startAdminClusterWith(t *testing.T, topics []spec.Topic, det failover.Config) *cluster {
	t.Helper()
	n := transport.NewMem()
	clock := testClock()
	cfg := core.FRAMEConfig(lanParams())
	cfg.MessageBufferCap = 1024
	backup, err := New(Options{
		Engine: cfg, Role: RoleBackup,
		ListenAddr: "backup", PeerAddr: "primary",
		Network: n, Clock: clock,
		Detector: det, Topics: topics,
		Logger:    quietLogger(),
		AdminAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	primary, err := New(Options{
		Engine: cfg, Role: RolePrimary,
		ListenAddr: "primary", PeerAddr: backup.Addr(),
		Network: n, Clock: clock,
		Detector: det, Topics: topics,
		Logger:    quietLogger(),
		AdminAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	backup.opts.PeerAddr = primary.Addr()
	backup.Start()
	primary.Start()
	t.Cleanup(func() {
		primary.Stop()
		backup.Stop()
	})
	return &cluster{primary: primary, backup: backup, net: n, clock: clock}
}

func scrape(t *testing.T, adminAddr string) []obsv.Sample {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(fmt.Sprintf("http://%s/metrics", adminAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	samples, err := obsv.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	return samples
}

func sampleValue(t *testing.T, samples []obsv.Sample, name, label string) float64 {
	t.Helper()
	s, ok := obsv.Find(samples, name, label)
	if !ok {
		t.Fatalf("metric %s{%s} not exposed", name, label)
	}
	return s.Value
}

func getHealth(t *testing.T, adminAddr string) obsv.Health {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(fmt.Sprintf("http://%s/healthz", adminAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var h obsv.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	return h
}

// TestMetricsEndpointCounters publishes through a Primary+Backup pair and
// asserts the scraped exposition carries the full message lifecycle:
// publish → dispatch → replicate counters and per-stage latency histograms,
// all monotonically non-decreasing across scrapes.
func TestMetricsEndpointCounters(t *testing.T) {
	// lanTopic(1, 3): deadline 1s ≫ retention window 60ms, so Proposition 1
	// requires replication and the replicate counters must move too.
	topics := []spec.Topic{lanTopic(1, 3)}
	c := startAdminCluster(t, topics)

	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "sub", Topics: []spec.TopicID{1},
		BrokerAddrs: []string{"primary", "backup"},
		Network:     c.net, Clock: c.clock,
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	pub, err := client.NewPublisher(client.PublisherOptions{
		Name: "pub", Topics: topics,
		PrimaryAddr: "primary", BackupAddr: "backup",
		Network: c.net, Clock: c.clock,
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const count = 25
	for i := 0; i < count; i++ {
		if _, err := pub.Publish(1, []byte("payload-16-bytes")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, "all deliveries", func() bool {
		return sub.Received(1) == count
	})

	first := scrape(t, c.primary.AdminAddr())
	for _, name := range []string{
		"frame_publish_total",
		"frame_dispatch_total",
		"frame_replicate_total",
		"frame_queue_pops_total",
	} {
		label := ""
		if name == "frame_queue_pops_total" {
			label = `kind="dispatch"`
		}
		if v := sampleValue(t, first, name, label); v < count {
			t.Errorf("%s = %v, want >= %d", name, v, count)
		}
	}
	for _, hist := range []string{
		"frame_stage_proxy_seconds",
		"frame_stage_queue_wait_seconds",
		"frame_stage_dispatch_seconds",
		"frame_stage_replicate_seconds",
		"frame_e2e_dispatch_seconds",
	} {
		if v := sampleValue(t, first, hist+"_count", ""); v == 0 {
			t.Errorf("%s_count = 0, want > 0", hist)
		}
		if v := sampleValue(t, first, hist+"_bucket", `le="+Inf"`); v == 0 {
			t.Errorf("%s +Inf bucket = 0, want > 0", hist)
		}
	}
	if v := sampleValue(t, first, "frame_role", `role="primary"`); v != 1 {
		t.Errorf(`frame_role{role="primary"} = %v, want 1`, v)
	}

	// The Backup's scrape sees the replica store filling instead. Replicas
	// leave through the replication ring, so they trail the deliveries.
	waitFor(t, 2*time.Second, "replicas at the backup", func() bool {
		return c.backup.Obs().ReplicasStored.Load() >= count
	})
	backupSamples := scrape(t, c.backup.AdminAddr())
	if v := sampleValue(t, backupSamples, "frame_replicas_stored_total", ""); v < count {
		t.Errorf("backup frame_replicas_stored_total = %v, want >= %d", v, count)
	}

	// Counters are monotone: publish more, scrape again, nothing decreases.
	for i := 0; i < 10; i++ {
		if _, err := pub.Publish(1, []byte("payload-16-bytes")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, "second batch delivered", func() bool {
		return sub.Received(1) == count+10
	})
	second := scrape(t, c.primary.AdminAddr())
	for _, s := range first {
		if !s.Counter {
			continue
		}
		after, ok := obsv.Find(second, s.Name, s.Label)
		if !ok {
			t.Errorf("counter %s{%s} disappeared on re-scrape", s.Name, s.Label)
			continue
		}
		if after.Value < s.Value {
			t.Errorf("counter %s{%s} decreased: %v -> %v", s.Name, s.Label, s.Value, after.Value)
		}
	}
	if before, after := sampleValue(t, first, "frame_publish_total", ""),
		sampleValue(t, second, "frame_publish_total", ""); after != before+10 {
		t.Errorf("frame_publish_total %v -> %v, want +10", before, after)
	}
}

// TestHealthzRoleFlipsOnPromotion scrapes /healthz on the Backup before and
// after a Primary crash: the reported role must flip backup → primary with
// promoted=true once fail-over completes.
func TestHealthzRoleFlipsOnPromotion(t *testing.T) {
	topics := []spec.Topic{lanTopic(1, 5)} // Ni=5 replicates (Proposition 1)
	// A Period longer than the publish phase: until the crash the Backup
	// sends no probe, so the replication frames alone must show the Primary
	// alive. Misses=1 keeps the crash detected within a Period.
	c := startAdminClusterWith(t, topics, failover.Config{
		Period: 500 * time.Millisecond, Timeout: 100 * time.Millisecond, Misses: 1,
	})

	pub, err := client.NewPublisher(client.PublisherOptions{
		Name: "pub", Topics: topics,
		PrimaryAddr: "primary", BackupAddr: "backup",
		Network: c.net, Clock: c.clock,
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	for i := 0; i < 10; i++ {
		if _, err := pub.Publish(1, []byte("payload-16-bytes")); err != nil {
			t.Fatal(err)
		}
	}

	// The backup hears the replicate and prune frames within a beat, and
	// peer_connected reads true with no probe sent.
	waitFor(t, time.Second, "backup sees live primary", func() bool {
		return getHealth(t, c.backup.AdminAddr()).PeerConnected
	})
	h := getHealth(t, c.backup.AdminAddr())
	if h.Role != "backup" || h.Promoted {
		t.Fatalf("pre-failover backup health = %+v, want role=backup promoted=false", h)
	}
	if v := sampleValue(t, scrape(t, c.backup.AdminAddr()), "frame_detector_probes_total", ""); v != 0 {
		t.Errorf("frame_detector_probes_total = %v while replication flowed, want 0: the peer view must come from the frames", v)
	}
	if h := getHealth(t, c.primary.AdminAddr()); h.Role != "primary" {
		t.Fatalf("primary health = %+v, want role=primary", h)
	}

	c.primary.Stop()
	select {
	case <-c.backup.Promoted():
	case <-time.After(2 * time.Second):
		t.Fatal("backup never promoted")
	}

	h = getHealth(t, c.backup.AdminAddr())
	if h.Role != "primary" || !h.Promoted {
		t.Errorf("post-failover backup health = %+v, want role=primary promoted=true", h)
	}
	samples := scrape(t, c.backup.AdminAddr())
	if v := sampleValue(t, samples, "frame_promotions_total", ""); v != 1 {
		t.Errorf("frame_promotions_total = %v, want 1", v)
	}
	if v := sampleValue(t, samples, "frame_role", `role="primary"`); v != 1 {
		t.Errorf(`post-failover frame_role{role="primary"} = %v, want 1`, v)
	}
}

// TestLifecycleTracing registers a tracer on the Primary and checks each
// published message walks the full pipeline in order:
// publish → enqueue → pop → dispatch → ack.
func TestLifecycleTracing(t *testing.T) {
	topics := []spec.Topic{lanTopic(1, 3)}
	c := startAdminCluster(t, topics)

	var mu sync.Mutex
	stages := make(map[uint64][]obsv.Stage) // seq → ordered stages
	c.primary.Obs().SetTracer(func(ev obsv.TraceEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Topic == 1 {
			stages[ev.Seq] = append(stages[ev.Seq], ev.Stage)
		}
	})

	sub, err := client.NewSubscriber(client.SubscriberOptions{
		Name: "sub", Topics: []spec.TopicID{1},
		BrokerAddrs: []string{"primary", "backup"},
		Network:     c.net, Clock: c.clock,
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	pub, err := client.NewPublisher(client.PublisherOptions{
		Name: "pub", Topics: topics,
		PrimaryAddr: "primary", BackupAddr: "backup",
		Network: c.net, Clock: c.clock,
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const count = 5
	for i := 0; i < count; i++ {
		if _, err := pub.Publish(1, []byte("payload-16-bytes")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, "all deliveries", func() bool {
		return sub.Received(1) == count
	})
	c.primary.Obs().SetTracer(nil)

	mu.Lock()
	defer mu.Unlock()
	if len(stages) != count {
		t.Fatalf("traced %d messages, want %d", len(stages), count)
	}
	for seq, seen := range stages {
		var order []obsv.Stage
		for _, s := range seen {
			switch s {
			case obsv.StagePublish, obsv.StageEnqueue, obsv.StagePop,
				obsv.StageDispatch, obsv.StageAck:
				order = append(order, s)
			}
		}
		// A message may be enqueued twice (dispatch + replicate jobs), so
		// check the dispatch-path subsequence rather than exact equality.
		want := []obsv.Stage{obsv.StagePublish, obsv.StageEnqueue, obsv.StagePop,
			obsv.StageDispatch, obsv.StageAck}
		if !hasSubsequence(order, want) {
			t.Errorf("seq %d stages %v missing dispatch lifecycle %v", seq, order, want)
		}
	}
}

func hasSubsequence(have, want []obsv.Stage) bool {
	i := 0
	for _, s := range have {
		if i < len(want) && s == want[i] {
			i++
		}
	}
	return i == len(want)
}
