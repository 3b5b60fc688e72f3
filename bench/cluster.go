package main

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
)

// warnLog is the slog handler brokers and clients log to: it keeps the count
// and the first few messages at Warn and above while armed, and drops the
// rest, so a run's stdout stays machine-readable and tear-down noise
// (links closing) is not mistaken for a fault.
type warnLog struct {
	armed atomic.Bool
	count atomic.Int64
	mu    sync.Mutex
	first []string
}

func (h *warnLog) Enabled(_ context.Context, l slog.Level) bool {
	return l >= slog.LevelWarn && h.armed.Load()
}

func (h *warnLog) Handle(_ context.Context, r slog.Record) error {
	h.count.Add(1)
	h.mu.Lock()
	if len(h.first) < 3 {
		msg := r.Message
		r.Attrs(func(a slog.Attr) bool { msg += " " + a.String(); return true })
		h.first = append(h.first, msg)
	}
	h.mu.Unlock()
	return nil
}

func (h *warnLog) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *warnLog) WithGroup(string) slog.Handler      { return h }

// env is what a cluster is built from besides the workload.
type env struct {
	clock  clocksync.Clock
	log    *warnLog
	outDir string
	// brokerNet and subNet default to plain loopback TCP; the self-test puts
	// a fault injector between them.
	brokerNet, subNet transport.Network
	onDeliver         func(sub int, d client.Delivery)
}

// cluster is one running system under test: brokers in this process,
// reached only over loopback TCP through the client package.
type cluster struct {
	primary, backup *broker.Broker
	pubs            []*client.Publisher
	subs            []*client.Subscriber
	walDir          string
}

const loopbackAny = "127.0.0.1:0"

// bringUp starts the brokers, connects every subscriber and publisher, and
// returns once every subscription is registered, so that the first message
// published reaches every subscriber.
func bringUp(w *workload, e env) (*cluster, error) {
	c := &cluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	logger := slog.New(e.log)
	tcp := &transport.TCP{DialTimeout: 5 * time.Second}
	if e.brokerNet == nil {
		e.brokerNet = tcp
	}
	if e.subNet == nil {
		e.subNet = tcp
	}

	opts := broker.Options{
		Engine:     core.FRAMEConfig(timing.PaperParams()),
		Role:       broker.RolePrimary,
		ListenAddr: loopbackAny,
		AdminAddr:  loopbackAny,
		Network:    e.brokerNet,
		Clock:      e.clock,
		Topics:     w.topics,
		Logger:     logger,
	}
	w.tune(&opts)
	if opts.Durable {
		if err := os.MkdirAll(e.outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(e.outDir, "wal-")
		if err != nil {
			return nil, err
		}
		c.walDir, opts.LogDir = dir, dir
	}
	if w.backup {
		// Both brokers bind ephemeral ports: the placeholder keeps the
		// Primary's replication duty until the Backup's address is known.
		opts.PeerAddr = "pending"
	}
	var err error
	if c.primary, err = broker.New(opts); err != nil {
		return nil, fmt.Errorf("primary: %w", err)
	}
	brokers := []string{c.primary.Addr()}
	if w.backup {
		bopts := opts
		bopts.Role, bopts.PeerAddr = broker.RoleBackup, c.primary.Addr()
		if c.backup, err = broker.New(bopts); err != nil {
			return nil, fmt.Errorf("backup: %w", err)
		}
		c.primary.SetPeerAddr(c.backup.Addr())
		c.backup.Start()
		brokers = append(brokers, c.backup.Addr())
	}
	c.primary.Start()

	ids := make([]spec.TopicID, len(w.topics))
	for i, t := range w.topics {
		ids[i] = t.ID
	}
	for i := 0; i < w.subs; i++ {
		i := i
		s, err := client.NewSubscriber(client.SubscriberOptions{
			Name:        fmt.Sprintf("sub%d", i),
			Topics:      ids,
			BrokerAddrs: brokers,
			Network:     e.subNet,
			Clock:       e.clock,
			OnDeliver:   func(d client.Delivery) { e.onDeliver(i, d) },
			Logger:      logger,
		})
		if err != nil {
			return nil, err
		}
		c.subs = append(c.subs, s)
	}
	conns := 1
	if w.loop == ackLoop {
		conns = w.conns
	}
	per := len(w.topics) / conns
	for i := 0; i < conns; i++ {
		po := client.PublisherOptions{
			Name:        fmt.Sprintf("pub%d", i),
			Topics:      w.topics[i*per : (i+1)*per],
			PrimaryAddr: c.primary.Addr(),
			Network:     tcp,
			Clock:       e.clock,
			DurableAcks: w.loop == ackLoop,
			Logger:      logger,
		}
		if w.backup {
			po.BackupAddr = c.backup.Addr()
		}
		p, err := client.NewPublisher(po)
		if err != nil {
			return nil, err
		}
		c.pubs = append(c.pubs, p)
	}

	deadline := time.Now().Add(10 * time.Second)
	for !c.subscribed(w.subs) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("subscriptions not registered within 10 s")
		}
		runtime.Gosched()
	}
	ok = true
	return c, nil
}

func (c *cluster) subscribed(n int) bool {
	if c.primary.Health().EgressSubs != n {
		return false
	}
	return c.backup == nil || c.backup.Health().EgressSubs == n
}

// close stops every client and broker and removes the durable log. It
// returns when their goroutines have ended.
func (c *cluster) close() {
	for _, p := range c.pubs {
		p.Close()
	}
	for _, s := range c.subs {
		s.Close()
	}
	// The Backup goes first so that it does not promote itself on the
	// Primary's exit.
	if c.backup != nil {
		c.backup.Stop()
	}
	if c.primary != nil {
		c.primary.Stop()
	}
	if c.walDir != "" {
		os.RemoveAll(c.walDir)
	}
}

// scrape reads a broker's admin /metrics into name{label} -> value. Lane
// intake stalls and the group-commit counters are public only there.
func scrape(addr string) (map[string]float64, error) {
	// One connection per scrape: nothing of the benchmark's own stays open
	// against the broker while a window is measured.
	client := http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	samples, err := obsv.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.Name] += s.Value // sums a family over its labels (lanes)
	}
	return out, nil
}
