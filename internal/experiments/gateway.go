// Gateway connection-churn experiment: how many thin clients one gateway
// process sustains while connections churn at a configurable rate.
//
// The broker benchmarking literature is clear that published "clients
// supported" numbers are only credible with a reproducible churn harness,
// so this is a property of the real runtime, not the simulator: a solo
// broker, a real Gateway in front of it, and a population of simulated
// thin clients over the in-process network. The run ramps the population
// to the target, then holds it there for the measurement window while a
// churn loop replaces clients at the target rate (connect + subscribe a
// new client, disconnect an old one) and a paced publisher streams through
// the gateway's forward path. A handful of probe clients subscribe to
// every topic and must receive every published message; their end-to-end
// latency distribution is the delivery p99 the result reports.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
	"repro/internal/wire"
)

// GatewayChurnOptions parameterizes the connection-churn run.
type GatewayChurnOptions struct {
	// Clients is the sustained simulated client population; 0 means 10000.
	Clients int
	// ChurnRate is the target client replacement rate in connects per
	// second during the window; 0 means 600.
	ChurnRate int
	// Topics is the topic count; each bulk client subscribes to one,
	// probes subscribe to all. 0 means 32.
	Topics int
	// Window is the churn measurement window; 0 means 3s.
	Window time.Duration
	// Depth is the gateway's per-client egress ring depth; 0 keeps the
	// gateway default.
	Depth int
	// Probes is how many full-subscription latency probes run; 0 means 4.
	Probes int
	// Interval paces the publisher between frames; 0 means 1ms.
	Interval time.Duration
	// MinChurn fails the run unless the achieved churn reaches this many
	// connects per second: the acceptance gate. 0 means 500; negative
	// disables the gate.
	MinChurn float64
}

func (o GatewayChurnOptions) withDefaults() GatewayChurnOptions {
	if o.Clients == 0 {
		o.Clients = 10000
	}
	if o.ChurnRate == 0 {
		o.ChurnRate = 600
	}
	if o.Topics == 0 {
		o.Topics = 32
	}
	if o.Window == 0 {
		o.Window = 3 * time.Second
	}
	if o.Probes == 0 {
		o.Probes = 4
	}
	if o.Interval == 0 {
		o.Interval = time.Millisecond
	}
	if o.MinChurn == 0 {
		// The acceptance gate: 500 connects/s at the default 600/s target,
		// scaled down proportionally when a smaller target is requested.
		o.MinChurn = 500
		if scaled := float64(o.ChurnRate) * 0.9; scaled < o.MinChurn {
			o.MinChurn = scaled
		}
	}
	return o
}

// GatewayChurnResult is one finished churn run.
type GatewayChurnResult struct {
	Clients   int // target population
	Topics    int
	Window    time.Duration
	Sustained int     // minimum sampled live-session count during the window
	Connects  int     // churn connects completed inside the window
	ChurnRate float64 // achieved connects per second
	Published uint64  // messages published through the gateway
	Delivered uint64  // distinct deliveries per probe (all probes equal)
	P50       time.Duration
	P99       time.Duration
	Shed      uint64 // gateway per-client ring sheds
	Evictions uint64 // gateway client evictions
}

// RunGatewayChurn ramps a thin-client population onto one gateway, churns
// it at the target rate for the window, and reports sustained client
// count, achieved churn rate, and delivery p99. The probes must receive
// every published message — churn is not allowed to cost connected
// clients anything.
func RunGatewayChurn(cfg Config, opts GatewayChurnOptions) (*GatewayChurnResult, error) {
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()

	params := timing.Params{
		DeltaBSEdge:  time.Millisecond,
		DeltaBSCloud: time.Millisecond,
		DeltaBB:      time.Millisecond,
		Failover:     50 * time.Millisecond,
	}
	topics := make([]spec.Topic, opts.Topics)
	ids := make([]spec.TopicID, opts.Topics)
	for i := range topics {
		topics[i] = spec.Topic{
			ID:            spec.TopicID(i + 1),
			Category:      -1,
			Period:        20 * time.Millisecond,
			Deadline:      time.Second,
			LossTolerance: 64,
			Retention:     64,
			Destination:   spec.DestEdge,
			PayloadSize:   64,
		}
		ids[i] = topics[i].ID
	}
	perTopic := int(opts.Window / (opts.Interval * time.Duration(opts.Topics)))
	if perTopic < 10 {
		perTopic = 10
	}
	engineCfg := core.FRAMEConfig(params)
	engineCfg.MessageBufferCap = perTopic + 64

	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	net := transport.NewMem()
	b, err := broker.New(broker.Options{
		Engine:     engineCfg,
		Role:       broker.RolePrimary,
		ListenAddr: "primary",
		Network:    net,
		Clock:      clock,
		Topics:     topics,
		Logger:     quietLogger(),
	})
	if err != nil {
		return nil, err
	}
	b.Start()
	defer b.Stop()

	gw, err := gateway.New(gateway.Options{
		ListenAddr:  "gateway",
		Topics:      topics,
		BrokerAddrs: []string{b.Addr()},
		Network:     net,
		Clock:       clock,
		ClientDepth: opts.Depth,
		Logger:      quietLogger(),
	})
	if err != nil {
		return nil, err
	}
	gw.Start()
	defer gw.Stop()

	// Probes: full-subscription clients whose delivery latencies become
	// the delivery percentiles.
	var lat metrics.LatencyRecorder
	probes := make([]*client.Subscriber, opts.Probes)
	for i := range probes {
		probes[i], err = client.NewSubscriber(client.SubscriberOptions{
			Name:        fmt.Sprintf("probe-%d", i),
			Topics:      ids,
			BrokerAddrs: []string{gw.Addr()},
			Network:     net,
			Clock:       clock,
			Logger:      quietLogger(),
			OnDeliver:   func(d client.Delivery) { lat.Record(d.Latency) },
		})
		if err != nil {
			return nil, err
		}
		defer probes[i].Close()
	}

	// Ramp: bring the bulk population up in parallel. Each bulk client is
	// one session subscribed to one topic with a reader that drains its
	// deliveries — the cheapest honest client (an unread session would
	// just measure the shed policy).
	cfg.progress("gateway: ramping %d clients (%d topics, churn target %d/s)",
		opts.Clients, opts.Topics, opts.ChurnRate)
	bulk := make([]*transport.Conn, opts.Clients)
	const rampWorkers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, rampWorkers)
	for w := 0; w < rampWorkers; w++ {
		lo, hi := w*opts.Clients/rampWorkers, (w+1)*opts.Clients/rampWorkers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				conn, err := connectBulkClient(net, gw.Addr(), i, ids[i%len(ids)])
				if err != nil {
					errCh <- fmt.Errorf("ramp client %d: %w", i, err)
					return
				}
				bulk[i] = conn
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	defer func() {
		for _, c := range bulk {
			if c != nil {
				c.Close()
			}
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); gw.Subscribers() < opts.Clients+opts.Probes; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("gateway registered %d of %d subscriptions", gw.Subscribers(), opts.Clients+opts.Probes)
		}
		time.Sleep(time.Millisecond)
	}
	cfg.progress("gateway: population up (%d sessions); churning for %v", gw.Clients(), opts.Window)

	// Publisher streams through the gateway's forward path for the whole
	// window while the churn loop runs.
	pubErr := make(chan error, 1)
	go func() { pubErr <- publishPaced(net, gw.Addr(), clock, ids, perTopic, opts.Interval) }()

	// Sampler: the sustained client count is the worst moment of the
	// window, not the average.
	sampleStop := make(chan struct{})
	sampleMin := make(chan int, 1)
	go func() {
		minSeen := gw.Clients()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampleStop:
				sampleMin <- minSeen
				return
			case <-tick.C:
				if n := gw.Clients(); n < minSeen {
					minSeen = n
				}
			}
		}
	}()

	// Churn loop: connect-then-disconnect keeps the population at or above
	// target the whole window; dropped ticks (connects slower than the
	// target rate) show up as a lower achieved rate and trip the gate.
	connects := 0
	next := opts.Clients
	pos := 0
	ticker := time.NewTicker(time.Second / time.Duration(opts.ChurnRate))
	winEnd := time.Now().Add(opts.Window)
	for time.Now().Before(winEnd) {
		<-ticker.C
		conn, err := connectBulkClient(net, gw.Addr(), next, ids[next%len(ids)])
		if err != nil {
			ticker.Stop()
			return nil, fmt.Errorf("churn connect %d: %w", next, err)
		}
		old := bulk[pos]
		bulk[pos] = conn
		old.Close()
		pos = (pos + 1) % len(bulk)
		next++
		connects++
	}
	ticker.Stop()
	close(sampleStop)
	sustained := <-sampleMin
	if err := <-pubErr; err != nil {
		return nil, fmt.Errorf("publish: %w", err)
	}

	// Drain: every probe must end with the complete stream.
	total := uint64(opts.Topics * perTopic)
	for deadline := time.Now().Add(10 * time.Second); ; {
		done := true
		for _, p := range probes {
			if received(p, ids) < total {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("probe delivery incomplete: got %d of %d under churn", received(probes[0], ids), total)
		}
		time.Sleep(time.Millisecond)
	}

	es := gw.EgressStats()
	res := &GatewayChurnResult{
		Clients:   opts.Clients,
		Topics:    opts.Topics,
		Window:    opts.Window,
		Sustained: sustained,
		Connects:  connects,
		ChurnRate: float64(connects) / opts.Window.Seconds(),
		Published: total,
		Delivered: received(probes[0], ids),
		P50:       lat.Percentile(0.50),
		P99:       lat.Percentile(0.99),
		Shed:      es.Shed,
		Evictions: gw.Evictions(),
	}
	if opts.MinChurn > 0 && res.ChurnRate < opts.MinChurn {
		return res, fmt.Errorf("achieved churn %.0f connects/s below the %.0f gate", res.ChurnRate, opts.MinChurn)
	}
	return res, nil
}

// publishPaced publishes every message of the owned topics over one raw
// connection, sleeping between frames the way a Ti-driven publisher would.
func publishPaced(net transport.Network, addr string, clock func() time.Duration, own []spec.TopicID, perTopic int, interval time.Duration) error {
	nc, err := net.Dial(addr)
	if err != nil {
		return err
	}
	conn := transport.NewConn(nc)
	defer conn.Close()
	if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RolePublisher, Name: "gateway-pub"}); err != nil {
		return err
	}
	payload := make([]byte, 64)
	for seq := uint64(1); seq <= uint64(perTopic); seq++ {
		for _, id := range own {
			f := &wire.Frame{Type: wire.TypePublish, Msg: wire.Message{
				Topic: id, Seq: seq, Created: clock(), Payload: payload,
			}}
			if err := conn.Send(f); err != nil {
				return err
			}
			time.Sleep(interval)
		}
	}
	return nil
}

// connectBulkClient opens one simulated thin client: connect, Hello,
// Subscribe to its one topic, and a goroutine that drains deliveries.
func connectBulkClient(net transport.Network, addr string, idx int, topic spec.TopicID) (*transport.Conn, error) {
	nc, err := net.Dial(addr)
	if err != nil {
		return nil, err
	}
	conn := transport.NewConn(nc)
	if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RoleSubscriber, Name: fmt.Sprintf("bulk-%d", idx)}); err != nil {
		conn.Close()
		return nil, err
	}
	if err := conn.Send(&wire.Frame{Type: wire.TypeSubscribe, Topics: []spec.TopicID{topic}}); err != nil {
		conn.Close()
		return nil, err
	}
	go func() {
		f := transport.GetFrame()
		defer transport.PutFrame(f)
		for conn.RecvInto(f) == nil {
		}
	}()
	return conn, nil
}

// Format renders the run like the other experiments' tables.
func (r *GatewayChurnResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Gateway connection churn: %d clients, %d topics, %v window\n", r.Clients, r.Topics, r.Window)
	fmt.Fprintf(&sb, "%10s  %10s  %12s  %10s  %10s  %8s  %8s  %6s  %6s\n",
		"sustained", "connects", "churn/sec", "published", "delivered", "p50", "p99", "shed", "evict")
	fmt.Fprintf(&sb, "%10d  %10d  %12.0f  %10d  %10d  %8v  %8v  %6d  %6d\n",
		r.Sustained, r.Connects, r.ChurnRate, r.Published, r.Delivered,
		r.P50.Round(10*time.Microsecond), r.P99.Round(10*time.Microsecond), r.Shed, r.Evictions)
	return strings.TrimRight(sb.String(), "\n")
}

// WriteCSV stores the run as one row.
func (r *GatewayChurnResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "clients,topics,window_seconds,sustained,connects,churn_per_sec,published,delivered,p50_ms,p99_ms,shed,evictions"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%d,%d,%.3f,%d,%d,%.1f,%d,%d,%.3f,%.3f,%d,%d\n",
		r.Clients, r.Topics, r.Window.Seconds(), r.Sustained, r.Connects, r.ChurnRate,
		r.Published, r.Delivered,
		float64(r.P50.Microseconds())/1000, float64(r.P99.Microseconds())/1000,
		r.Shed, r.Evictions)
	return err
}
