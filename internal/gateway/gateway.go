// Package gateway implements FRAME's connection plane: a service that
// terminates large numbers of thin client connections and multiplexes all
// of them onto a small, fixed set of broker sessions.
//
// The broker pair (the durability plane) and the dispatch lanes (the
// fanout plane) scale with message rate, but before this package every
// subscriber was a raw TCP session owned by a broker, so the connection
// count — file descriptors, egress writer goroutines, per-session state —
// was the scaling ceiling. The gateway splits that off: clients speak the
// ordinary length-prefixed wire protocol to the gateway, the gateway holds
// one upstream client.Subscriber with one session per broker (the
// Directory's table in cluster mode), and fan-out to clients reuses the
// egress rings, one bounded ring per end client with the same Li-aware
// shed/evict policy. A wedged phone fills its own 64-frame ring and is
// shed or evicted by its topic's loss tolerance; the broker socket never
// sees backpressure from it.
//
// Publishes from thin clients forward upstream unchanged — the gateway
// preserves the client-assigned Seq and Created stamps, so end-to-end
// semantics (dedup, FIFO-per-topic, loss accounting) are exactly those of
// a direct broker session. WrongShard redirects on the forward path kick
// a routing-table refresh just like cluster.Publisher. A thin client is a
// client.Subscriber whose one address is the gateway's: it redials a lost
// session, so a gateway restart costs it a gap, not its subscription.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/clocksync"
	"repro/internal/cluster"
	"repro/internal/obsv"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DefaultClientDepth is the per-client egress ring capacity. It is much
// smaller than the broker's default: at ~1M clients per gateway the rings
// dominate memory, and a thin client that falls 64 frames behind is
// already into its topic's shed budget.
const DefaultClientDepth = 64

// Options configures a Gateway.
type Options struct {
	// ListenAddr is the client-facing listen address.
	ListenAddr string
	// Topics is the full topic table the gateway serves. The upstream
	// session subscribes to all of them; per-client delivery is filtered
	// locally from each client's Subscribe frame.
	Topics []spec.Topic
	// DirectoryAddr selects cluster mode: routes are fetched from the
	// routing plane and one upstream session is held per shard pair.
	// Mutually exclusive with BrokerAddrs.
	DirectoryAddr string
	// BrokerAddrs selects pair mode: the Primary and (optionally) Backup
	// of a single broker pair. Mutually exclusive with DirectoryAddr.
	BrokerAddrs []string
	// Network supplies listening and dialing.
	Network transport.Network
	// Clock is the synchronized timebase; nil means wall time since New.
	Clock clocksync.Clock
	// Name identifies the gateway in upstream Hello frames.
	Name string
	// ClientDepth is the per-client egress ring capacity
	// (DefaultClientDepth when <= 0).
	ClientDepth int
	// ClientWriteTimeout bounds each flush write to a client socket.
	ClientWriteTimeout time.Duration
	// Flushers sizes the shared flusher pool draining the per-client rings:
	// zero means transport.DefaultFlushers; negative is an error.
	Flushers int
	// AdminAddr, when non-empty, serves /metrics, /healthz, and pprof.
	AdminAddr string
	// Logger receives operational events; nil means slog.Default.
	Logger *slog.Logger
}

// Gateway terminates thin client sessions and bridges them to brokers.
type Gateway struct {
	opts  Options
	log   *slog.Logger
	clock clocksync.Clock

	ln      net.Listener
	admin   *obsv.Admin
	started time.Time

	// li maps each served topic to its loss tolerance for the per-client
	// shed/evict budget; unknown topics are best-effort.
	li map[spec.TopicID]int

	// router is nil in pair mode; up is the one upstream subscriber.
	router *cluster.Router
	up     *client.Subscriber

	// subs indexes the client rings by topic. A ring attaches on a
	// client's first Subscribe frame: publisher-only and probe sessions
	// never pay for one. clients counts live sessions, subscribed or not.
	subs    *transport.Subscribers
	clients atomic.Int64

	// fanMu serializes fanout over its scratch copy of a topic's rings.
	fanMu    sync.Mutex
	fanRings []*transport.Egress

	// pubMu guards the lazily-dialed upstream publish links, keyed by
	// broker address.
	pubMu    sync.Mutex
	pubLinks map[string]*transport.Conn

	meter  transport.Meter
	egress transport.EgressMeter
	// pool is the shared flusher set the client rings drain through; it
	// retires whichever are still open when the gateway stops.
	pool *transport.FlusherPool

	delivered   atomic.Uint64 // distinct upstream deliveries fanned out
	forwarded   atomic.Uint64 // client publish frames forwarded upstream
	forwardErrs atomic.Uint64 // publishes dropped after exhausting routes
	redirects   atomic.Uint64 // WrongShard replies seen on publish links
	evictions   atomic.Uint64 // clients evicted past their Li budget

	kick   chan struct{} // coalesced refresh requests (capacity 1)
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New binds the listener, opens the upstream broker session(s), and
// returns a gateway ready to Start.
func New(opts Options) (*Gateway, error) {
	if opts.Network == nil {
		return nil, errors.New("gateway: nil network")
	}
	if len(opts.Topics) == 0 {
		return nil, errors.New("gateway: no topics")
	}
	if (opts.DirectoryAddr == "") == (len(opts.BrokerAddrs) == 0) {
		return nil, errors.New("gateway: exactly one of DirectoryAddr or BrokerAddrs is required")
	}
	if opts.Clock == nil {
		epoch := time.Now()
		opts.Clock = func() time.Duration { return time.Since(epoch) }
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.Name == "" {
		opts.Name = "gateway"
	}
	if opts.ClientDepth <= 0 {
		opts.ClientDepth = DefaultClientDepth
	}
	if opts.Flushers < 0 {
		return nil, fmt.Errorf("gateway: negative flushers %d", opts.Flushers)
	}

	g := &Gateway{
		opts:     opts,
		log:      opts.Logger.With("component", "gateway", "name", opts.Name),
		clock:    opts.Clock,
		started:  time.Now(),
		li:       make(map[spec.TopicID]int, len(opts.Topics)),
		pubLinks: make(map[string]*transport.Conn),
		kick:     make(chan struct{}, 1),
	}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	ids := make([]spec.TopicID, 0, len(opts.Topics))
	for _, t := range opts.Topics {
		g.li[t.ID] = t.LossTolerance
		ids = append(ids, t.ID)
	}

	ln, err := opts.Network.Listen(opts.ListenAddr)
	if err != nil {
		g.cancel()
		return nil, fmt.Errorf("gateway: listen: %w", err)
	}
	g.ln = ln

	// fanout runs from the upstream subscriber's first delivery on.
	g.pool = transport.NewFlusherPool(transport.FlusherPoolConfig{Flushers: opts.Flushers})
	g.subs = transport.NewSubscribers(transport.EgressConfig{
		Depth: opts.ClientDepth,
		Shed:  true,
		Stall: opts.ClientWriteTimeout,
		Meter: &g.egress,
		Pool:  g.pool,
	})

	// One upstream subscriber with a link to every broker carries every
	// topic; its one delivery log dedups across the links, so fanout sees
	// each message exactly once.
	addrs := opts.BrokerAddrs
	if opts.DirectoryAddr != "" {
		g.router, err = cluster.NewRouter(cluster.RouterOptions{
			DirectoryAddr: opts.DirectoryAddr,
			Network:       opts.Network,
			Logger:        opts.Logger,
		})
		if err == nil {
			addrs = g.router.Table().Addrs()
		}
	}
	if err == nil {
		g.up, err = client.NewSubscriber(client.SubscriberOptions{
			Name:        opts.Name + "-up",
			Topics:      ids,
			BrokerAddrs: addrs,
			Network:     opts.Network,
			Clock:       opts.Clock,
			OnDeliver:   g.fanout,
			Logger:      opts.Logger,
		})
	}
	if err != nil {
		g.pool.Close()
		ln.Close()
		g.cancel()
		return nil, fmt.Errorf("gateway: upstream subscribe: %w", err)
	}

	if opts.AdminAddr != "" {
		g.admin, err = obsv.NewAdmin(opts.AdminAddr, obsv.NewBrokerMetrics(), g.Health, g.scrapeGauges)
		if err != nil {
			g.up.Close()
			g.pool.Close()
			ln.Close()
			g.cancel()
			return nil, err
		}
	}
	return g, nil
}

// Addr returns the bound client-facing listen address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// AdminAddr returns the bound admin address, empty if none.
func (g *Gateway) AdminAddr() string {
	if g.admin == nil {
		return ""
	}
	return g.admin.Addr()
}

// Start launches the accept loop, the routing-refresh worker, and the
// admin endpoint.
func (g *Gateway) Start() {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.acceptLoop()
	}()
	if g.router != nil {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.refreshLoop()
		}()
	}
	if g.admin != nil {
		go g.admin.Serve()
	}
}

// Stop tears the gateway down: no new clients, every client ring closed
// and drained, upstream sessions and publish links closed.
func (g *Gateway) Stop() {
	if !g.closed.CompareAndSwap(false, true) {
		return
	}
	g.cancel() // serveClient's AfterFunc closes every client conn
	g.ln.Close()
	// The pool retires every client ring still open, and a ring attached
	// after it starts closed.
	g.pool.Close()
	g.up.Close()
	g.closePubLinks()
	if g.admin != nil {
		g.admin.Close()
	}
	g.wg.Wait()
}

func (g *Gateway) closePubLinks() {
	g.pubMu.Lock()
	links := make([]*transport.Conn, 0, len(g.pubLinks))
	for _, c := range g.pubLinks {
		links = append(links, c)
	}
	g.pubLinks = make(map[string]*transport.Conn)
	g.pubMu.Unlock()
	for _, c := range links {
		c.Close()
	}
}

func (g *Gateway) acceptLoop() {
	for {
		nc, err := g.ln.Accept()
		if err != nil {
			if g.ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				g.log.Warn("accept failed", "err", err)
			}
			return
		}
		conn := transport.NewConn(nc)
		conn.SetMeter(&g.meter)
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.serveClient(conn)
		}()
	}
}

// serveClient runs one thin client session read loop on a pooled frame,
// exactly like broker.serveConn: unregister before retiring the ring so no
// new frames enqueue, and close the conn whether or not it had one.
func (g *Gateway) serveClient(conn *transport.Conn) {
	g.clients.Add(1)
	defer func() {
		transport.Retire(g.subs.Remove(conn))
		conn.Close()
		g.clients.Add(-1)
	}()
	stop := context.AfterFunc(g.ctx, func() { conn.Close() })
	defer stop()
	f := transport.GetFrame()
	defer transport.PutFrame(f)
	for {
		if err := conn.RecvInto(f); err != nil {
			return
		}
		if err := g.handleClientFrame(conn, f); err != nil {
			g.log.Warn("client session error", "err", err, "type", f.Type.String())
			return
		}
	}
}

// ErrNotClientFrame rejects frame types that are not part of the
// client-facing protocol subset (broker-internal replication, routing, and
// dispatch frames arriving on a client session are protocol violations).
var ErrNotClientFrame = errors.New("gateway: frame type not allowed on a client session")

// checkClientType is the single gate deciding which frame types a thin
// client may send; handleClientFrame and DecodeClientFrame share it.
func checkClientType(t wire.Type) error {
	switch t {
	case wire.TypeHello, wire.TypeSubscribe, wire.TypePublish, wire.TypeResend,
		wire.TypePoll, wire.TypeTimeReq, wire.TypePollReply, wire.TypeTimeResp:
		return nil
	default:
		return fmt.Errorf("%w: %v", ErrNotClientFrame, t)
	}
}

// DecodeClientFrame decodes one length-stripped frame body exactly as the
// gateway's client read path does (copying decode — a client session's
// buffers recycle under it) and validates the type against the
// client-facing protocol subset. It is the fuzz surface for the client
// parser: FuzzGatewayDecode drives it with the wire corpus plus garbage.
func DecodeClientFrame(buf []byte, f *wire.Frame) error {
	if err := wire.DecodeInto(buf, f, wire.ModeCopy); err != nil {
		return err
	}
	return checkClientType(f.Type)
}

func (g *Gateway) handleClientFrame(conn *transport.Conn, f *wire.Frame) error {
	if err := checkClientType(f.Type); err != nil {
		return err
	}
	switch f.Type {
	case wire.TypeSubscribe:
		g.subs.Subscribe(conn, f.Topics)
		return nil
	case wire.TypePublish, wire.TypeResend:
		return g.forwardPublish(f)
	case wire.TypePoll:
		return conn.Send(&wire.Frame{Type: wire.TypePollReply, Nonce: f.Nonce})
	case wire.TypeTimeReq:
		// Serving clock sync locally keeps thin clients one hop from a
		// timebase even when brokers are unreachable.
		return clocksync.Respond(conn, g.clock, f)
	default: // Hello (roles are implicit), PollReply, TimeResp: harmless
		return nil
	}
}

// fanout runs for every distinct upstream delivery: encode the dispatch
// body once, then enqueue the same refcounted bytes onto every interested
// client's ring. Enqueue never blocks; a full ring sheds within the
// topic's Li budget and evicts past it, so one wedged client costs its
// own ring slots and nothing upstream. The Dispatched stamp is re-taken
// here — the gateway is the dispatching hop for its clients — while Seq
// and Created pass through untouched, preserving end-to-end accounting.
func (g *Gateway) fanout(d client.Delivery) {
	g.delivered.Add(1)
	g.fanMu.Lock()
	defer g.fanMu.Unlock()
	rings := g.subs.Rings(d.Msg.Topic, g.fanRings)
	g.fanRings = rings
	if len(rings) == 0 {
		return
	}
	li, ok := g.li[d.Msg.Topic]
	if !ok {
		li = spec.LossUnbounded
	}
	fb := wire.GetFrameBuf(wire.MsgHeaderLen + len(d.Msg.Payload) + wire.MsgTrailerLen)
	fb.B = wire.AppendDispatchBody(fb.B, &d.Msg, g.clock())
	fb.RetainN(len(rings)) // the rings own one reference per client
	for _, eg := range rings {
		if eg.Enqueue(fb, d.Msg.Topic, li) == transport.EnqueueEvicted {
			g.evictions.Add(1)
			g.log.Warn("client evicted: consecutive sheds exceeded topic loss tolerance",
				"addr", eg.Conn().RemoteAddr(), "topic", d.Msg.Topic, "li", li)
		}
	}
	fb.Release() // drop the fanout's own reference
}

// routeAddrs returns the candidate broker addresses for a topic's publish,
// Primary first.
func (g *Gateway) routeAddrs(id spec.TopicID) [2]string {
	if g.router == nil {
		var out [2]string
		copy(out[:], g.opts.BrokerAddrs)
		return out
	}
	t := g.router.Table()
	if len(t.Shards) == 0 {
		return [2]string{}
	}
	e := t.Shards[cluster.ShardOf(id, len(t.Shards))]
	return [2]string{e.Primary, e.Backup}
}

// forwardPublish relays a client's Publish/Resend frame to the topic's
// broker pair unchanged. A send failure closes the link and falls through
// to the pair's other member; when every route fails the frame is counted
// and dropped rather than killing the client session — the client's Ni
// retention plus its topic's Li budget cover exactly this window, the same
// contract a direct publisher has during fail-over.
func (g *Gateway) forwardPublish(f *wire.Frame) error {
	addrs := g.routeAddrs(f.Msg.Topic)
	for _, addr := range addrs {
		if addr == "" {
			continue
		}
		conn, err := g.pubLink(addr)
		if err != nil {
			g.log.Warn("publish link dial failed", "addr", addr, "err", err)
			continue
		}
		// Send, not an uplink ring as in client.Publisher: the fall-through
		// below needs this frame's own write error, which a ring reports
		// only to the next frame. The frame still leaves in one write.
		if err := conn.Send(f); err != nil {
			g.dropPubLink(addr, conn)
			continue
		}
		g.forwarded.Add(1)
		return nil
	}
	g.forwardErrs.Add(1)
	return nil
}

// pubLink returns the shared upstream publish connection for addr, dialing
// and registering it on first use. Each link runs a reader goroutine that
// watches for WrongShard redirects and turns them into coalesced routing
// refreshes — the cluster.Publisher pattern, shared across all clients.
func (g *Gateway) pubLink(addr string) (*transport.Conn, error) {
	g.pubMu.Lock()
	defer g.pubMu.Unlock()
	if conn, ok := g.pubLinks[addr]; ok {
		return conn, nil
	}
	if g.ctx.Err() != nil {
		return nil, g.ctx.Err()
	}
	nc, err := g.opts.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	conn := transport.NewConn(nc)
	conn.SetMeter(&g.meter)
	if err := conn.Send(&wire.Frame{Type: wire.TypeHello, Role: wire.RolePublisher, Name: g.opts.Name + "-pub"}); err != nil {
		conn.Close()
		return nil, err
	}
	g.pubLinks[addr] = conn
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.pubLinkReader(addr, conn)
	}()
	return conn, nil
}

func (g *Gateway) dropPubLink(addr string, conn *transport.Conn) {
	g.pubMu.Lock()
	if g.pubLinks[addr] == conn {
		delete(g.pubLinks, addr)
	}
	g.pubMu.Unlock()
	conn.Close()
}

// pubLinkReader drains a publish link. The only meaningful inbound frame
// is a WrongShard redirect: count it and kick the refresher without ever
// blocking the publish path.
func (g *Gateway) pubLinkReader(addr string, conn *transport.Conn) {
	stop := context.AfterFunc(g.ctx, func() { conn.Close() })
	defer stop()
	f := transport.GetFrame()
	defer transport.PutFrame(f)
	for {
		if err := conn.RecvInto(f); err != nil {
			return
		}
		if f.Type == wire.TypeWrongShard {
			g.redirects.Add(1)
			select {
			case g.kick <- struct{}{}:
			default: // a refresh is already pending; coalesce
			}
		}
	}
}

// refreshLoop serializes routing-table refreshes behind the kick channel
// so a burst of redirects costs one directory round trip.
func (g *Gateway) refreshLoop() {
	for {
		select {
		case <-g.ctx.Done():
			return
		case <-g.kick:
			if _, err := g.router.Refresh(); err != nil {
				g.log.Warn("routing refresh failed", "err", err)
			}
		}
	}
}

// Clients returns the number of live client sessions (subscribed or not).
func (g *Gateway) Clients() int { return int(g.clients.Load()) }

// Subscribers returns the number of client sessions with an egress ring.
func (g *Gateway) Subscribers() int { return g.subs.Len() }

// EgressStats snapshots the aggregate per-client ring counters.
func (g *Gateway) EgressStats() transport.EgressStats { return g.egress.Snapshot() }

// Delivered returns distinct upstream deliveries fanned out so far.
func (g *Gateway) Delivered() uint64 { return g.delivered.Load() }

// Forwarded returns client publishes relayed upstream so far.
func (g *Gateway) Forwarded() uint64 { return g.forwarded.Load() }

// ForwardErrs returns client publishes dropped after exhausting routes.
func (g *Gateway) ForwardErrs() uint64 { return g.forwardErrs.Load() }

// Redirects returns WrongShard redirects observed on publish links.
func (g *Gateway) Redirects() uint64 { return g.redirects.Load() }

// Evictions returns clients evicted for exceeding a topic's Li budget.
func (g *Gateway) Evictions() uint64 { return g.evictions.Load() }

// upstreamDesc names the upstream plane for health reports.
func (g *Gateway) upstreamDesc() string {
	if g.opts.DirectoryAddr != "" {
		return "directory:" + g.opts.DirectoryAddr
	}
	if len(g.opts.BrokerAddrs) > 0 {
		return g.opts.BrokerAddrs[0]
	}
	return ""
}

// Health reports liveness in the broker health shape so existing probes
// and dashboards work unchanged: EgressSubs counts subscribed clients,
// the egress counters aggregate the per-client rings.
func (g *Gateway) Health() obsv.Health {
	es := g.egress.Snapshot()
	return obsv.Health{
		Role:            "gateway",
		Addr:            g.Addr(),
		PeerAddr:        g.upstreamDesc(),
		PeerConnected:   true,
		UptimeSeconds:   time.Since(g.started).Seconds(),
		EgressQueued:    g.subs.Queued(),
		EgressSubs:      g.subs.Len(),
		EgressShed:      es.Shed,
		EgressEvictions: es.Evictions,
		EgressWriteErrs: es.WriteErrs,
	}
}

func (g *Gateway) scrapeGauges() []obsv.Sample {
	es := g.egress.Snapshot()
	samples := []obsv.Sample{
		{Name: "frame_role", Label: `role="gateway"`, Value: 1,
			Help: "Current fault-tolerance role (1 for the active label)."},
		{Name: "frame_uptime_seconds", Value: time.Since(g.started).Seconds(),
			Help: "Wall time since the gateway was created."},
		{Name: "frame_gateway_clients", Value: float64(g.Clients()),
			Help: "Live thin client sessions."},
		{Name: "frame_gateway_subscribers", Value: float64(g.subs.Len()),
			Help: "Client sessions with an attached egress ring."},
		{Name: "frame_gateway_delivered_total", Counter: true, Value: float64(g.delivered.Load()),
			Help: "Distinct upstream deliveries fanned out to client rings."},
		{Name: "frame_gateway_forwarded_total", Counter: true, Value: float64(g.forwarded.Load()),
			Help: "Client publish frames forwarded to brokers."},
		{Name: "frame_gateway_forward_errors_total", Counter: true, Value: float64(g.forwardErrs.Load()),
			Help: "Client publishes dropped after every candidate route failed."},
		{Name: "frame_gateway_redirects_total", Counter: true, Value: float64(g.redirects.Load()),
			Help: "WrongShard redirects observed on upstream publish links."},
		{Name: "frame_gateway_egress_enqueued_total", Counter: true, Value: float64(es.Enqueued),
			Help: "Frames accepted into per-client egress rings."},
		{Name: "frame_gateway_egress_flushed_total", Counter: true, Value: float64(es.Flushed),
			Help: "Frames written to client sockets by egress writers."},
		{Name: "frame_gateway_egress_batches_total", Counter: true, Value: float64(es.Batches),
			Help: "Vectored client writes issued (frames per syscall = flushed/batches)."},
		{Name: "frame_gateway_egress_shed_total", Counter: true, Value: float64(es.Shed),
			Help: "Frames dropped by the per-client Li-aware shed policy."},
		{Name: "frame_gateway_egress_evictions_total", Counter: true, Value: float64(es.Evictions),
			Help: "Clients evicted for exceeding a topic's loss tolerance in consecutive drops."},
		{Name: "frame_gateway_egress_stalls_total", Counter: true, Value: float64(es.Stalls),
			Help: "Client egress writes failed by the write-stall deadline."},
		{Name: "frame_gateway_egress_write_errors_total", Counter: true, Value: float64(es.WriteErrs),
			Help: "Failed client egress flush writes (stalls included)."},
		{Name: "frame_gateway_egress_queued", Value: float64(g.subs.Queued()),
			Help: "Frames currently queued across per-client egress rings."},
		{Name: "frame_transport_frames_sent_total", Counter: true, Value: float64(g.meter.FramesSent.Load()),
			Help: "Wire frames sent on gateway-owned connections."},
		{Name: "frame_transport_bytes_sent_total", Counter: true, Value: float64(g.meter.BytesSent.Load()),
			Help: "Wire bytes sent on gateway-owned connections."},
		{Name: "frame_transport_frames_recv_total", Counter: true, Value: float64(g.meter.FramesRecv.Load()),
			Help: "Wire frames received on gateway-owned connections."},
		{Name: "frame_transport_bytes_recv_total", Counter: true, Value: float64(g.meter.BytesRecv.Load()),
			Help: "Wire bytes received on gateway-owned connections."},
	}
	return append(samples,
		obsv.Sample{Name: "frame_egress_flushers", Value: float64(g.pool.Size()),
			Help: "Shared egress flusher goroutines."},
		obsv.Sample{Name: "frame_egress_handoffs_total", Counter: true,
			Value: float64(g.pool.Handoffs()), Help: "Client writes handed to their own goroutine after 2 ms."},
		obsv.Sample{Name: "frame_egress_write_syscalls_total", Counter: true,
			Value: float64(es.WriteSyscalls), Help: "Vectored writes spent writing client egress frames."},
	)
}
