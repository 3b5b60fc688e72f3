// The cluster routing plane: an epoch-versioned table of shard ownership
// served by a Directory, and a client-side Router that caches it.
//
// The table is tiny (one address pair per shard) and changes rarely — on a
// promotion or an operator resize — so the plane is deliberately a cache
// hierarchy, not a consensus system: the Directory holds the authoritative
// copy, clients work from cached snapshots, and staleness is detected in
// band by the data plane itself (a broker answers a misrouted publish with
// a WrongShard redirect carrying its current epoch). A partitioned
// Directory therefore never stalls traffic: cached routes keep working,
// and the cache catches up when the plane heals.
package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Table is one epoch's routing state: Shards[i] holds shard i's pair, the
// current Primary first. Epochs start at 1 and bump on every mutation.
type Table struct {
	Epoch  uint64
	Shards []wire.ShardEntry
}

// ShardFor returns the index of the shard owning the topic.
func (t Table) ShardFor(id spec.TopicID) int { return ShardOf(id, len(t.Shards)) }

// Addrs flattens the table into every broker address a subscriber holds a
// link to: each shard's Primary and its Backup, which a promotion empties.
func (t Table) Addrs() []string {
	var addrs []string
	for _, e := range t.Shards {
		addrs = append(addrs, e.Primary)
		if e.Backup != "" {
			addrs = append(addrs, e.Backup)
		}
	}
	return addrs
}

// clone returns a deep copy (the entries are value types).
func (t Table) clone() Table {
	return Table{Epoch: t.Epoch, Shards: append([]wire.ShardEntry(nil), t.Shards...)}
}

// DirectoryOptions configures the routing-plane endpoint.
type DirectoryOptions struct {
	// ListenAddr is where clients fetch the table.
	ListenAddr string
	// Network supplies the listener.
	Network transport.Network
	// Shards is the initial table (epoch 1): one entry per shard.
	Shards []wire.ShardEntry
	// Logger receives operational events; nil means slog.Default.
	Logger *slog.Logger
}

// Directory owns the authoritative routing table and serves it over
// RouteReq/RouteResp. It is the cluster bring-up's bookkeeper, not a data
// path: brokers never proxy through it, and clients only talk to it to
// (re)load their route cache.
type Directory struct {
	log    *slog.Logger
	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}

	mu    sync.Mutex
	table Table
}

// NewDirectory binds the listener and starts serving the initial table at
// epoch 1.
func NewDirectory(opts DirectoryOptions) (*Directory, error) {
	if opts.Network == nil {
		return nil, errors.New("cluster: directory needs a network")
	}
	if len(opts.Shards) == 0 {
		return nil, errors.New("cluster: directory needs at least one shard")
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	ln, err := opts.Network.Listen(opts.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: directory listen: %w", err)
	}
	d := &Directory{
		log:    opts.Logger.With("component", "cluster-directory"),
		ln:     ln,
		closed: make(chan struct{}),
		table:  Table{Epoch: 1, Shards: append([]wire.ShardEntry(nil), opts.Shards...)},
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.acceptLoop()
	}()
	return d, nil
}

// Addr returns the bound listen address.
func (d *Directory) Addr() string { return d.ln.Addr().String() }

// Table returns a snapshot of the current table.
func (d *Directory) Table() Table {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.table.clone()
}

// Epoch returns the current table epoch. Brokers plug this into
// broker.Options.ShardEpoch so WrongShard redirects advertise the epoch a
// refresh would reach.
func (d *Directory) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.table.Epoch
}

// Promote records an intra-pair fail-over of the shard: the Backup becomes
// Primary, the Backup slot empties (until an operator replaces the lost
// member), the shard's ownership is unchanged, and the epoch bumps.
func (d *Directory) Promote(shard int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if shard < 0 || shard >= len(d.table.Shards) {
		return fmt.Errorf("cluster: promote: no shard %d in %d-shard table", shard, len(d.table.Shards))
	}
	e := &d.table.Shards[shard]
	if e.Backup == "" {
		return fmt.Errorf("cluster: promote: shard %d has no backup", shard)
	}
	e.Primary, e.Backup = e.Backup, ""
	d.table.Epoch++
	d.log.Info("shard promoted", "shard", shard, "primary", e.Primary, "epoch", d.table.Epoch)
	return nil
}

// SetShards replaces the whole table (an operator resize or repair) and
// bumps the epoch.
func (d *Directory) SetShards(shards []wire.ShardEntry) error {
	if len(shards) == 0 {
		return errors.New("cluster: table needs at least one shard")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.table.Shards = append([]wire.ShardEntry(nil), shards...)
	d.table.Epoch++
	d.log.Info("table replaced", "shards", len(shards), "epoch", d.table.Epoch)
	return nil
}

// Close stops serving.
func (d *Directory) Close() {
	select {
	case <-d.closed:
		return
	default:
		close(d.closed)
	}
	d.ln.Close()
	d.wg.Wait()
}

func (d *Directory) acceptLoop() {
	for {
		nc, err := d.ln.Accept()
		if err != nil {
			return
		}
		conn := transport.NewConn(nc)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			defer conn.Close()
			d.serve(conn)
		}()
	}
}

// serve answers RouteReq (and liveness Polls) until the session ends.
func (d *Directory) serve(conn *transport.Conn) {
	for {
		f, err := conn.Recv()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.TypeRouteReq:
			t := d.Table()
			if err := conn.Send(&wire.Frame{Type: wire.TypeRouteResp, Nonce: f.Nonce, Epoch: t.Epoch, Shards: t.Shards}); err != nil {
				return
			}
		case wire.TypePoll:
			if err := conn.Send(&wire.Frame{Type: wire.TypePollReply, Nonce: f.Nonce}); err != nil {
				return
			}
		case wire.TypeHello:
			// Session setup; roles are irrelevant to the routing plane.
		default:
			d.log.Warn("unexpected frame on routing plane", "type", f.Type.String())
		}
	}
}

// DefaultFetchTimeout bounds one routing-table fetch when
// RouterOptions.Timeout is zero.
const DefaultFetchTimeout = 2 * time.Second

// RouterOptions configures a client-side route cache.
type RouterOptions struct {
	// DirectoryAddr is the routing-plane endpoint.
	DirectoryAddr string
	// Network supplies dialing.
	Network transport.Network
	// Timeout bounds one fetch; zero means DefaultFetchTimeout.
	Timeout time.Duration
	// Logger receives operational events; nil means slog.Default.
	Logger *slog.Logger
}

// Router caches the routing table on behalf of one client process. It
// fetches once at construction and again on each Refresh; between
// fetches every lookup is local. Router is safe for concurrent use.
type Router struct {
	opts RouterOptions
	log  *slog.Logger

	// fetchMu serializes fetches so a burst of redirects collapses into one
	// round trip; mu guards the cached table only.
	fetchMu sync.Mutex
	mu      sync.Mutex
	table   Table
	nonce   uint64
}

// NewRouter fetches the initial table and returns a ready cache.
func NewRouter(opts RouterOptions) (*Router, error) {
	if opts.Network == nil {
		return nil, errors.New("cluster: router needs a network")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultFetchTimeout
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	r := &Router{opts: opts, log: opts.Logger.With("component", "cluster-router")}
	t, err := r.Refresh()
	if err != nil {
		return nil, err
	}
	// A real Directory never serves an empty table (its constructor and
	// SetShards both refuse one), so an empty first fetch means the address
	// points at something that is not a healthy routing plane.
	if len(t.Shards) == 0 {
		return nil, errors.New("cluster: directory served an empty routing table")
	}
	return r, nil
}

// Table returns the cached snapshot.
func (r *Router) Table() Table {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.table.clone()
}

// Epoch returns the cached table's epoch.
func (r *Router) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.table.Epoch
}

// Refresh fetches the table and installs it if newer than the cache,
// returning the (possibly unchanged) cached table. A fetch error leaves
// the cache intact — stale routes beat no routes while the plane is
// partitioned — and so does a table with no shards: an empty table routes
// nothing, so installing one would erase working routes for the same
// reason Publisher.rehome refuses to act on it.
func (r *Router) Refresh() (Table, error) {
	r.fetchMu.Lock()
	defer r.fetchMu.Unlock()
	t, err := r.fetch()
	if err != nil {
		return r.Table(), err
	}
	r.mu.Lock()
	if t.Epoch > r.table.Epoch {
		if len(t.Shards) == 0 {
			r.log.Warn("refusing empty routing table", "epoch", t.Epoch)
		} else {
			r.table = t
		}
	}
	out := r.table.clone()
	r.mu.Unlock()
	return out, nil
}

// fetch performs one RouteReq round trip on a fresh connection.
func (r *Router) fetch() (Table, error) {
	nc, err := r.opts.Network.Dial(r.opts.DirectoryAddr)
	if err != nil {
		return Table{}, fmt.Errorf("cluster: dial directory: %w", err)
	}
	conn := transport.NewConn(nc)
	defer conn.Close()
	r.mu.Lock()
	r.nonce++
	nonce := r.nonce
	r.mu.Unlock()
	if err := conn.Send(&wire.Frame{Type: wire.TypeRouteReq, Nonce: nonce}); err != nil {
		return Table{}, fmt.Errorf("cluster: route request: %w", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(r.opts.Timeout)); err != nil {
		return Table{}, err
	}
	for {
		f, err := conn.Recv()
		if err != nil {
			return Table{}, fmt.Errorf("cluster: route response: %w", err)
		}
		if f.Type != wire.TypeRouteResp || f.Nonce != nonce {
			continue // stray frame on a fresh conn; keep waiting for ours
		}
		return Table{Epoch: f.Epoch, Shards: f.Shards}, nil
	}
}
