// Cluster bring-up: N Primary+Backup pairs plus the routing Directory,
// wired so that a pair's promotion is reflected in the table.
package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"

	"repro/internal/broker"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Node names used for symbolic (Mem / fault-injected) addressing. With a
// faultinject.Network each broker gets its own per-node view so link faults
// can single it out.
const NodeRouting = "routing"

// PrimaryNode returns shard i's Primary node name.
func PrimaryNode(i int) string { return fmt.Sprintf("shard%d-primary", i) }

// BackupNode returns shard i's Backup node name.
func BackupNode(i int) string { return fmt.Sprintf("shard%d-backup", i) }

// Config describes a cluster to bring up.
type Config struct {
	// Shards is the number of Primary+Backup pairs.
	Shards int
	// Topics is the full topic set; each shard registers only its ShardOf
	// partition, so a misrouted publish is an unknown topic at the broker
	// and triggers the WrongShard redirect.
	Topics []spec.Topic
	// Broker is the template every broker is built from (see
	// brokerOptions): the cluster fills in Role, ListenAddr, PeerAddr,
	// Topics and ShardEpoch, and Network when NodeNetwork is set. Its
	// durable settings apply to each shard's Primary only, whose log lives
	// in LogDir/PrimaryNode(i); Backups keep their copies in memory. Its
	// Logger (nil means slog.Default) also receives the cluster's events.
	Broker broker.Options
	// NodeNetwork, when non-nil, supplies a per-node network view (e.g.
	// faultinject.Network.Node) keyed by PrimaryNode/BackupNode/NodeRouting,
	// in place of Broker.Network.
	NodeNetwork func(node string) transport.Network
	// Mem selects symbolic node-name listen addresses (in-process Mem
	// transport); otherwise brokers bind TCP loopback ephemeral ports.
	Mem bool
}

// Pair is one running shard.
type Pair struct {
	Index   int
	Primary *broker.Broker
	Backup  *broker.Broker
	// Topics is the shard's partition of the cluster topic set.
	Topics []spec.Topic
}

// Cluster is a running set of shards plus their routing Directory.
type Cluster struct {
	Dir   *Directory
	Pairs []*Pair

	cfg       Config
	parts     [][]spec.Topic // each shard's topic partition
	watchDone chan struct{}
	wg        sync.WaitGroup
	stopOnce  sync.Once
}

// New builds and starts the cluster: one broker pair per shard (each
// registered with only its topic partition and publishing the Directory's
// epoch in WrongShard redirects), the Directory serving the initial table,
// and one watcher per shard that records a Backup's promotion in the table.
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, errors.New("cluster: need at least one shard")
	}
	if cfg.Broker.Clock == nil {
		return nil, errors.New("cluster: need a clock")
	}
	if cfg.Broker.Network == nil && cfg.NodeNetwork == nil {
		return nil, errors.New("cluster: need a network")
	}
	if cfg.Broker.Durable && cfg.Broker.LogDir == "" {
		return nil, errors.New("cluster: durable brokers need a log dir")
	}
	if cfg.Broker.Logger == nil {
		cfg.Broker.Logger = slog.Default()
	}
	c := &Cluster{cfg: cfg, parts: Partition(cfg.Topics, cfg.Shards), watchDone: make(chan struct{})}
	entries := make([]wire.ShardEntry, cfg.Shards)
	fail := func(err error) (*Cluster, error) {
		c.Stop()
		return nil, err
	}
	for i := 0; i < cfg.Shards; i++ {
		// The Backup's peer is fixed up once the Primary binds.
		bk, err := broker.New(c.brokerOptions(i, broker.RoleBackup, "pending"))
		if err != nil {
			return fail(fmt.Errorf("cluster: shard %d backup: %w", i, err))
		}
		pr, err := broker.New(c.brokerOptions(i, broker.RolePrimary, bk.Addr()))
		if err != nil {
			bk.Stop()
			return fail(fmt.Errorf("cluster: shard %d primary: %w", i, err))
		}
		bk.SetPeerAddr(pr.Addr())
		c.Pairs = append(c.Pairs, &Pair{Index: i, Primary: pr, Backup: bk, Topics: c.parts[i]})
		entries[i] = wire.ShardEntry{Primary: pr.Addr(), Backup: bk.Addr()}
	}
	dir, err := NewDirectory(DirectoryOptions{
		ListenAddr: c.listenAddr(NodeRouting),
		Network:    c.network(NodeRouting),
		Shards:     entries,
		Logger:     cfg.Broker.Logger,
	})
	if err != nil {
		return fail(fmt.Errorf("cluster: directory: %w", err))
	}
	c.Dir = dir
	for _, p := range c.Pairs {
		p.Backup.Start()
		p.Primary.Start()
		p := p
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			select {
			case <-p.Backup.Promoted():
				if err := dir.Promote(p.Index); err != nil {
					cfg.Broker.Logger.Warn("promotion not recorded", "shard", p.Index, "err", err)
				}
			case <-c.watchDone:
			}
		}()
	}
	return c, nil
}

// brokerOptions derives one broker's options from the template: shard i's
// topic partition, its node's listen address and network, the Directory's
// epoch for WrongShard redirects, and, on the Primary only, the durable
// log under LogDir/PrimaryNode(i).
func (c *Cluster) brokerOptions(i int, role broker.Role, peer string) broker.Options {
	node := BackupNode(i)
	if role == broker.RolePrimary {
		node = PrimaryNode(i)
	}
	o := c.cfg.Broker
	o.Role, o.PeerAddr, o.Topics, o.ShardEpoch = role, peer, c.parts[i], c.epoch
	o.ListenAddr, o.Network = c.listenAddr(node), c.network(node)
	if role == broker.RolePrimary && o.Durable {
		o.LogDir = filepath.Join(o.LogDir, node)
	} else {
		o.Durable, o.LogDir = false, ""
	}
	return o
}

// epoch is the routing-table epoch the brokers publish in WrongShard
// redirects. Dir is set before any broker starts serving.
func (c *Cluster) epoch() uint64 {
	if c.Dir == nil {
		return 0
	}
	return c.Dir.Epoch()
}

func (c *Cluster) listenAddr(node string) string {
	if c.cfg.Mem {
		return node
	}
	return "127.0.0.1:0"
}

func (c *Cluster) network(node string) transport.Network {
	if c.cfg.NodeNetwork != nil {
		return c.cfg.NodeNetwork(node)
	}
	return c.cfg.Broker.Network
}

// RestartPrimary replaces shard i's Primary, which the caller has already
// stopped, with a broker built from the same options: same node, same
// durable log. It is the second life after a dual crash, so it stands
// alone, with no Backup to replicate to; the routing table is left as it
// was. The new broker is started (a template with HoldRecovery leaves its
// log's backlog to RecoverFromLog), and Stop stops it.
func (c *Cluster) RestartPrimary(i int) (*broker.Broker, error) {
	if i < 0 || i >= len(c.Pairs) {
		return nil, fmt.Errorf("cluster: no shard %d", i)
	}
	b, err := broker.New(c.brokerOptions(i, broker.RolePrimary, ""))
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d primary restart: %w", i, err)
	}
	b.Start()
	c.Pairs[i].Primary = b
	return b, nil
}

// Stop tears the cluster down. Brokers already stopped by a chaos script
// are skipped by the caller tracking them; Stop itself stops every broker
// it still owns and is idempotent.
func (c *Cluster) Stop() { c.StopExcept(nil) }

// StopExcept stops the cluster, skipping brokers in except (already
// crashed by a scenario; stopping them again would double-close).
func (c *Cluster) StopExcept(except map[*broker.Broker]bool) {
	c.stopOnce.Do(func() {
		close(c.watchDone)
		c.wg.Wait()
		if c.Dir != nil {
			c.Dir.Close()
		}
		for _, p := range c.Pairs {
			if !except[p.Primary] {
				p.Primary.Stop()
			}
			if !except[p.Backup] {
				p.Backup.Stop()
			}
		}
	})
}
