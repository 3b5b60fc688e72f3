// Cluster bring-up: N Primary+Backup pairs plus the routing Directory,
// wired so that a pair's promotion is reflected in the table.
package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"

	"repro/internal/broker"
	"repro/internal/clocksync"
	"repro/internal/core"
	"repro/internal/failover"
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
	// Engine is the per-broker core configuration.
	Engine core.Config
	// Network supplies listen/dial for every node when NodeNetwork is nil.
	Network transport.Network
	// NodeNetwork, when non-nil, supplies a per-node network view (e.g.
	// faultinject.Network.Node) keyed by PrimaryNode/BackupNode/NodeRouting.
	NodeNetwork func(node string) transport.Network
	// Mem selects symbolic node-name listen addresses (in-process Mem
	// transport); otherwise brokers bind TCP loopback ephemeral ports.
	Mem bool
	// Clock is the shared timebase.
	Clock clocksync.Clock
	// Workers is passed to broker.Options.Workers, which is deprecated and
	// ignored: every lane runs one dispatcher.
	Workers int
	// Detector tunes each pair's failure detector.
	Detector failover.Config
	// EgressDepth is passed through to every broker.
	EgressDepth int
	// Logger receives operational events; nil means slog.Default.
	Logger *slog.Logger
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
	if cfg.Clock == nil {
		return nil, errors.New("cluster: need a clock")
	}
	if cfg.Network == nil && cfg.NodeNetwork == nil {
		return nil, errors.New("cluster: need a network")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	netFor := cfg.NodeNetwork
	if netFor == nil {
		netFor = func(string) transport.Network { return cfg.Network }
	}
	listenFor := func(node string) string {
		if cfg.Mem {
			return node
		}
		return "127.0.0.1:0"
	}

	c := &Cluster{watchDone: make(chan struct{})}
	parts := Partition(cfg.Topics, cfg.Shards)
	entries := make([]wire.ShardEntry, cfg.Shards)
	// The brokers' ShardEpoch hooks read through this pointer; it is set
	// before any broker starts serving.
	var dir *Directory
	epoch := func() uint64 {
		if dir == nil {
			return 0
		}
		return dir.Epoch()
	}
	fail := func(err error) (*Cluster, error) {
		c.Stop()
		return nil, err
	}
	for i := 0; i < cfg.Shards; i++ {
		bk, err := broker.New(broker.Options{
			Engine:      cfg.Engine,
			Role:        broker.RoleBackup,
			ListenAddr:  listenFor(BackupNode(i)),
			PeerAddr:    "pending", // fixed up once the Primary binds
			Network:     netFor(BackupNode(i)),
			Clock:       cfg.Clock,
			Workers:     cfg.Workers,
			Detector:    cfg.Detector,
			Topics:      parts[i],
			Logger:      cfg.Logger,
			EgressDepth: cfg.EgressDepth,
			ShardEpoch:  epoch,
		})
		if err != nil {
			return fail(fmt.Errorf("cluster: shard %d backup: %w", i, err))
		}
		pr, err := broker.New(broker.Options{
			Engine:      cfg.Engine,
			Role:        broker.RolePrimary,
			ListenAddr:  listenFor(PrimaryNode(i)),
			PeerAddr:    bk.Addr(),
			Network:     netFor(PrimaryNode(i)),
			Clock:       cfg.Clock,
			Workers:     cfg.Workers,
			Detector:    cfg.Detector,
			Topics:      parts[i],
			Logger:      cfg.Logger,
			EgressDepth: cfg.EgressDepth,
			ShardEpoch:  epoch,
		})
		if err != nil {
			bk.Stop()
			return fail(fmt.Errorf("cluster: shard %d primary: %w", i, err))
		}
		bk.SetPeerAddr(pr.Addr())
		c.Pairs = append(c.Pairs, &Pair{Index: i, Primary: pr, Backup: bk, Topics: parts[i]})
		entries[i] = wire.ShardEntry{Primary: pr.Addr(), Backup: bk.Addr()}
	}
	var err error
	dir, err = NewDirectory(DirectoryOptions{
		ListenAddr: listenFor(NodeRouting),
		Network:    netFor(NodeRouting),
		Shards:     entries,
		Logger:     cfg.Logger,
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
					cfg.Logger.Warn("promotion not recorded", "shard", p.Index, "err", err)
				}
			case <-c.watchDone:
			}
		}()
	}
	return c, nil
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
