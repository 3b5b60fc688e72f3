// Package faultinject wraps a transport.Network with deterministic,
// scriptable link faults, so the real TCP stack (and the in-process Mem
// network) can be exercised under the degraded conditions FRAME's
// guarantees are actually about: added latency and jitter, bandwidth caps,
// frame-boundary drops, connection resets, half-open stalls, and named
// partitions that can be raised and healed at runtime.
//
// Topology model: every endpoint takes its transport.Network from
// Node(name), which tags listeners and dials with that node's name. A
// dialed connection then belongs to a directed link pair — (dialer node →
// listener's node) for its write side, the reverse for its read side — and
// each direction consults the fault program installed for it with SetLink.
// Faults are applied at frame granularity: the injector parses the
// transport's uint32-length-prefixed framing out of the byte stream, so a
// dropped frame removes exactly one wire frame and never corrupts the
// stream around it.
//
// Determinism: all random decisions (jitter samples, drop lotteries) come
// from a per-link-connection rand seeded from the Network seed, the link
// name, and the link-local dial ordinal. Given the same seed and the same
// scenario script, the fate of the n-th frame on a given link is identical
// across runs — which is what makes a failed chaos run replayable from the
// single FRAME_CHAOS_SEED the runner prints.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Wildcard matches any node name in a SetLink selector.
const Wildcard = "*"

// Faults is the fault program of one link direction. The zero value is a
// transparent link.
type Faults struct {
	// Latency is added one-way delay per frame. Frames are pipelined: two
	// frames sent 1ms apart both arrive Latency later, still 1ms apart.
	Latency time.Duration
	// Jitter adds a uniform [0, Jitter) sample on top of Latency per frame.
	Jitter time.Duration
	// BandwidthBps caps the direction's throughput in bytes/second by
	// pacing frame delivery; zero means unlimited.
	BandwidthBps int64
	// Drop is the per-frame drop probability in [0, 1]. Dropped frames
	// vanish at a frame boundary; the stream around them stays intact.
	Drop float64
	// Stall half-opens the direction: the connection stays up and writes
	// succeed, but no frame is delivered until the stall clears. Held
	// frames are delivered (in order) once it does.
	Stall bool
	// WriteBufferBytes shrinks the direction's queued-byte bound below the
	// default 1 MiB (values above it are clamped), modelling a small socket
	// send buffer: a stalled or slow link back-pressures the writer after
	// this many undelivered bytes. Zero keeps the default.
	WriteBufferBytes int
}

// IsZero reports a transparent fault program.
func (f Faults) IsZero() bool { return f == Faults{} }

// Stats counts injector activity across the whole network. All fields are
// atomics, safe to read while scenarios run.
type Stats struct {
	FramesForwarded atomic.Uint64 // frames delivered (after any delay)
	BytesForwarded  atomic.Uint64 // bytes delivered, including headers
	FramesDropped   atomic.Uint64 // frames removed by the drop lottery
	FramesHeld      atomic.Uint64 // frames held at least once by a partition or stall
	Resets          atomic.Uint64 // connections reset by ResetLink/ResetNode
	DialsRefused    atomic.Uint64 // dials refused because the link was partitioned
}

// Network is a fault-injecting transport.Network decorator. Create with
// New, hand each endpoint a Node view, and drive faults at runtime with
// SetLink / Partition / Heal / ResetLink.
type Network struct {
	inner transport.Network
	seed  int64

	mu     sync.Mutex
	owners map[string]string    // listen addr -> node name
	rules  map[linkKey]Faults   // directed fault programs
	parts  map[string]partition // raised partitions by name
	conns  map[*faultConn]bool  // live injected conns
	dials  map[linkKey]int64    // per-link dial ordinal (rng stream id)

	stats Stats
}

type linkKey struct{ from, to string }

func (k linkKey) String() string { return k.from + "->" + k.to }

// partition is a named bidirectional cut between two node groups.
type partition struct{ a, b map[string]bool }

// New wraps inner with fault injection. All randomized fault decisions
// derive from seed (see the package comment on determinism).
func New(inner transport.Network, seed int64) *Network {
	return &Network{
		inner:  inner,
		seed:   seed,
		owners: make(map[string]string),
		rules:  make(map[linkKey]Faults),
		parts:  make(map[string]partition),
		conns:  make(map[*faultConn]bool),
		dials:  make(map[linkKey]int64),
	}
}

// Seed returns the seed every fault decision derives from.
func (n *Network) Seed() int64 { return n.seed }

// Stats exposes the injector's counters.
func (n *Network) Stats() *Stats { return &n.stats }

// Node returns the transport.Network view for one named node: listeners
// register the node as owner of their bound address, and dials tag the
// resulting connection with the (node → owner) link.
func (n *Network) Node(name string) transport.Network { return &nodeView{n: n, name: name} }

// SetLink installs the fault program for the directed link from → to,
// replacing any previous program. Wildcard ("*") matches any node; the most
// specific selector wins (from→to, then from→*, then *→to, then *→*).
// Takes effect immediately, including on established connections.
func (n *Network) SetLink(from, to string, f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules[linkKey{from, to}] = f
}

// ClearLink removes the directed fault program from → to.
func (n *Network) ClearLink(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.rules, linkKey{from, to})
}

// ClearAllFaults removes every fault program and heals every partition,
// leaving connections (and any frames they held) intact; held frames
// deliver promptly afterwards. The chaos runner calls this before draining.
func (n *Network) ClearAllFaults() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules = make(map[linkKey]Faults)
	n.parts = make(map[string]partition)
}

// Partition raises (or replaces) a named bidirectional cut: every frame
// between a node in group a and a node in group b is held until the
// partition heals, and new dials across the cut are refused. Raising a
// partition does not reset established connections — the links look
// half-open, exactly like a real network partition.
func (n *Network) Partition(name string, a, b []string) {
	p := partition{a: make(map[string]bool, len(a)), b: make(map[string]bool, len(b))}
	for _, x := range a {
		p.a[x] = true
	}
	for _, x := range b {
		p.b[x] = true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.parts[name] = p
}

// Heal removes a named partition; frames held behind it deliver in order.
func (n *Network) Heal(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.parts, name)
}

// Partitioned reports whether any raised partition severs from → to.
func (n *Network) Partitioned(from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.severedLocked(from, to)
}

func (n *Network) severedLocked(from, to string) bool {
	for _, p := range n.parts {
		if (p.a[from] && p.b[to]) || (p.b[from] && p.a[to]) {
			return true
		}
	}
	return false
}

// faultsFor resolves the current program for one direction.
func (n *Network) faultsFor(from, to string) Faults {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, k := range []linkKey{{from, to}, {from, Wildcard}, {Wildcard, to}, {Wildcard, Wildcard}} {
		if f, ok := n.rules[k]; ok {
			return f
		}
	}
	return Faults{}
}

// ResetLink abruptly closes every live connection dialed from `from` to
// `to` (TCP connections get a best-effort RST via SO_LINGER 0), modelling a
// middlebox killing flows. Returns how many connections it reset.
func (n *Network) ResetLink(from, to string) int {
	return n.reset(func(c *faultConn) bool { return c.from == from && c.to == to })
}

// ResetNode abruptly closes every live connection touching the node in
// either role — the network face of a fail-stop crash.
func (n *Network) ResetNode(name string) int {
	return n.reset(func(c *faultConn) bool { return c.from == name || c.to == name })
}

func (n *Network) reset(match func(*faultConn) bool) int {
	n.mu.Lock()
	victims := make([]*faultConn, 0, len(n.conns))
	for c := range n.conns {
		if match(c) {
			victims = append(victims, c)
		}
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.reset()
		n.stats.Resets.Add(1)
	}
	return len(victims)
}

// ActiveConns returns how many injected connections are currently live.
func (n *Network) ActiveConns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

func (n *Network) untrack(c *faultConn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.conns, c)
}

// connSeed derives the deterministic rng seed for the n-th connection on a
// link: network seed ⊕ link-name hash, advanced by the dial ordinal.
func (n *Network) connSeed(k linkKey, ordinal int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(k.String()))
	const golden = int64(-7046029254386353131) // 0x9E3779B97F4A7C15 as int64
	return n.seed ^ int64(h.Sum64()) ^ (ordinal * golden)
}

// nodeView is the per-node transport.Network facade.
type nodeView struct {
	n    *Network
	name string
}

var _ transport.Network = (*nodeView)(nil)

// Listen opens a listener on the inner network and registers this node as
// the owner of the bound address, so dials to it resolve their link.
func (v *nodeView) Listen(addr string) (net.Listener, error) {
	ln, err := v.n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	v.n.mu.Lock()
	v.n.owners[ln.Addr().String()] = v.name
	v.n.mu.Unlock()
	return ln, nil
}

// Dial connects through the inner network and wraps the connection with the
// (dialer → owner) link's fault programs. Dials across a raised partition
// are refused, like SYNs that never arrive.
func (v *nodeView) Dial(addr string) (net.Conn, error) {
	n := v.n
	n.mu.Lock()
	to, known := n.owners[addr]
	if !known {
		to = addr // unregistered target: the address itself names the node
	}
	k := linkKey{v.name, to}
	if n.severedLocked(v.name, to) {
		n.mu.Unlock()
		n.stats.DialsRefused.Add(1)
		return nil, fmt.Errorf("faultinject: %s partitioned: %w", k, transport.ErrConnRefused)
	}
	ordinal := n.dials[k]
	n.dials[k] = ordinal + 1
	n.mu.Unlock()

	nc, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := newFaultConn(n, nc, v.name, to, n.connSeed(k, ordinal))
	n.mu.Lock()
	n.conns[c] = true
	n.mu.Unlock()
	return c, nil
}

// SeedFromEnv returns the chaos seed: the value of FRAME_CHAOS_SEED when it
// is set and parses (decimal, or hex with an 0x prefix), the fallback
// otherwise. Every randomized chaos/property test seeds from this so any CI
// failure is locally replayable by exporting the seed the test logged.
func SeedFromEnv(fallback int64) int64 {
	s := os.Getenv("FRAME_CHAOS_SEED")
	if s == "" {
		return fallback
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return fallback
	}
	return v
}
