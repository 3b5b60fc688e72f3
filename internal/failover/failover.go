// Package failover implements FRAME's crash-failure detection and
// promotion triggering (§IV-A: "The Backup tracks the status of its Primary
// via periodic polling, and would become a new Primary once it detected
// that its Primary had crashed").
//
// The detector is deliberately simple — fail-stop crashes, bounded-latency
// interconnect between brokers (§III-B assumptions) — so a fixed polling
// period with a consecutive-miss threshold is sound. There is one detector
// per broker pair, the Backup's, and it probes only a silent Primary:
// every frame the Backup hears from the Primary anyway (replicate and prune
// frames on the replication link) is reported with Heard and pushes the
// next probe one Period past it, so while a frame arrives at least once a
// Period no probe is sent at all.
// Publishers run no detector. They fail over when the promoted Backup
// tells them so, or at once when their link to the Primary fails; the
// publisher fail-over time x is then bounded by WorstCaseDetection + ΔBB +
// ΔBP + redirect cost on a silent crash, which is how deployments derive
// the x they feed into Lemma 1.
package failover

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Config tunes the detector.
type Config struct {
	// Period is the polling interval of a silent peer.
	Period time.Duration
	// Timeout bounds the wait for an answer to the probe that would declare
	// the crash.
	Timeout time.Duration
	// Misses is how many consecutive unanswered probes declare a crash.
	Misses int
}

// DefaultConfig returns a detector tuning whose worst-case detection time
// (Period·Misses + Timeout = 25 ms) sits well inside the paper's 50 ms
// fail-over budget.
func DefaultConfig() Config {
	return Config{Period: 5 * time.Millisecond, Timeout: 10 * time.Millisecond, Misses: 3}
}

// Validate checks the tuning.
func (c Config) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("failover: period %v must be positive", c.Period)
	}
	if c.Timeout <= 0 {
		return fmt.Errorf("failover: timeout %v must be positive", c.Timeout)
	}
	if c.Misses <= 0 {
		return fmt.Errorf("failover: misses %d must be positive", c.Misses)
	}
	return nil
}

// WorstCaseDetection returns the longest interval between the last frame
// the detector heard from its peer and the detector firing: the first
// probe falls due one Period after that frame, the Misses-th one Period
// after the one before, and the last is given Timeout to be answered.
// A frame proves the peer alive when it was sent, so measured from the
// crash itself the bound is one one-way delay (ΔBB between brokers) more.
func (c Config) WorstCaseDetection() time.Duration {
	return time.Duration(c.Misses)*c.Period + c.Timeout
}

// Probe performs one liveness check, returning nil if the peer is alive.
// Implementations must respect the context deadline.
type Probe func(ctx context.Context) error

// Detector probes a silent peer and fires a callback on suspected crash.
// Create with New, report every frame heard from the peer with Heard, start
// with Run; it stops after firing or when the context ends.
type Detector struct {
	cfg     Config
	probe   Probe
	onCrash func()
	onProbe func(err error)

	// heard is when the peer was last heard from, in nanoseconds after
	// epoch (a monotonic reading); 0 until the first frame or answer.
	epoch time.Time
	heard atomic.Int64

	mu     sync.Mutex
	probes uint64
	fired  bool
}

// New returns a detector. onCrash runs at most once, from Run's goroutine.
func New(cfg Config, probe Probe, onCrash func()) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if probe == nil {
		return nil, errors.New("failover: nil probe")
	}
	if onCrash == nil {
		return nil, errors.New("failover: nil onCrash")
	}
	return &Detector{cfg: cfg, probe: probe, onCrash: onCrash, epoch: time.Now()}, nil
}

// SetOnProbe registers an observability callback invoked with each probe
// result: nil when the peer answered or was heard from while the probe was
// out, else the probe's error. Must be called before Run; the callback runs
// on Run's goroutine.
func (d *Detector) SetOnProbe(f func(err error)) { d.onProbe = f }

// Heard records that a frame from the peer just arrived: the peer was
// alive when it sent it. It costs one clock read and one atomic store, so
// a receive loop may call it for every frame. Safe for concurrent use.
func (d *Detector) Heard() { d.heard.Store(max(int64(time.Since(d.epoch)), 1)) }

// Alive reports whether the peer was heard from — a frame, or an answered
// probe — within the last Period+Timeout.
func (d *Detector) Alive() bool {
	h := d.heard.Load()
	return h != 0 && int64(time.Since(d.epoch))-h <= int64(d.cfg.Period+d.cfg.Timeout)
}

// Run probes until the context is canceled or a crash is declared. It
// returns context.Canceled on cancellation and nil after firing onCrash.
//
// A probe falls due one Period after the peer was last heard from, and
// while it stays silent the next falls due one Period after the one
// before. Every probe but the one that would declare the crash is given
// at most one Period to be answered, and an answer to an earlier probe
// counts for a later one, so the declaring probe goes out Misses·Period
// after the last frame and fires Timeout later: WorstCaseDetection.
func (d *Detector) Run(ctx context.Context) error {
	period := int64(d.cfg.Period)
	last := d.heard.Load() // the frame the current silence is measured from
	due := last + period
	misses := 0
	timer := time.NewTimer(d.cfg.Period)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
		if h := d.heard.Load(); h != last {
			last, due, misses = h, h+period, 0
		}
		if wait := due - int64(time.Since(d.epoch)); wait > 0 {
			timer.Reset(time.Duration(wait))
			continue
		}
		window := d.cfg.Timeout
		if misses+1 < d.cfg.Misses {
			window = min(window, d.cfg.Period)
		}
		probeCtx, cancel := context.WithTimeout(ctx, window)
		err := d.probe(probeCtx)
		cancel()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err == nil {
			d.Heard()
		}
		h := d.heard.Load()
		if h != last {
			err = nil // a frame that arrived meanwhile answers for the peer
		}
		if d.onProbe != nil {
			d.onProbe(err)
		}
		if d.count(err == nil, misses+1) {
			d.onCrash()
			return nil
		}
		if err == nil {
			last, due, misses = h, h+period, 0
		} else {
			misses++
			due += period
		}
		timer.Reset(time.Duration(max(due-int64(time.Since(d.epoch)), 0)))
	}
}

// count records one completed probe and reports whether it declares the
// crash: unanswered, and the Misses-th in a row.
func (d *Detector) count(alive bool, streak int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.probes++
	if alive || streak < d.cfg.Misses {
		return false
	}
	d.fired = true
	return true
}

// Probes returns how many probes have completed (for tests and metrics).
func (d *Detector) Probes() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.probes
}

// Fired reports whether the detector has declared a crash.
func (d *Detector) Fired() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fired
}

// ConnProbe returns a Probe that performs a Poll/PollReply round trip on a
// dedicated framed connection, which no one else may read. A nil error means
// the peer answered while the probe was out: a reply to this poll, or a
// late one to an earlier poll that was given up on, which proves the peer
// alive just as well. The connection is read continuously, by a goroutine
// that lives until it closes, so a peer writing a late answer is never
// blocked by a prober that stopped waiting for it.
func ConnProbe(conn *transport.Conn) Probe {
	// One request frame for the life of the probe and one reply frame for
	// its reader: a detector may poll hundreds of times a second and must
	// not allocate per round trip.
	poll := wire.Frame{Type: wire.TypePoll}
	var answered atomic.Uint64 // nonce of the latest reply
	wake := make(chan struct{}, 1)
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		var reply wire.Frame
		for conn.RecvInto(&reply) == nil {
			if reply.Type != wire.TypePollReply {
				continue
			}
			answered.Store(reply.Nonce)
			select {
			case wake <- struct{}{}:
			default:
			}
		}
	}()
	return func(ctx context.Context) error {
		before := answered.Load()
		poll.Nonce++
		if err := conn.Send(&poll); err != nil {
			return fmt.Errorf("failover: poll send: %w", err)
		}
		for answered.Load() == before {
			select {
			case <-wake:
			case <-gone:
				if answered.Load() == before {
					return errors.New("failover: poll link closed")
				}
			case <-ctx.Done():
				return fmt.Errorf("failover: poll: %w", ctx.Err())
			}
		}
		return nil
	}
}
